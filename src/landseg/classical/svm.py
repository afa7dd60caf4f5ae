"""RBF-kernel SVM trained by sequential minimal optimization.

Multiclass is one-vs-one: each class pair gets its own binary SMO problem
(+1 for the lower class id) and prediction is by pair voting with ties to
the lowest class id. Features are standardized internally before training
for SMO conditioning; the transform is stored with the model.

Prediction evaluates one kernel over the distinct support vectors of all
pairs (LIBSVM's layout, Chang & Lin 2011), KERNEL_CELLS (row, support
vector) cells at a time, and each pair reads its own columns of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..jsondoc import (
    JsonDoc, as_array, at_least, check_params, doc_field, finite, list_of,
    positive, rule,
)
from .tree import training_table

KERNEL_CELLS = 1 << 16  # (row, support vector) cells per block of kernel rows
# Kernel blocks start at multiples of BLOCK_ALIGN rows. BLAS matrix-vector
# kernels treat a row by its place in a group of a few rows, so aligned
# blocks give each row the decision value of one call over all rows.
BLOCK_ALIGN = 64


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """K(x, z) = exp(-gamma * ||x - z||^2) for all row pairs."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    sq = np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)
    return np.exp(-gamma * sq)


def smo_solve(x, y_signed, C, gamma, tol, max_iter):
    """Binary SMO on the dual problem; stops at max KKT violation <= tol.

    Works on maximal violating pairs: i maximizes y - f over the up set,
    j minimizes it over the down set, where f_k = sum_j alpha_j y_j K_jk.
    Returns (alpha, bias, iterations, final_violation).

    A step touches only what its two alphas change: the sets are kept as
    0/-inf (up) and 0/+inf (down) penalties added to y - f, updated at i
    and j alone, and the scalar step runs on Python floats.
    """
    n = x.shape[0]
    kmat = rbf_kernel(x, x, gamma)
    ys = y_signed.tolist()
    diag = kmat.diagonal().tolist()
    a = [0.0] * n
    f = np.zeros(n)
    viol = y_signed - f
    buf = np.empty(n)
    pen_up, pen_down = np.empty(n), np.empty(n)
    top = C - 1e-12

    def place(k):
        # set row k's penalties from its alpha
        low, high = a[k] > 1e-12, a[k] < top
        up, down = (high, low) if ys[k] > 0 else (low, high)
        pen_up[k] = 0.0 if up else -np.inf
        pen_down[k] = 0.0 if down else np.inf

    for k in range(n):
        place(k)
    it = 0
    while it < max_iter:
        # with finite y - f, an infinite pick means an empty set
        i = int(np.add(viol, pen_up, out=buf).argmax())
        if buf.item(i) == -np.inf:
            break
        j = int(np.add(viol, pen_down, out=buf).argmin())
        if buf.item(j) == np.inf:
            break
        vi, vj = viol.item(i), viol.item(j)
        if vi - vj <= tol:
            break
        ai, aj = a[i], a[j]
        if ys[i] != ys[j]:
            lo = max(0.0, aj - ai)
            hi = min(C, C + aj - ai)
        else:
            lo = max(0.0, ai + aj - C)
            hi = min(C, ai + aj)
        eta = diag[i] + diag[j] - 2.0 * kmat.item(i, j)
        # E_i - E_j = viol_j - viol_i; eta -> 0 only for duplicate points,
        # where the step clips to a box bound
        step = ys[j] * (vj - vi) / max(eta, 1e-12)
        aj_new = min(max(aj + step, lo), hi)
        ai_new = min(max(ai + ys[i] * ys[j] * (aj - aj_new), 0.0), C)
        if abs(aj_new - aj) < 1e-14 and abs(ai_new - ai) < 1e-14:
            break  # numerically stalled at a box corner
        np.add(f, np.multiply(kmat[i], (ai_new - ai) * ys[i], out=buf), out=f)
        np.add(f, np.multiply(kmat[j], (aj_new - aj) * ys[j], out=buf), out=f)
        np.subtract(y_signed, f, out=viol)
        a[i], a[j] = ai_new, aj_new
        place(i)
        place(j)
        it += 1

    alpha = np.array(a)
    up, down = pen_up == 0.0, pen_down == 0.0
    final_gap = 0.0
    if up.any() and down.any():
        final_gap = float(np.max(viol[up]) - np.min(viol[down]))
    if it >= max_iter and final_gap > tol:
        warnings.warn(
            f"SMO hit the iteration cap ({max_iter}) at KKT violation {final_gap:.2e}"
        )

    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        bias = float(np.mean(viol[free]))
    elif up.any() and down.any():
        bias = float((np.max(viol[up]) + np.min(viol[down])) / 2.0)
    else:
        bias = 0.0
    return alpha, bias, it, final_gap


@dataclass
class PairModel(JsonDoc):
    """One binary one-vs-one model: +1 votes class_pos, -1 votes class_neg."""

    class_pos: int
    class_neg: int
    # (n_sv, d) standardized support vectors
    sv: np.ndarray = doc_field(as_array(np.float64), finite)
    coef: np.ndarray = doc_field(as_array(np.float64), finite)  # alpha_i * y_i
    bias: float = doc_field(check=finite)
    kkt_violation: float

    def __post_init__(self):
        super().__post_init__()
        if self.sv.ndim != 2 or self.coef.shape != self.sv.shape[:1]:
            raise ValueError(
                f"'sv' of shape {self.sv.shape} and 'coef' of shape "
                f"{self.coef.shape} do not hold one row and one "
                "coefficient per support vector")


@dataclass
class SvmClassifier(JsonDoc):
    pairs: list = doc_field(list_of(PairModel.from_json),
                            rule(len, "a list of at least one pair"))
    mean: np.ndarray = doc_field(as_array(np.float64), finite)
    std: np.ndarray = doc_field(as_array(np.float64), positive)
    n_classes: int = doc_field(check=at_least(2))
    C: float = doc_field(check=positive, default=300.0)
    gamma: float = doc_field(check=positive, default=0.1)
    tol: float = doc_field(check=positive, default=1e-3)

    def __post_init__(self):
        super().__post_init__()
        d = self.mean.size
        if self.mean.shape != (d,) or self.std.shape != (d,):
            raise ValueError(f"'mean' and 'std' must hold one value per "
                             f"band, got shapes {self.mean.shape} and "
                             f"{self.std.shape}")
        for pm in self.pairs:
            for key in ("class_pos", "class_neg"):
                if not 0 <= getattr(pm, key) < self.n_classes:
                    raise ValueError(
                        f"a pair has {key!r} {getattr(pm, key)}, outside "
                        f"the class ids 0..{self.n_classes - 1} of "
                        f"'n_classes' {self.n_classes}")
            if pm.class_pos >= pm.class_neg:
                raise ValueError(
                    f"a pair has 'class_pos' {pm.class_pos} not below its "
                    f"'class_neg' {pm.class_neg}")
            if pm.sv.shape[1] != d:
                raise ValueError(f"a pair's 'sv' has {pm.sv.shape[1]} "
                                 f"columns, 'mean' {d}")

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x, dtype=np.float64)) - self.mean) / self.std

    def predict(self, x: np.ndarray) -> np.ndarray:
        """One-vs-one vote winner; ties go to the lowest class id, as every
        row casts the same number of votes."""
        return np.argmax(self.predict_proba(x), axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Vote fractions (not calibrated probabilities)."""
        xs = self._standardize(x)
        votes = np.zeros((xs.shape[0], self.n_classes), dtype=np.float64)
        for at, pm, g in self._decisions(xs):
            block = votes[at:at + g.shape[0]]
            block[:, pm.class_pos] += g >= 0
            block[:, pm.class_neg] += g < 0
        total = votes.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return votes / total

    def _decisions(self, xs: np.ndarray):
        """(first row, pair, decision values) per block of standardized
        rows and pair. The kernel is evaluated once per block over the
        pairs' distinct support vectors; np.take hands each pair a
        C-ordered copy of its columns, so the sums, and with them the
        decision values, are those of a kernel over the pair's own
        support vectors."""
        sv = np.concatenate([pm.sv for pm in self.pairs])
        union, inverse = np.unique(sv, axis=0, return_inverse=True)
        ends = np.cumsum([pm.sv.shape[0] for pm in self.pairs])[:-1]
        columns = np.split(inverse.reshape(-1), ends)
        rows = max(BLOCK_ALIGN, KERNEL_CELLS // union.shape[0]
                   // BLOCK_ALIGN * BLOCK_ALIGN)
        for at in range(0, xs.shape[0], rows):
            k = rbf_kernel(xs[at:at + rows], union, self.gamma)
            for pm, ix in zip(self.pairs, columns):
                yield at, pm, np.take(k, ix, axis=1) @ pm.coef + pm.bias


def svm_train(
    x: np.ndarray,
    y: np.ndarray,
    C: float = 300.0,
    gamma: float = 0.1,
    tol: float = 1e-3,
    max_iter: int = 200_000,
    n_classes: int | None = None,
) -> SvmClassifier:
    check_params(C=C, gamma=gamma, tol=tol, max_iter=max_iter)
    x, y, n_classes = training_table(x, y, n_classes)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    xs = (x - mean) / std

    classes = [int(c) for c in np.unique(y)]
    if len(classes) < 2:
        raise ValueError("SVM training needs at least two classes with rows")
    pairs = []
    for c1, c2 in combinations(classes, 2):
        sel = (y == c1) | (y == c2)
        xp = xs[sel]
        yp = np.where(y[sel] == c1, 1.0, -1.0)
        alpha, bias, _, gap = smo_solve(xp, yp, C, gamma, tol, max_iter)
        keep = alpha > 1e-8
        pairs.append(PairModel(
            class_pos=c1, class_neg=c2,
            sv=xp[keep].copy(),
            coef=(alpha * yp)[keep],
            bias=bias,
            kkt_violation=gap,
        ))
    return SvmClassifier(
        pairs=pairs, mean=mean, std=std,
        n_classes=n_classes, C=C, gamma=gamma, tol=tol,
    )
