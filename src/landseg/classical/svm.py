"""RBF-kernel SVM trained by sequential minimal optimization.

Multiclass is one-vs-one: each class pair gets its own binary SMO problem
(+1 for the lower class id) and prediction is by pair voting with ties to
the lowest class id. Features are standardized internally before training
for SMO conditioning; the transform is stored with the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np


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
    """
    n = x.shape[0]
    kmat = rbf_kernel(x, x, gamma)
    alpha = np.zeros(n)
    f = np.zeros(n)
    it = 0
    viol = y_signed - f
    while it < max_iter:
        up = ((y_signed > 0) & (alpha < C - 1e-12)) | ((y_signed < 0) & (alpha > 1e-12))
        down = ((y_signed < 0) & (alpha < C - 1e-12)) | ((y_signed > 0) & (alpha > 1e-12))
        if not up.any() or not down.any():
            break
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(down, viol, np.inf)))
        gap = viol[i] - viol[j]
        if gap <= tol:
            break
        if y_signed[i] != y_signed[j]:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(C, C + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - C)
            hi = min(C, alpha[i] + alpha[j])
        eta = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        # E_i - E_j = viol_j - viol_i; eta -> 0 only for duplicate points,
        # where the step clips to a box bound
        step = y_signed[j] * (viol[j] - viol[i]) / max(eta, 1e-12)
        aj_new = float(np.clip(alpha[j] + step, lo, hi))
        ai_new = alpha[i] + y_signed[i] * y_signed[j] * (alpha[j] - aj_new)
        ai_new = float(np.clip(ai_new, 0.0, C))
        if abs(aj_new - alpha[j]) < 1e-14 and abs(ai_new - alpha[i]) < 1e-14:
            break  # numerically stalled at a box corner
        f = f + (ai_new - alpha[i]) * y_signed[i] * kmat[i] \
              + (aj_new - alpha[j]) * y_signed[j] * kmat[j]
        alpha[i], alpha[j] = ai_new, aj_new
        viol = y_signed - f
        it += 1

    up = ((y_signed > 0) & (alpha < C - 1e-12)) | ((y_signed < 0) & (alpha > 1e-12))
    down = ((y_signed < 0) & (alpha < C - 1e-12)) | ((y_signed > 0) & (alpha > 1e-12))
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
class PairModel:
    """One binary one-vs-one model: +1 votes class_pos, -1 votes class_neg."""

    class_pos: int
    class_neg: int
    sv: np.ndarray        # (n_sv, d) standardized support vectors
    coef: np.ndarray      # alpha_i * y_i
    bias: float
    kkt_violation: float

    def decision(self, x_std: np.ndarray, gamma: float) -> np.ndarray:
        return rbf_kernel(x_std, self.sv, gamma) @ self.coef + self.bias


@dataclass
class SvmClassifier:
    pairs: list
    mean: np.ndarray
    std: np.ndarray
    n_classes: int
    C: float = 300.0
    gamma: float = 0.1
    tol: float = 1e-3

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
        for pm in self.pairs:
            g = pm.decision(xs, self.gamma)
            votes[g >= 0, pm.class_pos] += 1.0
            votes[g < 0, pm.class_neg] += 1.0
        total = votes.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return votes / total

    def to_json(self) -> dict:
        return {
            "pairs": [
                {
                    "class_pos": pm.class_pos,
                    "class_neg": pm.class_neg,
                    "sv": pm.sv.tolist(),
                    "coef": pm.coef.tolist(),
                    "bias": pm.bias,
                    "kkt_violation": pm.kkt_violation,
                }
                for pm in self.pairs
            ],
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "n_classes": self.n_classes,
            "C": self.C,
            "gamma": self.gamma,
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SvmClassifier":
        pairs = [
            PairModel(
                class_pos=p["class_pos"],
                class_neg=p["class_neg"],
                sv=np.asarray(p["sv"], dtype=np.float64),
                coef=np.asarray(p["coef"], dtype=np.float64),
                bias=p["bias"],
                kkt_violation=p["kkt_violation"],
            )
            for p in doc["pairs"]
        ]
        return cls(
            pairs=pairs,
            mean=np.asarray(doc["mean"], dtype=np.float64),
            std=np.asarray(doc["std"], dtype=np.float64),
            n_classes=doc["n_classes"],
            C=doc["C"],
            gamma=doc["gamma"],
            tol=doc["tol"],
        )


def svm_train(
    x: np.ndarray,
    y: np.ndarray,
    C: float = 300.0,
    gamma: float = 0.1,
    tol: float = 1e-3,
    max_iter: int = 200_000,
    n_classes: int | None = None,
) -> SvmClassifier:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty training table")
    if n_classes is None:
        n_classes = int(y.max()) + 1
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
        if not (y == c1).any() or not (y == c2).any():
            raise ValueError(f"one-vs-one pair ({c1}, {c2}) is missing a class")
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
