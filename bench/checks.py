"""Output checks, computed apart from the program under test.

Nothing here imports landseg. Rasters are read with this file's own reader
of the documented container (JSON sidecar + little-endian body), and every
expected value comes from an independent computation (a tree traversal,
an RBF vote, a reference network forward) or from a property the method
must have (probabilities sum to 1, labels are their argmax, nodata sits
exactly on invalid pixels). No check compares with stored earlier output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

NODATA = 255
# Rasters store probabilities as float32: a per-pixel sum of K values is
# off by at most K/2 ulp(1) ~ 4e-7, so 1e-6 is float32 rounding.
F32_TOL = 1e-6
RF_PIXELS = 64       # sampled pixels for the forest traversal check
SVM_PIXELS = 64      # sampled pixels for the SVM vote check
NET_ANCHORS = 3      # sampled tiles per net for the reference forward


# ------------------------------------------------------------------ reader

def read_raster(stem):
    """(data (bands, H, W) float32, valid mask (H, W) bool)."""
    side = json.loads(Path(f"{stem}.json").read_text())
    if side["dtype"] != "f32" or side.get("byte_order") != "little":
        raise ValueError(f"{stem}: not a little-endian f32 raster")
    w, h, b = side["width"], side["height"], len(side["bands"])
    raw = Path(f"{stem}.bin").read_bytes()
    if len(raw) != b * h * w * 4 + h * w:
        raise ValueError(f"{stem}: body size does not match the sidecar")
    data = np.frombuffer(raw, dtype="<f4", count=b * h * w).reshape(b, h, w)
    mask = np.frombuffer(raw, dtype=np.uint8, offset=b * h * w * 4)
    return data, mask.reshape(h, w) != 0


def read_labels(stem) -> np.ndarray:
    side = json.loads(Path(f"{stem}.json").read_text())
    if side["dtype"] != "u8":
        raise ValueError(f"{stem}: not a u8 label raster")
    raw = Path(f"{stem}.bin").read_bytes()
    if len(raw) != side["width"] * side["height"]:
        raise ValueError(f"{stem}: body size does not match the sidecar")
    return np.frombuffer(raw, dtype=np.uint8).reshape(side["height"],
                                                      side["width"])


def overall_accuracy(pred: np.ndarray, truth: np.ndarray):
    """(OA, evaluated pixels, majority-class share of those pixels)."""
    keep = (pred != NODATA) & (truth != NODATA)
    n = int(keep.sum())
    if n == 0:
        raise ValueError("no pixel to evaluate")
    hits = int((pred[keep] == truth[keep]).sum())
    majority = int(np.bincount(truth[keep]).max())
    return hits / n, n, majority / n


def output_digest(work: Path, w) -> dict:
    """sha256 of every report, label and probability raster of a round."""
    files = list(w.reports.values())
    for prefix in [m.pred for m in w.models] + [w.merged]:
        for suffix in ("_labels", "_probs"):
            files += [f"{prefix}{suffix}.json", f"{prefix}{suffix}.bin"]
    return {f: hashlib.sha256((work / f).read_bytes()).hexdigest()
            for f in files}


# ------------------------------------------------------ reference models

def rf_votes(doc: dict, x: np.ndarray) -> np.ndarray:
    """Forest vote fractions by walking each saved tree, one row at a time."""
    trees = doc["trees"]
    k = doc["n_classes"]
    out = np.zeros((x.shape[0], k))
    for t in trees:
        feat, thr, left, right, hist = (t["feature"], t["threshold"],
                                        t["left"], t["right"], t["hist"])
        for r, row in enumerate(x):
            node = 0
            while feat[node] >= 0:
                node = left[node] if row[feat[node]] <= thr[node] \
                    else right[node]
            counts = hist[node]
            best = 0
            for c in range(1, k):      # first maximum: ties to lowest id
                if counts[c] > counts[best]:
                    best = c
            out[r, best] += 1
    return out / len(trees)


def svm_votes(doc: dict, x: np.ndarray):
    """One-vs-one RBF vote fractions, and the smallest |decision| per row."""
    xs = (x - np.asarray(doc["mean"])) / np.asarray(doc["std"])
    gamma = doc["gamma"]
    votes = np.zeros((x.shape[0], doc["n_classes"]))
    margin = np.full(x.shape[0], np.inf)
    for pair in doc["pairs"]:
        sv = np.asarray(pair["sv"]).reshape(-1, x.shape[1])
        coef = np.asarray(pair["coef"])
        d2 = ((xs[:, None, :] - sv[None, :, :]) ** 2).sum(axis=2)
        g = np.exp(-gamma * d2) @ coef + pair["bias"]
        votes[g >= 0, pair["class_pos"]] += 1
        votes[g < 0, pair["class_neg"]] += 1
        margin = np.minimum(margin, np.abs(g))
    total = votes.sum(axis=1, keepdims=True)
    return votes / np.where(total == 0, 1, total), margin


def read_weights(stem):
    """(manifest, {layer name: float64 array}) of a saved network."""
    man = json.loads(Path(f"{stem}.json").read_text())
    raw = Path(f"{stem}.bin").read_bytes()
    params, at = {}, 0
    for layer in man["layers"]:
        n = int(np.prod(layer["shape"]))
        params[layer["name"]] = np.frombuffer(
            raw, dtype="<f8", count=n, offset=at).reshape(layer["shape"])
        at += 8 * n
    if at != len(raw):
        raise ValueError(f"{stem}: blob size does not match the manifest")
    return man, params


def _conv(x, p, name, dilation=1):
    """Direct convolution: a sum of shifted slices of the padded input."""
    w, b = p[f"{name}.w"], p[f"{name}.b"]
    if w.shape[2] == 1:
        return np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x) \
            + b[None, :, None, None]
    d = dilation
    h, wd = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (d, d), (d, d)), mode="reflect")
    y = np.zeros((x.shape[0], w.shape[0], h, wd))
    for u in range(3):
        for v in range(3):
            y += np.einsum("oc,nchw->nohw", w[:, :, u, v],
                           xp[:, :, u * d:u * d + h, v * d:v * d + wd])
    return y + b[None, :, None, None]


def _relu(x):
    return np.maximum(x, 0.0)


def _pool(x):
    """2x2 max pool; the winner is the first maximum in row-major order."""
    best = x[:, :, 0::2, 0::2]
    where = np.zeros(best.shape, dtype=np.int64)
    for k, (dr, dc) in enumerate(((0, 1), (1, 0), (1, 1)), start=1):
        cand = x[:, :, dr::2, dc::2]
        wins = cand > best
        best = np.where(wins, cand, best)
        where = np.where(wins, k, where)
    return best, where


def _unpool(x, where):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w))
    for k, (dr, dc) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        out[:, :, dr::2, dc::2] = np.where(where == k, x, 0.0)
    return out


def _up(x, factor):
    return x.repeat(factor, axis=2).repeat(factor, axis=3)


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def net_forward(man: dict, p: dict, x: np.ndarray) -> np.ndarray:
    """Reference softmax forward of segnet_mini, unet_mini or psp_mini."""
    x = (x - np.asarray(man["band_mean"])[None, :, None, None]) \
        / np.asarray(man["band_std"])[None, :, None, None]
    arch = man["arch"]
    if arch == "segnet_mini":
        p1, i1 = _pool(_relu(_conv(x, p, "enc1")))
        p2, i2 = _pool(_relu(_conv(p1, p, "enc2")))
        b1 = _relu(_conv(_unpool(p2, i2), p, "dec1"))
        top = _relu(_conv(_unpool(b1, i1), p, "dec2"))
    elif arch == "unet_mini":
        s1 = _relu(_conv(x, p, "enc1"))
        s2 = _relu(_conv(_pool(s1)[0], p, "enc2"))
        bt = _relu(_conv(_pool(s2)[0], p, "bott"))
        a1 = _relu(_conv(np.concatenate([s2, _up(bt, 2)], axis=1), p, "dec1"))
        top = _relu(_conv(np.concatenate([s1, _up(a1, 2)], axis=1), p, "dec2"))
    elif arch == "psp_mini":
        a2 = _relu(_conv(_relu(_conv(x, p, "conv1")), p, "conv2", dilation=2))
        h = a2.shape[2]
        parts = [a2]
        for bins in (1, 2, 4):
            n, c = a2.shape[:2]
            pooled = a2.reshape(n, c, bins, h // bins, bins, h // bins) \
                .mean(axis=(3, 5))
            parts.append(_up(_conv(pooled, p, f"pyramid.bin{bins}"),
                             h // bins))
        top = np.concatenate(parts, axis=1)
    else:
        raise ValueError(f"unknown arch {arch!r}")
    return _softmax(_conv(top, p, "head"))


def owner_span(anchors: list, patch: int, dim: int, a: int) -> tuple:
    """Pixels [start, end) along one axis owned by the tile at anchor a.

    A pixel belongs to the tile whose center is nearest to the pixel's
    center; a tie goes to the later tile.
    """
    centers = np.asarray(sorted(set(anchors))) + patch / 2.0
    pix = np.arange(dim) + 0.5
    dist = np.abs(pix[:, None] - centers[None, :])
    # argmin over reversed centers picks the later tile on a tie
    owner = len(centers) - 1 - np.argmin(dist[:, ::-1], axis=1)
    mine = np.flatnonzero(owner == list(centers).index(a + patch / 2.0))
    return int(mine[0]), int(mine[-1]) + 1


# ------------------------------------------------------------------ checks

class Checker:
    """Runs every check on a round's outputs; collects failures by name."""

    def __init__(self, work: Path, w, seed: int):
        self.work = Path(work)
        self.w = w
        self.rng = np.random.default_rng(seed)
        self.failures = []
        self.oa = {}

    def fail(self, check: str, detail: str):
        self.failures.append(f"{check}: {detail}")

    def path(self, rel: str) -> Path:
        return self.work / rel

    def run(self) -> list:
        w = self.w
        self.stack, self.valid = read_raster(self.path(w.stack))
        self.truth = read_labels(self.path(w.truth))
        probs = {}
        for m in w.models:
            probs[m.name] = self.check_map(m.name, m.pred)
        merged = self.check_map("merged", w.merged)
        self.check_ensemble(merged, list(probs.values()))
        for m in w.models:
            getattr(self, f"check_{m.kind}")(m, probs[m.name])
        return self.failures

    def check_map(self, name: str, prefix: str) -> np.ndarray:
        probs, pmask = read_raster(self.path(f"{prefix}_probs"))
        labels = read_labels(self.path(f"{prefix}_labels"))
        valid = self.valid
        if not np.array_equal(pmask, valid):
            self.fail("nodata", f"{name}: probability mask differs from "
                      "the preprocessed stack's valid mask")
        if not np.array_equal(labels == NODATA, ~valid):
            bad = int(((labels == NODATA) != ~valid).sum())
            self.fail("nodata", f"{name}: label 255 on {bad} pixels where "
                      "the stack's validity says otherwise")
        p = probs.astype(np.float64)[:, valid]
        err = np.abs(p.sum(axis=0) - 1.0)
        if err.size and err.max() > F32_TOL:
            self.fail("prob_sum", f"{name}: per-pixel sum off by "
                      f"{err.max():.3g} on {int((err > F32_TOL).sum())} pixels")
        top2 = np.sort(p, axis=0)[-2:]
        clear = top2[1] - top2[0] > F32_TOL
        lab = labels[valid].astype(np.int64)
        wrong = clear & (lab != np.argmax(p, axis=0))
        if wrong.any():
            self.fail("argmax", f"{name}: label is not the argmax of its "
                      f"probabilities on {int(wrong.sum())} pixels")
        self.check_report(name, prefix, labels)
        return probs

    def check_report(self, name: str, prefix: str, labels: np.ndarray):
        oa, n, majority = overall_accuracy(labels, self.truth)
        self.oa[name] = oa
        rep = json.loads(self.path(self.w.reports[prefix]).read_text())
        if abs(rep["overall_accuracy"] - oa) > 1e-12 or rep["total"] != n:
            self.fail("oa", f"{name}: report OA {rep['overall_accuracy']} "
                      f"over {rep['total']} px, recomputed {oa} over {n} px")
        if not oa > majority:
            self.fail("oa_majority", f"{name}: OA {oa:.4f} does not beat "
                      f"the majority-class share {majority:.4f}")

    def check_ensemble(self, merged: np.ndarray, inputs: list):
        mean = np.mean([m.astype(np.float64) for m in inputs], axis=0)
        mean /= mean.sum(axis=0, keepdims=True)
        err = np.abs(merged[:, self.valid] - mean[:, self.valid])
        if err.max() > F32_TOL:
            self.fail("ensemble", "merged probabilities differ from the "
                      f"renormalized mean by up to {err.max():.3g}")

    def _sample_pixels(self, n: int) -> np.ndarray:
        rows, cols = np.nonzero(self.valid)
        pick = self.rng.choice(rows.size, size=min(n, rows.size),
                               replace=False)
        return rows[pick], cols[pick]

    def _pixel_rows(self, r, c) -> np.ndarray:
        return self.stack[:, r, c].T.astype(np.float64)

    def check_rf(self, m, probs):
        doc = json.loads(self.path(m.files[0]).read_text())["model"]
        r, c = self._sample_pixels(RF_PIXELS)
        want = rf_votes(doc, self._pixel_rows(r, c))
        err = np.abs(probs[:, r, c].T - want)
        if err.max() > F32_TOL:
            self.fail("rf_votes", f"{m.name}: vote fractions differ from a "
                      f"walk of the saved trees by up to {err.max():.3g}")

    def check_svm(self, m, probs):
        doc = json.loads(self.path(m.files[0]).read_text())["model"]
        r, c = self._sample_pixels(SVM_PIXELS)
        want, margin = svm_votes(doc, self._pixel_rows(r, c))
        clear = margin > 1e-6
        err = np.abs(probs[:, r, c].T - want)[clear]
        if not clear.any() or err.max() > F32_TOL:
            self.fail("svm_votes", f"{m.name}: vote fractions differ from an "
                      "RBF one-vs-one vote")

    def check_net(self, m, probs):
        man, params = read_weights(self.path(m.files[0][:-len(".json")]))
        plan = json.loads(self.path(self.w.plan).read_text())["plan"]
        p, anchors = plan["patch"], [tuple(a) for a in plan["anchors"]]
        h, wd = self.valid.shape
        if h < p or wd < p:
            raise ValueError("reference forward needs a scene >= the patch")
        pick = self.rng.choice(len(anchors), size=min(NET_ANCHORS,
                                                      len(anchors)),
                               replace=False)
        worst = 0.0
        for ar, ac in (anchors[i] for i in sorted(pick)):
            x = self.stack[None, :, ar:ar + p, ac:ac + p].astype(np.float64)
            out = net_forward(man, params, x)[0]
            r0, r1 = owner_span([a[0] for a in anchors], p, h, ar)
            c0, c1 = owner_span([a[1] for a in anchors], p, wd, ac)
            got = probs[:, r0:r1, c0:c1]
            want = out[:, r0 - ar:r1 - ar, c0 - ac:c1 - ac]
            worst = max(worst, float(np.abs(got - want).max()))
        if worst > F32_TOL:
            self.fail("net_forward", f"{m.name}: stored probabilities differ "
                      f"from a reference forward by up to {worst:.3g}")
        rows = Path(self.path(m.loss_csv)).read_text().split()[1:]
        first, last = (float(rows[i].split(",")[1]) for i in (0, -1))
        if not last < first:
            self.fail("loss", f"{m.name}: last-epoch train loss {last} is "
                      f"not below the first {first}")


def check_outputs(work: Path, w, seed: int):
    """(failures, OA per map) for the outputs of one round."""
    checker = Checker(work, w, seed)
    failures = checker.run()
    return failures, checker.oa
