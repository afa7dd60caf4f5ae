"""Confusion-matrix accuracy assessment and softmax-average ensembling.

Matrix orientation is fixed: rows are the reference, columns the prediction.
User's accuracy (precision) divides the diagonal by the column total,
producer's accuracy (recall) by the row total, and F1 is their harmonic mean.
All metrics live in [0, 1]; percent forms are presentation-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .raster import ClassLegend, GroundPointSet, LabelRaster, NODATA_ID


@dataclass
class ConfusionMatrix:
    """K x K integer counts; rows = reference class, columns = predicted."""

    counts: np.ndarray

    @classmethod
    def empty(cls, n_classes: int) -> "ConfusionMatrix":
        return cls(counts=np.zeros((n_classes, n_classes), dtype=np.int64))

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(counts=self.counts + other.counts)

    def save_csv(self, path, legend: ClassLegend | None = None):
        names = (
            legend.names if legend is not None
            else [f"class_{i}" for i in range(self.n_classes)]
        )
        lines = ["reference\\predicted," + ",".join(names)]
        for i, name in enumerate(names):
            lines.append(name + "," + ",".join(str(int(v)) for v in self.counts[i]))
        Path(path).write_text("\n".join(lines) + "\n")


def _count(ref: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    """K x K counts of aligned id arrays; nodata pairs skipped, ids checked."""
    keep = (ref != NODATA_ID) & (pred != NODATA_ID)
    ref, pred = ref[keep], pred[keep]
    if ref.size and (min(ref.min(), pred.min()) < 0
                     or max(ref.max(), pred.max()) >= k):
        raise ValueError("class id outside the confusion matrix")
    return np.bincount(ref * k + pred, minlength=k * k).reshape(k, k)


def accumulate(cm: ConfusionMatrix, reference, predicted: LabelRaster) -> ConfusionMatrix:
    """Count (reference, predicted) pairs; nodata on either side is skipped.

    reference may be a LabelRaster of matching geometry or a GroundPointSet.
    """
    if isinstance(reference, GroundPointSet):
        ref = np.asarray([p[2] for p in reference.points], dtype=np.int64)
        rows = np.asarray([p[0] for p in reference.points], dtype=np.int64)
        cols = np.asarray([p[1] for p in reference.points], dtype=np.int64)
        if ref.size and (
            rows.min() < 0 or rows.max() >= predicted.height
            or cols.min() < 0 or cols.max() >= predicted.width
        ):
            raise ValueError("ground point outside prediction raster")
        pred = predicted.labels[rows, cols].astype(np.int64)
    else:
        if (reference.width, reference.height) != (predicted.width, predicted.height):
            raise ValueError("reference/prediction geometry mismatch")
        ref = reference.labels.reshape(-1).astype(np.int64)
        pred = predicted.labels.reshape(-1).astype(np.int64)
    return ConfusionMatrix(counts=cm.counts + _count(ref, pred, cm.n_classes))


def confusion_from(reference, predicted: LabelRaster, n_classes: int) -> ConfusionMatrix:
    return accumulate(ConfusionMatrix.empty(n_classes), reference, predicted)


def confusion_from_arrays(ref: np.ndarray, pred: np.ndarray, n_classes: int) -> ConfusionMatrix:
    """Confusion matrix of two aligned class-id arrays (255 skipped)."""
    ref = np.asarray(ref, dtype=np.int64).reshape(-1)
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    if ref.shape != pred.shape:
        raise ValueError("reference/prediction lengths differ")
    return ConfusionMatrix(counts=_count(ref, pred, n_classes))


def overall_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def f1_score(ua: float, pa: float) -> float:
    if ua + pa == 0:
        return 0.0
    return 2.0 * ua * pa / (ua + pa)


def class_metrics(cm: ConfusionMatrix, c: int):
    """(UA, PA, F1) for class c; empty marginals give 0 with a flag.

    Returns (ua, pa, f1, undefined_flag).
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    col = int(cm.counts[:, c].sum())
    row = int(cm.counts[c, :].sum())
    diag = int(cm.counts[c, c])
    undefined = col == 0 or row == 0
    ua = diag / col if col else 0.0
    pa = diag / row if row else 0.0
    return ua, pa, f1_score(ua, pa), undefined


@dataclass
class MetricsReport:
    """Per-class UA/PA/F1 with reference counts, plus overall accuracy."""

    class_names: list
    counts: list          # reference pixels per class (row totals)
    ua: list
    pa: list
    f1: list
    undefined: list       # classes with an empty marginal
    oa: float
    total: int
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "overall_accuracy": self.oa,
            "total": self.total,
            "classes": [
                {
                    "name": self.class_names[i],
                    "count": self.counts[i],
                    "precision": self.ua[i],
                    "recall": self.pa[i],
                    "f1_score": self.f1[i],
                    "undefined": self.undefined[i],
                }
                for i in range(len(self.class_names))
            ],
            "provenance": self.provenance,
        }

    def save(self, path):
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )


def report(cm: ConfusionMatrix, legend: ClassLegend, provenance: dict | None = None) -> MetricsReport:
    k = legend.n_classes
    if cm.n_classes != k:
        raise ValueError("confusion matrix size does not match legend")
    ua, pa, f1, undef = [], [], [], []
    for c in range(k):
        u, p, f, bad = class_metrics(cm, c)
        ua.append(u)
        pa.append(p)
        f1.append(f)
        undef.append(bad)
    return MetricsReport(
        class_names=list(legend.names),
        counts=[int(v) for v in cm.counts.sum(axis=1)],
        ua=ua, pa=pa, f1=f1, undefined=undef,
        oa=overall_accuracy(cm), total=cm.total,
        provenance=provenance or {},
    )


def render_table(rep: MetricsReport) -> str:
    """Aligned text table: Category / Count / precision / recall / f1-score."""
    name_w = max(len("Category"), max(len(n) for n in rep.class_names))
    head = f"{'Category':<{name_w}}  {'Count':>7}  {'precision':>9}  {'recall':>7}  {'f1-score':>8}"
    lines = [head, "-" * len(head)]
    for i, name in enumerate(rep.class_names):
        lines.append(
            f"{name:<{name_w}}  {rep.counts[i]:>7d}  "
            f"{rep.ua[i]:>9.2f}  {rep.pa[i]:>7.2f}  {rep.f1[i]:>8.2f}"
        )
    lines.append(
        f"{'Overall':<{name_w}}  {rep.total:>7d}  "
        f"{'':>9}  {'':>7}  {rep.oa:>8.2f}"
    )
    return "\n".join(lines)


def ensemble_average(prob_maps) -> np.ndarray:
    """Element-wise mean of per-pixel class distributions.

    prob_maps: list of (K, H, W) arrays whose per-pixel vectors each sum
    to 1. The mean is renormalized per pixel so output vectors sum to 1
    to full float64 precision.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in prob_maps]
    if not maps:
        raise ValueError("need at least one probability map")
    shape = maps[0].shape
    for m in maps:
        if m.shape != shape:
            raise ValueError("probability maps must share geometry and K")
        sums = m.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValueError("input per-pixel vectors must sum to 1")
    mean = np.mean(maps, axis=0)
    mean /= mean.sum(axis=0, keepdims=True)
    return mean


def argmax_labels(probs: np.ndarray) -> LabelRaster:
    """Hard label map from a (K, H, W) probability grid; ties to lowest id."""
    labels = np.argmax(np.asarray(probs), axis=0).astype(np.uint8)
    return LabelRaster(labels.shape[1], labels.shape[0], labels)
