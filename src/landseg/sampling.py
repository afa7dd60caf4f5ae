"""Label-preserving augmentation, class weights and stratified pixel sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import ClassLegend, LabelRaster, NODATA_ID, Raster
from .tiling import Tile

# The four geometric augmentations: clockwise / counter-clockwise quarter
# turns, up-down flip, left-right mirror.
AUGMENT_NAMES = ["rot_cw", "rot_ccw", "flip", "mirror"]


def _transform(arr: np.ndarray, kind: str) -> np.ndarray:
    if kind == "rot_cw":
        return np.rot90(arr, k=-1, axes=(-2, -1)).copy()
    if kind == "rot_ccw":
        return np.rot90(arr, k=1, axes=(-2, -1)).copy()
    if kind == "flip":
        return np.flip(arr, axis=-2).copy()
    if kind == "mirror":
        return np.flip(arr, axis=-1).copy()
    raise ValueError(f"unknown augmentation {kind!r}")


def augment(tile: Tile) -> list:
    """The four augmented copies of a square tile (bands, labels and mask
    transformed identically)."""
    if tile.y.shape[0] != tile.y.shape[1]:
        raise ValueError("augmentation requires square patches")
    out = []
    for kind in AUGMENT_NAMES:
        out.append(Tile(
            anchor=tile.anchor,
            x=_transform(tile.x, kind),
            y=_transform(tile.y, kind),
            mask=_transform(tile.mask, kind),
        ))
    return out


@dataclass
class ClassWeights:
    """Inverse-area class weights, rescaled to mean 1 over present classes."""

    weights: np.ndarray
    present: np.ndarray  # boolean; False marks zero-pixel classes (weight 0)


def class_weights(labels: LabelRaster, legend: ClassLegend) -> ClassWeights:
    """Reciprocal of each class's share of the non-nodata area.

    Absent classes get weight 0 and are flagged; the rest are rescaled so
    their mean is 1.
    """
    k = legend.n_classes
    valid = labels.labels[labels.labels != NODATA_ID]
    if valid.size == 0:
        raise ValueError("label raster is entirely nodata")
    counts = np.bincount(valid.astype(np.int64), minlength=k)[:k]
    present = counts > 0
    p = counts / valid.size
    raw = np.zeros(k, dtype=np.float64)
    raw[present] = 1.0 / p[present]
    raw[present] /= raw[present].mean()
    return ClassWeights(weights=raw, present=present)


@dataclass
class FeatureTable:
    """Per-pixel feature rows with a class id column."""

    x: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64 class ids
    positions: np.ndarray | None = None  # (n, 2) row/col, when sampled

    def __len__(self) -> int:
        return self.x.shape[0]


def stratified_sample(
    r: Raster,
    l: LabelRaster,
    legend: ClassLegend,
    n_per_class: int = 2000,
    seed: int = 0,
) -> FeatureTable:
    """Draw up to n_per_class valid pixels per class without replacement.

    Classes with fewer pixels contribute what they have; entirely absent
    classes contribute zero rows. Deterministic per seed.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if (l.height, l.width) != (r.height, r.width):
        raise ValueError("raster/label geometry mismatch")
    rng = np.random.default_rng(seed)
    usable = r.valid_mask & l.valid()
    rows_x, rows_y, rows_pos = [], [], []
    for cid in range(legend.n_classes):
        pos = np.argwhere(usable & (l.labels == cid))
        if pos.shape[0] == 0:
            continue
        take = min(n_per_class, pos.shape[0])
        chosen = pos[rng.choice(pos.shape[0], size=take, replace=False)]
        rows_x.append(r.data[:, chosen[:, 0], chosen[:, 1]].T.astype(np.float64))
        rows_y.append(np.full(take, cid, dtype=np.int64))
        rows_pos.append(chosen)
    if not rows_x:
        x = np.zeros((0, r.n_bands), dtype=np.float64)
        y = np.zeros(0, dtype=np.int64)
        pos = np.zeros((0, 2), dtype=np.int64)
    else:
        x = np.concatenate(rows_x)
        y = np.concatenate(rows_y)
        pos = np.concatenate(rows_pos)
    return FeatureTable(x=x, y=y, positions=pos)
