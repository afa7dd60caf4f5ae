"""Sliding-window tiling, deterministic splits and seam-free stitching.

Tiles overlap (default stride = patch/2). At stitch time every output pixel
is owned by exactly one tile: ownership boundaries sit midway between the
centers of consecutive tiles, which for the default stride is exactly each
interior tile's central (patch/2)^2 window; edge tiles extend to the image
border and midpoint ties go to the later (larger-anchor) tile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .raster import LabelRaster, NODATA_ID, Raster


def _reflect_pad_axis(arr: np.ndarray, extra: int, axis: int) -> np.ndarray:
    """np.pad reflect caps at dim-1 per call; iterate for large paddings."""
    while extra > 0:
        if arr.shape[axis] == 1:
            width = [(0, 0)] * arr.ndim
            width[axis] = (0, extra)
            return np.pad(arr, width, mode="edge")
        step = min(extra, arr.shape[axis] - 1)
        width = [(0, 0)] * arr.ndim
        width[axis] = (0, step)
        arr = np.pad(arr, width, mode="reflect")
        extra -= step
    return arr


def reflect_pad_to(arr: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Reflect-pad the trailing two axes up to (target_h, target_w)."""
    arr = _reflect_pad_axis(arr, max(0, target_h - arr.shape[-2]), arr.ndim - 2)
    arr = _reflect_pad_axis(arr, max(0, target_w - arr.shape[-1]), arr.ndim - 1)
    return arr


@dataclass
class TilePlan:
    """Deterministic enumeration of patch anchors over an image."""

    patch: int
    stride: int
    width: int
    height: int
    anchors: list  # (row, col) top-left corners, row-major

    @property
    def padded_width(self) -> int:
        return max(self.width, self.patch)

    @property
    def padded_height(self) -> int:
        return max(self.height, self.patch)

    def to_json(self) -> dict:
        return {
            "patch": self.patch,
            "stride": self.stride,
            "width": self.width,
            "height": self.height,
            "anchors": [list(a) for a in self.anchors],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TilePlan":
        return cls(
            patch=doc["patch"],
            stride=doc["stride"],
            width=doc["width"],
            height=doc["height"],
            anchors=[tuple(a) for a in doc["anchors"]],
        )

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "TilePlan":
        return cls.from_json(json.loads(Path(path).read_text()))


def _axis_anchors(dim: int, patch: int, stride: int) -> list:
    last = dim - patch
    anchors = list(range(0, last + 1, stride))
    if anchors[-1] != last:
        anchors.append(last)
    return anchors


def plan_tiles(width: int, height: int, patch: int = 256, stride: int | None = None) -> TilePlan:
    """Anchor grid k*stride per axis, plus a clamped final anchor.

    Images smaller than the patch are reflect-padded up to it at extraction
    time; the plan records the true image dims.
    """
    if width <= 0 or height <= 0:
        raise ValueError("image dims must be positive")
    if stride is None:
        stride = patch // 2
    if not 1 <= stride <= patch:
        raise ValueError("stride must be in 1..patch")
    rows = _axis_anchors(max(height, patch), patch, stride)
    cols = _axis_anchors(max(width, patch), patch, stride)
    anchors = [(r, c) for r in rows for c in cols]
    return TilePlan(patch=patch, stride=stride, width=width, height=height, anchors=anchors)


@dataclass
class Tile:
    """One training sample: raster patch, label patch, validity patch."""

    anchor: tuple
    x: np.ndarray      # (bands, patch, patch) float32
    y: np.ndarray      # (patch, patch) uint8 class ids / 255
    mask: np.ndarray   # (patch, patch) bool raster validity


@dataclass
class SampleSet:
    """Extracted tiles plus (after splitting) train/val/test tags."""

    tiles: list
    band_names: list
    seed: int | None = None
    split_tags: list | None = None
    dropped: int = 0

    def subset(self, tag: str) -> list:
        if self.split_tags is None:
            raise ValueError("sample set has not been split")
        return [t for t, s in zip(self.tiles, self.split_tags) if s == tag]


def extract_tiles(r: Raster, l: LabelRaster, plan: TilePlan) -> SampleSet:
    """Cut (raster, label) patches at the plan's anchors.

    Tiles whose label patch is entirely nodata are dropped and counted.
    """
    if (r.width, r.height) != (plan.width, plan.height):
        raise ValueError("raster geometry does not match plan")
    if (l.width, l.height) != (plan.width, plan.height):
        raise ValueError("label geometry does not match plan")
    ph, pw = plan.padded_height, plan.padded_width
    data = reflect_pad_to(r.data, ph, pw)
    mask = reflect_pad_to(r.valid_mask, ph, pw)
    labels = reflect_pad_to(l.labels, ph, pw)

    p = plan.patch
    tiles, dropped = [], 0
    for (ar, ac) in plan.anchors:
        y = labels[ar:ar + p, ac:ac + p]
        if not (y != NODATA_ID).any():
            dropped += 1
            continue
        tiles.append(Tile(
            anchor=(ar, ac),
            x=data[:, ar:ar + p, ac:ac + p].copy(),
            y=y.copy(),
            mask=mask[ar:ar + p, ac:ac + p].copy(),
        ))
    return SampleSet(tiles=tiles, band_names=list(r.bands), dropped=dropped)


SPLIT_FRACTIONS = (("train", 0.6), ("val", 0.2), ("test", 0.2))


def split_counts(n: int) -> dict:
    """60/20/20 by largest remainder; ties favor earlier split order."""
    quotas = [(tag, n * frac) for tag, frac in SPLIT_FRACTIONS]
    counts = {tag: int(np.floor(q)) for tag, q in quotas}
    remaining = n - sum(counts.values())
    by_frac = sorted(
        range(len(quotas)),
        key=lambda i: (-(quotas[i][1] - np.floor(quotas[i][1])), i),
    )
    for i in by_frac[:remaining]:
        counts[quotas[i][0]] += 1
    return counts


def split_samples(s: SampleSet, seed: int) -> SampleSet:
    """Deterministic shuffled 60/20/20 assignment; same seed, same tags."""
    n = len(s.tiles)
    if n < 5:
        raise ValueError(f"need at least 5 tiles to split, got {n}")
    counts = split_counts(n)
    perm = np.random.default_rng(seed).permutation(n)
    tags = [""] * n
    pos = 0
    for tag, _ in SPLIT_FRACTIONS:
        for i in perm[pos:pos + counts[tag]]:
            tags[i] = tag
        pos += counts[tag]
    return SampleSet(
        tiles=s.tiles, band_names=s.band_names, seed=seed,
        split_tags=tags, dropped=s.dropped,
    )


def _axis_ownership(anchors: list, patch: int, dim: int) -> list:
    """Half-open [start, end) ownership intervals per anchor along one axis."""
    starts = [0]
    for a, b in zip(anchors[:-1], anchors[1:]):
        starts.append((a + b + patch) // 2)
    ends = starts[1:] + [dim]
    return list(zip(starts, ends))


def stitch_center(predictions, plan: TilePlan):
    """Assemble per-tile probability patches into one seam-free map.

    predictions: iterable of (anchor, probs) with probs shaped
    (patch, patch, K). Returns (LabelRaster, probs (K, height, width) f64);
    the label is the owning tile's argmax with ties to the lowest class id.
    """
    by_anchor = {}
    for anchor, probs in predictions:
        by_anchor[tuple(anchor)] = np.asarray(probs, dtype=np.float64)
    p = plan.patch
    k = None
    for anchor in plan.anchors:
        if anchor not in by_anchor:
            raise ValueError(f"missing prediction for anchor {anchor}")
        probs = by_anchor[anchor]
        if probs.shape[:2] != (p, p) or probs.ndim != 3:
            raise ValueError(
                f"prediction at {anchor} has shape {probs.shape}, "
                f"expected ({p}, {p}, K)"
            )
        if k is None:
            k = probs.shape[2]
        elif probs.shape[2] != k:
            raise ValueError("inconsistent class count across predictions")

    ph, pw = plan.padded_height, plan.padded_width
    rows = sorted({a[0] for a in plan.anchors})
    cols = sorted({a[1] for a in plan.anchors})
    row_own = _axis_ownership(rows, p, ph)
    col_own = _axis_ownership(cols, p, pw)

    out = np.zeros((k, ph, pw), dtype=np.float64)
    for ar, (rs, re) in zip(rows, row_own):
        for ac, (cs, ce) in zip(cols, col_own):
            patch_probs = by_anchor[(ar, ac)]
            block = patch_probs[rs - ar:re - ar, cs - ac:ce - ac]
            out[:, rs:re, cs:ce] = block.transpose(2, 0, 1)

    out = out[:, :plan.height, :plan.width]
    labels = np.argmax(out, axis=0).astype(np.uint8)
    return LabelRaster(plan.width, plan.height, labels), out
