"""Sliding-window tiling, deterministic splits and seam-free stitching.

Tiles overlap (default stride = patch/2). At stitch time every output pixel
is owned by exactly one tile: ownership boundaries sit midway between the
centers of consecutive tiles, which for the default stride is exactly each
interior tile's central (patch/2)^2 window; edge tiles extend to the image
border and midpoint ties go to the later (larger-anchor) tile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .jsondoc import JsonDoc, at_least, check_object, doc_field, list_of
from .raster import LabelRaster, NODATA_ID, Raster


def reflect_pad_to(arr: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Reflect-pad the trailing two axes up to (target_h, target_w); arr
    itself when both are already as large. A length-1 axis repeats."""
    extra = (max(0, target_h - arr.shape[-2]), max(0, target_w - arr.shape[-1]))
    if extra == (0, 0):
        return arr
    return np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(0, e) for e in extra],
                  mode="reflect")


def _axis_anchors(dim: int, patch: int, stride: int) -> list:
    last = dim - patch
    anchors = list(range(0, last + 1, stride))
    if anchors[-1] != last:
        anchors.append(last)
    return anchors


@dataclass
class TilePlan(JsonDoc):
    """Patch anchors over an image, per axis k*stride plus a clamped final
    anchor; derived from the other fields, and checked when given. Images
    smaller than the patch are reflect-padded up to it at extraction time;
    the plan records the true image dims."""

    patch: int = doc_field(check=at_least(1))
    stride: int = doc_field(check=at_least(1))
    width: int
    height: int
    # (row, col) top-left corners, row-major
    anchors: list = doc_field(list_of(list_of(into=tuple)), default=None)

    def __post_init__(self):
        super().__post_init__()
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dims must be positive")
        if self.stride > self.patch:
            raise ValueError("'stride' must be at most 'patch'")
        rows = _axis_anchors(self.padded_height, self.patch, self.stride)
        cols = _axis_anchors(self.padded_width, self.patch, self.stride)
        grid = [(r, c) for r in rows for c in cols]
        if self.anchors is not None and self.anchors != grid:
            raise ValueError(
                f"'anchors' are not the {len(grid)} anchors of "
                f"patch {self.patch}, stride {self.stride} over "
                f"{self.width}x{self.height}")
        self.anchors = grid

    @property
    def padded_width(self) -> int:
        return max(self.width, self.patch)

    @property
    def padded_height(self) -> int:
        return max(self.height, self.patch)

    def check_size(self, what: str, width: int, height: int):
        """Raise ValueError unless the plan was made for width x height."""
        if (width, height) != (self.width, self.height):
            raise ValueError(
                f"{what} geometry {width}x{height} does not match the tile "
                f"plan's {self.width}x{self.height}")


def plan_tiles(width: int, height: int, patch: int = 256, stride: int | None = None) -> TilePlan:
    """TilePlan of a width x height image; stride defaults to patch/2."""
    if stride is None:
        stride = patch // 2
    return TilePlan(patch=patch, stride=stride, width=width, height=height)


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


def finite_at_nodata(r: Raster) -> np.ndarray:
    """r.data with each non-finite value at a nodata pixel set to 0, so
    none reaches a network; r.data itself when there is none."""
    invalid = ~r.valid_mask
    at_nodata = r.data[:, invalid]
    if np.isfinite(at_nodata).all():
        return r.data
    data = r.data.copy()
    data[:, invalid] = np.where(np.isfinite(at_nodata), at_nodata, 0)
    return data


def extract_tiles(r: Raster, l: LabelRaster, plan: TilePlan) -> SampleSet:
    """Cut (raster, label) patches at the plan's anchors.

    Tiles whose label patch is entirely nodata are dropped and counted.
    """
    plan.check_size("raster", r.width, r.height)
    plan.check_size("label", l.width, l.height)
    ph, pw = plan.padded_height, plan.padded_width
    data = reflect_pad_to(finite_at_nodata(r), ph, pw)
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
SPLIT_TAGS = tuple(tag for tag, _ in SPLIT_FRACTIONS)


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
    return replace(s, seed=seed, split_tags=tags)


def _split_anchors(doc) -> dict:
    check_object(doc, "splits", SPLIT_TAGS)
    return {tag: list_of(list_of(into=tuple))(anchors)
            for tag, anchors in doc.items()}


@dataclass
class TileSplit(JsonDoc):
    """The tile stage's document: a plan, the seed of its split, the count
    of all-nodata tiles dropped, and per tag (train, val or test) the
    anchors of that split's tiles in tile order."""

    plan: TilePlan = doc_field(TilePlan.from_json)
    seed: int
    dropped: int
    splits: dict = doc_field(_split_anchors)

    def __post_init__(self):
        on_plan, seen = set(self.plan.anchors), set()
        for tag, anchors in self.splits.items():
            for anchor in anchors:
                if anchor in seen or anchor not in on_plan:
                    raise ValueError(
                        f"'splits' {tag!r} anchor {list(anchor)} is "
                        + ("listed twice" if anchor in seen
                           else "not an anchor of the plan"))
                seen.add(anchor)

    @classmethod
    def of(cls, plan: TilePlan, samples: SampleSet) -> "TileSplit":
        return cls(plan=plan, seed=samples.seed, dropped=samples.dropped,
                   splits={tag: [t.anchor for t in samples.subset(tag)]
                           for tag in SPLIT_TAGS})

    def samples(self, r: Raster, l: LabelRaster) -> SampleSet:
        """The plan's tiles of (r, l) by split; a tile in none is a test tile."""
        s = extract_tiles(r, l, self.plan)
        tag_of = {a: tag for tag, anchors in self.splits.items()
                  for a in anchors}
        return replace(s, seed=self.seed, split_tags=[
            tag_of.get(t.anchor, "test") for t in s.tiles])


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
    (patch, patch, K), in any order; each patch's owned window is written
    as it arrives, so none is kept. Returns (LabelRaster, probs (K, height,
    width) f64); the label is the owning tile's argmax with ties to the
    lowest class id.
    """
    p = plan.patch
    rows = sorted({a[0] for a in plan.anchors})
    cols = sorted({a[1] for a in plan.anchors})
    row_own = dict(zip(rows, _axis_ownership(rows, p, plan.padded_height)))
    col_own = dict(zip(cols, _axis_ownership(cols, p, plan.padded_width)))
    # the windows not yet written, in plan order
    owned = {(ar, ac): row_own[ar] + col_own[ac] for ar, ac in plan.anchors}

    out = None
    for anchor, probs in predictions:
        window = owned.pop(tuple(anchor), None)
        if window is None:
            raise ValueError(f"prediction at {anchor} is not an anchor of "
                             "the plan, or repeats one")
        probs = np.asarray(probs)
        if probs.ndim != 3 or probs.shape[:2] != (p, p):
            raise ValueError(
                f"prediction at {anchor} has shape {probs.shape}, "
                f"expected ({p}, {p}, K)"
            )
        if out is None:
            out = np.zeros((probs.shape[2], plan.padded_height,
                            plan.padded_width), dtype=np.float64)
        elif probs.shape[2] != out.shape[0]:
            raise ValueError("inconsistent class count across predictions")
        (ar, ac), (rs, re, cs, ce) = anchor, window
        out[:, rs:re, cs:ce] = probs[rs - ar:re - ar,
                                     cs - ac:ce - ac].transpose(2, 0, 1)
    if owned:
        raise ValueError(f"missing prediction for anchor {next(iter(owned))}")

    out = out[:, :plan.height, :plan.width]
    labels = np.argmax(out, axis=0).astype(np.uint8)
    return LabelRaster(plan.width, plan.height, labels), out
