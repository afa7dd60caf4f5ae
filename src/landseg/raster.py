"""Raster / label data model, class legend and bit-exact file I/O.

Rasters are stored as a JSON sidecar (<stem>.json) plus a raw binary body
(<stem>.bin): band-sequential, row-major, little-endian float32, followed by
one validity byte per pixel (1 = valid). Label maps use the same container
with dtype "u8", no mask bytes, and 255 as the nodata code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsondoc import (
    Checked, JsonDoc, at_least, band_list, check_keys, doc_field, list_of,
    one_of, read_json,
)

NODATA_ID = 255

# 7 default classes; synthetic scenes use the first 6 by default.
DEFAULT_CLASS_NAMES = [
    "Tree cover",
    "Shrubland",
    "Grassland",
    "Cropland",
    "Artificial surface",
    "Water body",
    "Wetland",
]

DEFAULT_CLASS_COLORS = [
    (34, 110, 52),
    (142, 160, 66),
    (182, 216, 120),
    (230, 200, 96),
    (200, 70, 70),
    (64, 110, 196),
    (110, 180, 200),
]


@dataclass(frozen=True)
class LegendClass(JsonDoc):
    """One legend entry: class id, name and rgb display color."""

    id: int
    name: str
    color: tuple = doc_field(list_of(into=tuple))


@dataclass(frozen=True)
class ClassLegend(JsonDoc):
    """Ordered class table, one LegendClass per class id."""

    partial = True  # a legend document may leave out nodata_id

    classes: tuple = doc_field(list_of(LegendClass.from_json, into=tuple))
    nodata_id: int = doc_field(check=one_of(NODATA_ID), default=NODATA_ID)

    def __post_init__(self):
        super().__post_init__()
        ids = [c.id for c in self.classes]
        if ids != list(range(len(ids))):
            raise ValueError("class ids must be contiguous 0..K-1")
        if len(set(self.names)) != len(ids):
            raise ValueError("class names must be unique")
        if self.nodata_id in ids:
            raise ValueError("nodata id may not appear among class entries")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def names(self) -> list:
        return [c.name for c in self.classes]


def default_legend(n_classes: int = 7) -> ClassLegend:
    """Legend over the first n_classes default class names."""
    if not 1 <= n_classes <= len(DEFAULT_CLASS_NAMES):
        raise ValueError(f"n_classes must be 1..{len(DEFAULT_CLASS_NAMES)}")
    return ClassLegend(classes=tuple(
        LegendClass(i, DEFAULT_CLASS_NAMES[i], DEFAULT_CLASS_COLORS[i])
        for i in range(n_classes)
    ))


# Canonical band order for the stacked training input.
STACK_BANDS = ["blue", "green", "red", "red_edge", "nir", "dem", "slope"]
SPECTRAL_BANDS = STACK_BANDS[:5]


@dataclass
class Raster(Checked):
    """Multi-band grid of float32 measurements with a per-pixel validity mask.

    data has shape (n_bands, height, width); valid_mask (height, width) with
    False marking nodata. Masked cells are excluded from all statistics.
    """

    width: int = doc_field(check=at_least(1))
    height: int = doc_field(check=at_least(1))
    bands: list
    data: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self.valid_mask = np.ascontiguousarray(self.valid_mask, dtype=bool)
        if len(set(self.bands)) != len(self.bands):
            raise ValueError("band names must be unique")
        if self.data.shape != (len(self.bands), self.height, self.width):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"({len(self.bands)}, {self.height}, {self.width})"
            )
        if self.valid_mask.shape != (self.height, self.width):
            raise ValueError("valid_mask shape must be (height, width)")

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    def band(self, name: str) -> np.ndarray:
        return self.data[self.bands.index(name)]

    def select(self, names) -> "Raster":
        """New raster holding the named bands (mask shared by copy)."""
        idx = [self.bands.index(n) for n in names]
        return Raster(self.width, self.height, list(names),
                      self.data[idx].copy(), self.valid_mask.copy())

    def copy(self) -> "Raster":
        return Raster(self.width, self.height, list(self.bands),
                      self.data.copy(), self.valid_mask.copy())


@dataclass
class LabelRaster(Checked):
    """Single-band class-id grid; 255 marks nodata."""

    width: int = doc_field(check=at_least(1))
    height: int = doc_field(check=at_least(1))
    labels: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.labels.shape != (self.height, self.width):
            raise ValueError("labels shape must be (height, width)")

    def valid(self) -> np.ndarray:
        return self.labels != NODATA_ID

    def copy(self) -> "LabelRaster":
        return LabelRaster(self.width, self.height, self.labels.copy())


@dataclass
class GroundPointSet:
    """Sparse evaluation points: (row, col, class_id) triples."""

    points: list

    def validate(self, width: int, height: int, legend: ClassLegend):
        for row, col, cid in self.points:
            if not (0 <= row < height and 0 <= col < width):
                raise ValueError(f"point ({row}, {col}) out of bounds")
            if not 0 <= cid < legend.n_classes:
                raise ValueError(f"point class id {cid} not in legend")

    def save(self, path):
        lines = ["row,col,class_id"]
        lines += [f"{r},{c},{cid}" for r, c, cid in self.points]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "GroundPointSet":
        text = Path(path).read_text().rstrip().splitlines()
        if not text or text[0].replace(" ", "") != "row,col,class_id":
            raise ValueError("point file must start with header row,col,class_id")
        points = []
        for n, line in enumerate(text[1:], start=2):
            try:
                r, c, cid = (int(v) for v in line.split(","))
            except ValueError as exc:
                raise ValueError(f"{path} line {n}: {exc}") from None
            points.append((r, c, cid))
        return cls(points=points)


def write_container(path_stem, header: dict, body: bytes) -> None:
    """Write <stem>.json (header at indent=2) and <stem>.bin (raw body)."""
    Path(str(path_stem) + ".json").write_text(json.dumps(header, indent=2) + "\n")
    Path(str(path_stem) + ".bin").write_bytes(body)


def read_container(path_stem, body_size, decode=None) -> tuple:
    """Inverse of write_container: (header, body bytes). The header is
    decode(header dict) if decode is given; body_size(header) checks it and
    returns the body length it implies. Errors of either name <stem>.json."""
    def checked(header):
        if not isinstance(header, dict):
            raise ValueError(f"expected a JSON object, "
                             f"got {type(header).__name__}")
        if decode is not None:
            header = decode(header)
        return header, body_size(header)

    header, expected = read_json(f"{path_stem}.json", checked)
    body = Path(str(path_stem) + ".bin").read_bytes()
    if len(body) != expected:
        raise ValueError(
            f"{path_stem}.bin: blob size {len(body)} does not match "
            f"header-implied {expected}"
        )
    return header, body


def _n_pixels(sidecar: dict, dtype: str, **rules) -> int:
    """width * height, once the sidecar's dtype, byte order, width and
    height, and the keys of rules, each pass their rule; a ValueError
    names the first key that does not."""
    check_keys(sidecar, "sidecar", dict(
        dtype=one_of(dtype), byte_order=one_of("little"), **rules,
        width=at_least(1), height=at_least(1)))
    return sidecar["width"] * sidecar["height"]


def _raster_body_size(sidecar: dict) -> int:
    n_pix = _n_pixels(sidecar, "f32", bands=band_list)
    return len(sidecar["bands"]) * n_pix * 4 + n_pix


def _labels_body_size(sidecar: dict) -> int:
    return _n_pixels(sidecar, "u8")


def write_raster(r: Raster, path_stem) -> None:
    """Write sidecar + body; read_raster(write_raster(r)) is bit-exact."""
    sidecar = {
        "width": r.width,
        "height": r.height,
        "bands": list(r.bands),
        "dtype": "f32",
        "byte_order": "little",
    }
    body = r.data.astype("<f4", copy=False).tobytes()
    body += r.valid_mask.astype(np.uint8).tobytes()
    write_container(path_stem, sidecar, body)


def read_raster(path_stem) -> Raster:
    """Inverse of write_raster; rejects truncated or oversized bodies and
    NaN or infinite values at valid pixels (nodata pixels are not checked)."""
    sidecar, raw = read_container(path_stem, _raster_body_size)
    width, height = sidecar["width"], sidecar["height"]
    bands = list(sidecar["bands"])
    n_data = len(bands) * width * height * 4
    data = np.frombuffer(raw[:n_data], dtype="<f4").reshape(len(bands), height, width)
    mask = np.frombuffer(raw[n_data:], dtype=np.uint8).reshape(height, width) != 0
    if not np.isfinite(data).all():
        bad = np.argwhere(~np.isfinite(data) & mask)
        if bad.size:
            b, row, col = (int(i) for i in bad[0])
            raise ValueError(
                f"{path_stem}.bin: non-finite value {data[b, row, col]} in "
                f"band {b} ({bands[b]!r}) at valid pixel (row {row}, col {col})")
    return Raster(width, height, bands, data.copy(), mask)


def write_labels(l: LabelRaster, path_stem) -> None:
    sidecar = {
        "width": l.width,
        "height": l.height,
        "bands": ["labels"],
        "dtype": "u8",
        "byte_order": "little",
    }
    write_container(path_stem, sidecar, l.labels.tobytes())


def read_labels(path_stem, legend: ClassLegend | None = None) -> LabelRaster:
    """Inverse of write_labels; with a legend, rejects out-of-legend ids."""
    sidecar, raw = read_container(path_stem, _labels_body_size)
    width, height = sidecar["width"], sidecar["height"]
    labels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width).copy()
    if legend is not None:
        bad = labels[(labels != NODATA_ID) & (labels >= legend.n_classes)]
        if bad.size:
            raise ValueError(f"{path_stem}.bin: illegal class id "
                             f"{int(bad[0])}, not in the legend's "
                             f"{legend.n_classes} classes")
    return LabelRaster(width, height, labels)
