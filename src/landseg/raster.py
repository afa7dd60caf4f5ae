"""Raster / label data model, class legend and bit-exact file I/O.

Rasters are stored as a JSON sidecar (<stem>.json) plus a raw binary body
(<stem>.bin): band-sequential, row-major, little-endian float32, followed by
one validity byte per pixel (1 = valid). Label maps use the same container
with dtype "u8", no mask bytes, and 255 as the nodata code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
class ClassLegend:
    """Ordered class table: (class_id, name, rgb display color) per entry."""

    entries: tuple
    nodata_id: int = NODATA_ID

    def __post_init__(self):
        ids = [e[0] for e in self.entries]
        names = [e[1] for e in self.entries]
        if ids != list(range(len(ids))):
            raise ValueError("class ids must be contiguous 0..K-1")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        if self.nodata_id != NODATA_ID:
            raise ValueError("nodata id is fixed at 255")
        if self.nodata_id in ids:
            raise ValueError("nodata id may not appear among class entries")

    @property
    def n_classes(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list:
        return [e[1] for e in self.entries]

    def name_of(self, class_id: int) -> str:
        if class_id == self.nodata_id:
            return "nodata"
        return self.entries[class_id][1]

    def to_json(self) -> dict:
        return {
            "classes": [
                {"id": cid, "name": name, "color": list(color)}
                for cid, name, color in self.entries
            ],
            "nodata_id": self.nodata_id,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ClassLegend":
        entries = tuple(
            (c["id"], c["name"], tuple(c["color"])) for c in doc["classes"]
        )
        return cls(entries=entries, nodata_id=doc.get("nodata_id", NODATA_ID))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "ClassLegend":
        return cls.from_json(json.loads(Path(path).read_text()))


def default_legend(n_classes: int = 7) -> ClassLegend:
    """Legend over the first n_classes default class names."""
    if not 1 <= n_classes <= len(DEFAULT_CLASS_NAMES):
        raise ValueError(f"n_classes must be 1..{len(DEFAULT_CLASS_NAMES)}")
    entries = tuple(
        (i, DEFAULT_CLASS_NAMES[i], DEFAULT_CLASS_COLORS[i])
        for i in range(n_classes)
    )
    return ClassLegend(entries=entries)


# Canonical band order for the stacked training input.
STACK_BANDS = ["blue", "green", "red", "red_edge", "nir", "dem", "slope"]
SPECTRAL_BANDS = STACK_BANDS[:5]


@dataclass
class Raster:
    """Multi-band grid of float32 measurements with a per-pixel validity mask.

    data has shape (n_bands, height, width); valid_mask (height, width) with
    False marking nodata. Masked cells are excluded from all statistics.
    """

    width: int
    height: int
    bands: list
    data: np.ndarray
    valid_mask: np.ndarray
    origin: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self.valid_mask = np.ascontiguousarray(self.valid_mask, dtype=bool)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("raster dims must be positive")
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
        return Raster(
            self.width, self.height, list(names),
            self.data[idx].copy(), self.valid_mask.copy(), dict(self.origin),
        )

    def copy(self) -> "Raster":
        return Raster(
            self.width, self.height, list(self.bands),
            self.data.copy(), self.valid_mask.copy(), dict(self.origin),
        )


@dataclass
class LabelRaster:
    """Single-band class-id grid; 255 marks nodata."""

    width: int
    height: int
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("label raster dims must be positive")
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
        text = Path(path).read_text().strip().splitlines()
        if not text or text[0].replace(" ", "") != "row,col,class_id":
            raise ValueError("point file must start with header row,col,class_id")
        points = []
        for line in text[1:]:
            r, c, cid = (int(v) for v in line.split(","))
            points.append((r, c, cid))
        return cls(points=points)


def write_container(path_stem, header: dict, body: bytes) -> None:
    """Write <stem>.json (header at indent=2) and <stem>.bin (raw body)."""
    Path(str(path_stem) + ".json").write_text(json.dumps(header, indent=2) + "\n")
    Path(str(path_stem) + ".bin").write_bytes(body)


def read_container(path_stem, body_size) -> tuple:
    """Inverse of write_container: (header, body bytes). body_size(header)
    checks the header and returns the body length it implies."""
    header = json.loads(Path(str(path_stem) + ".json").read_text())
    if not isinstance(header, dict):
        raise ValueError(f"{path_stem}.json: expected a JSON object, "
                         f"got {type(header).__name__}")
    expected = body_size(header)
    body = Path(str(path_stem) + ".bin").read_bytes()
    if len(body) != expected:
        raise ValueError(
            f"{path_stem}.bin: blob size {len(body)} does not match "
            f"header-implied {expected}"
        )
    return header, body


def _raster_body_size(sidecar: dict) -> int:
    if sidecar.get("dtype") != "f32":
        raise ValueError(f"expected dtype f32, got {sidecar.get('dtype')}")
    n_pix = sidecar["width"] * sidecar["height"]
    return len(sidecar["bands"]) * n_pix * 4 + n_pix


def _labels_body_size(sidecar: dict) -> int:
    if sidecar.get("dtype") != "u8":
        raise ValueError(f"expected dtype u8, got {sidecar.get('dtype')}")
    return sidecar["width"] * sidecar["height"]


def write_raster(r: Raster, path_stem) -> None:
    """Write sidecar + body; read_raster(write_raster(r)) is bit-exact."""
    sidecar = {
        "width": r.width,
        "height": r.height,
        "bands": list(r.bands),
        "dtype": "f32",
        "byte_order": "little",
    }
    if r.origin:
        sidecar["origin"] = r.origin
    body = r.data.astype("<f4", copy=False).tobytes()
    body += r.valid_mask.astype(np.uint8).tobytes()
    write_container(path_stem, sidecar, body)


def read_raster(path_stem) -> Raster:
    """Inverse of write_raster; rejects truncated or oversized bodies."""
    sidecar, raw = read_container(path_stem, _raster_body_size)
    width, height = sidecar["width"], sidecar["height"]
    bands = list(sidecar["bands"])
    n_data = len(bands) * width * height * 4
    data = np.frombuffer(raw[:n_data], dtype="<f4").reshape(len(bands), height, width)
    mask = np.frombuffer(raw[n_data:], dtype=np.uint8).reshape(height, width) != 0
    return Raster(
        width, height, bands, data.copy(), mask,
        origin=sidecar.get("origin", {}),
    )


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
            raise ValueError(f"illegal class id {int(bad[0])} in label body")
    return LabelRaster(width, height, labels)
