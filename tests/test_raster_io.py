import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from landseg import (
    ClassLegend,
    GroundPointSet,
    LabelRaster,
    LegendClass,
    Raster,
    default_legend,
    read_labels,
    read_raster,
    write_labels,
    write_raster,
)
from conftest import random_labels, random_raster


def test_single_pixel_body_layout(tmp_path):
    r = Raster(1, 1, ["b0"], np.zeros((1, 1, 1), np.float32),
               np.ones((1, 1), bool))
    write_raster(r, tmp_path / "one")
    body = (tmp_path / "one.bin").read_bytes()
    assert body == b"\x00\x00\x00\x00" + b"\x01"


def test_round_trip_with_masked_pixels(tmp_path, rng):
    r = random_raster(rng, width=3, height=2, n_bands=7)
    r.valid_mask[0, 1] = False
    r.valid_mask[1, 2] = False
    write_raster(r, tmp_path / "r")
    back = read_raster(tmp_path / "r")
    assert back.bands == r.bands
    assert back.data.tobytes() == r.data.tobytes()
    assert np.array_equal(back.valid_mask, r.valid_mask)


def test_body_size_is_exact(tmp_path, rng):
    r = random_raster(rng, width=256, height=256, n_bands=7)
    write_raster(r, tmp_path / "big")
    size = (tmp_path / "big.bin").stat().st_size
    assert size == 256 * 256 * 7 * 4 + 256 * 256


def test_truncated_body_rejected(tmp_path, rng):
    r = random_raster(rng, width=4, height=4)
    write_raster(r, tmp_path / "t")
    body = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(body[:-3])
    with pytest.raises(ValueError, match="size"):
        read_raster(tmp_path / "t")


def test_sidecar_body_mismatch_rejected(tmp_path, rng):
    r = random_raster(rng, width=4, height=4)
    write_raster(r, tmp_path / "m")
    doc = json.loads((tmp_path / "m.json").read_text())
    doc["width"] = 5
    (tmp_path / "m.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="size"):
        read_raster(tmp_path / "m")


def test_random_round_trips_bit_exact(tmp_path, rng):
    for i in range(20):
        w = int(rng.integers(1, 40))
        h = int(rng.integers(1, 40))
        nb = int(rng.integers(1, 8))
        r = random_raster(rng, w, h, nb, masked_frac=0.3)
        write_raster(r, tmp_path / f"rt{i}")
        back = read_raster(tmp_path / f"rt{i}")
        assert back.data.tobytes() == r.data.tobytes()
        assert np.array_equal(back.valid_mask, r.valid_mask)

        l = random_labels(rng, w, h, nodata_frac=0.2)
        write_labels(l, tmp_path / f"lt{i}")
        lback = read_labels(tmp_path / f"lt{i}")
        assert lback.labels.tobytes() == l.labels.tobytes()


def test_all_nodata_labels_body(tmp_path):
    l = LabelRaster(2, 2, np.full((2, 2), 255, np.uint8))
    write_labels(l, tmp_path / "nd")
    assert (tmp_path / "nd.bin").read_bytes() == b"\xff" * 4


def test_illegal_class_id_on_read(tmp_path):
    l = LabelRaster(2, 2, np.full((2, 2), 2, np.uint8))
    write_labels(l, tmp_path / "bad")
    body = bytearray((tmp_path / "bad.bin").read_bytes())
    body[1] = 200
    (tmp_path / "bad.bin").write_bytes(bytes(body))
    with pytest.raises(ValueError, match="illegal class id"):
        read_labels(tmp_path / "bad", legend=default_legend(7))


def test_label_size_mismatch(tmp_path):
    l = LabelRaster(3, 3, np.zeros((3, 3), np.uint8))
    write_labels(l, tmp_path / "s")
    (tmp_path / "s.bin").write_bytes(b"\x00" * 8)
    with pytest.raises(ValueError, match="size"):
        read_labels(tmp_path / "s")


def test_legend_invariants():
    with pytest.raises(ValueError, match="contiguous"):
        ClassLegend(classes=(LegendClass(0, "a", (0, 0, 0)), LegendClass(2, "b", (0, 0, 0))))
    with pytest.raises(ValueError, match="unique"):
        ClassLegend(classes=(LegendClass(0, "a", (0, 0, 0)), LegendClass(1, "a", (0, 0, 0))))
    leg = default_legend(7)
    assert leg.n_classes == 7
    assert leg.nodata_id == 255
    assert all(leg.names)


def test_legend_json_round_trip(tmp_path):
    leg = default_legend(6)
    leg.save(tmp_path / "legend.json")
    back = ClassLegend.load(tmp_path / "legend.json")
    assert back == leg


def test_raster_invariant_violations():
    with pytest.raises(ValueError, match="unique"):
        Raster(2, 2, ["a", "a"], np.zeros((2, 2, 2), np.float32),
               np.ones((2, 2), bool))
    with pytest.raises(ValueError, match="shape"):
        Raster(2, 2, ["a"], np.zeros((1, 3, 2), np.float32),
               np.ones((2, 2), bool))


def test_ground_points_round_trip(tmp_path):
    pts = GroundPointSet(points=[(0, 0, 1), (3, 4, 2)])
    pts.save(tmp_path / "pts.csv")
    back = GroundPointSet.load(tmp_path / "pts.csv")
    assert back.points == pts.points
    back.validate(width=5, height=5, legend=default_legend(6))
    with pytest.raises(ValueError, match="out of bounds"):
        back.validate(width=4, height=4, legend=default_legend(6))


def test_read_raster_names_first_non_finite_valid_pixel(tmp_path):
    data = np.zeros((2, 3, 4), np.float32)
    mask = np.ones((3, 4), bool)
    data[0, 0, 0] = np.nan          # nodata pixels may hold anything
    mask[0, 0] = False
    data[1, 2, 1] = np.inf
    data[1, 1, 3] = np.nan
    write_raster(Raster(4, 3, ["a", "b"], data, mask), tmp_path / "r")
    with pytest.raises(ValueError, match=r"r\.bin: non-finite value nan in "
                       r"band 1 \('b'\) at valid pixel \(row 1, col 3\)"):
        read_raster(tmp_path / "r")
    data[1] = 0.0
    write_raster(Raster(4, 3, ["a", "b"], data, mask), tmp_path / "r")
    assert np.isnan(read_raster(tmp_path / "r").data[0, 0, 0])


@st.composite
def rasters(draw):
    """A raster of any size and band names, with finite float32 values at
    valid pixels and NaN at some nodata pixels."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                          max_size=4, unique=True))
    data = draw(arrays(np.float32, (len(names), h, w),
                       elements=st.floats(width=32, allow_nan=False,
                                          allow_infinity=False)))
    mask = draw(arrays(bool, (h, w)))
    holes = draw(arrays(bool, (h, w))) & ~mask
    data[:, holes] = np.nan
    return Raster(w, h, names, data, mask)


@settings(max_examples=100, deadline=None)
@given(r=rasters(), data=st.data())
def test_raster_round_trip_properties(r, data):
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "r"
        write_raster(r, stem)
        back = read_raster(stem)
        assert (back.width, back.height, back.bands) == (r.width, r.height,
                                                         r.bands)
        assert back.data.tobytes() == r.data.tobytes()  # NaN payloads too
        assert np.array_equal(back.valid_mask, r.valid_mask)
        valid = np.argwhere(r.valid_mask)
        if not valid.size:
            return
        band = data.draw(st.integers(0, r.n_bands - 1))
        row, col = valid[data.draw(st.integers(0, len(valid) - 1))]
        r.data[band, row, col] = np.nan
        write_raster(r, stem)
        with pytest.raises(ValueError, match=re.escape(
                f"band {band} ({r.bands[band]!r}) at valid pixel "
                f"(row {row}, col {col})")):
            read_raster(stem)
