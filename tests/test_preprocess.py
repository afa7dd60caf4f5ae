import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from landseg import (
    Raster,
    apply_cloud_mask,
    histogram_match,
    normalize_to_reference,
    scale_to_u8,
    slope_from_dem,
    stack_bands,
)
from landseg.raster import SPECTRAL_BANDS
from conftest import random_raster


def band_raster(values, name="dem", mask=None):
    values = np.asarray(values, dtype=np.float32)
    h, w = values.shape
    if mask is None:
        mask = np.ones((h, w), bool)
    return Raster(w, h, [name], values[None], mask)


# ---------------------------------------------------------------- scaling

def test_scale_identity_on_full_range():
    vals = np.arange(256, dtype=np.float64).reshape(16, 16)
    out = scale_to_u8(vals)
    assert np.array_equal(out, vals.astype(np.uint8))


def test_scale_endpoints():
    out = scale_to_u8(np.array([[10.0, 20.0]]))
    assert out.tolist() == [[0, 255]]


def test_scale_constant_band():
    out = scale_to_u8(np.full((3, 3), 7.0))
    assert (out == 0).all()


def test_scale_round_half_up():
    # midpoint of [10, 20] lands on 127.5 and must round up
    out = scale_to_u8(np.array([[10.0, 15.0, 20.0]]))
    assert out.tolist() == [[0, 128, 255]]


def test_scale_requires_valid_pixels():
    with pytest.raises(ValueError, match="valid"):
        scale_to_u8(np.zeros((2, 2)), np.zeros((2, 2), bool))


# ------------------------------------------------------ histogram matching

def test_match_self_is_identity(rng):
    band = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    out, hm = histogram_match(band, band)
    assert np.array_equal(out, band)
    occupied = np.unique(band)
    assert np.array_equal(hm.lut[occupied], occupied)


@st.composite
def u8_bands(draw):
    """A u8 band and a mask with at least one valid pixel."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    band = draw(arrays(np.uint8, (h, w)))
    mask = draw(arrays(bool, (h, w)))
    mask.flat[draw(st.integers(0, h * w - 1))] = True
    return band, mask


@settings(max_examples=150, deadline=None)
@given(src=u8_bands(), ref=u8_bands())
def test_match_properties(src, ref):
    (band, mask), (ref_band, ref_mask) = src, ref
    out, hm = histogram_match(band, ref_band, mask, ref_mask)
    assert (np.diff(hm.lut.astype(int)) >= 0).all()
    assert np.array_equal(out[~mask], band[~mask])
    assert np.array_equal(out[mask], hm.lut[band[mask]])
    # a band matched to itself keeps every value it holds
    same, hm = histogram_match(band, band, mask, mask)
    assert np.array_equal(same, band)
    present = np.unique(band[mask])
    assert np.array_equal(hm.lut[present], present)


def test_match_four_pixel_case():
    src = np.array([[0, 0, 1, 2]], dtype=np.uint8)
    ref = np.array([[5, 5, 5, 9]], dtype=np.uint8)
    out, _ = histogram_match(src, ref)
    assert out.tolist() == [[5, 5, 5, 9]]


def test_match_constant_to_constant():
    src = np.full((4, 4), 17, np.uint8)
    ref = np.full((4, 4), 211, np.uint8)
    out, _ = histogram_match(src, ref)
    assert (out == 211).all()


def test_match_masked_pixels_unchanged(rng):
    src = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    ref = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    mask = rng.random((8, 8)) > 0.5
    out, _ = histogram_match(src, ref, source_mask=mask)
    assert np.array_equal(out[~mask], src[~mask])


def test_match_requires_valid_pixels():
    src = np.zeros((2, 2), np.uint8)
    with pytest.raises(ValueError, match="valid"):
        histogram_match(src, src, source_mask=np.zeros((2, 2), bool))


def test_match_idempotent_and_monotone(rng):
    for _ in range(20):
        src = rng.integers(0, 256, size=(24, 24)).astype(np.uint8)
        ref = rng.integers(0, 256, size=(24, 24)).astype(np.uint8)
        once, hm = histogram_match(src, ref)
        twice, _ = histogram_match(once, ref)
        assert np.array_equal(once, twice)
        assert (np.diff(hm.lut.astype(int)) >= 0).all()
        assert hm.source_cdf[-1] == 1.0 and hm.reference_cdf[-1] == 1.0


def test_match_tracks_reference_cdf(rng):
    # at every value the output occupies, its CDF sits within one reference
    # quantization step below the reference CDF
    for _ in range(10):
        src = rng.integers(0, 200, size=(40, 40)).astype(np.uint8)
        ref = rng.integers(30, 256, size=(40, 40)).astype(np.uint8)
        out, hm = histogram_match(src, ref)
        out_cdf = np.cumsum(np.bincount(out.ravel(), minlength=256)) / out.size
        ref_hist = np.bincount(ref.ravel(), minlength=256) / ref.size
        occupied = np.unique(out)
        gap = hm.reference_cdf[occupied] - out_cdf[occupied]
        assert (gap >= -1e-12).all()
        assert gap.max() <= ref_hist.max() + 1e-12


# -------------------------------------------------------------- cloud mask

def test_cloud_all_false_keeps_raster(rng):
    r = random_raster(rng, 4, 4)
    out = apply_cloud_mask(r, np.zeros((4, 4), bool))
    assert np.array_equal(out.valid_mask, r.valid_mask)
    assert np.array_equal(out.data, r.data)


def test_cloud_all_true_clears_everything(rng):
    r = random_raster(rng, 4, 4)
    out = apply_cloud_mask(r, np.ones((4, 4), bool))
    assert out.valid_mask.sum() == 0


def test_cloud_checkerboard():
    r = random_raster(np.random.default_rng(0), 2, 2)
    cloud = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    out = apply_cloud_mask(r, cloud)
    assert out.valid_mask.sum() == 2


def test_cloud_composition_commutes(rng):
    r = random_raster(rng, 8, 8, masked_frac=0.1)
    a = rng.random((8, 8)) > 0.6
    b = rng.random((8, 8)) > 0.6
    ab = apply_cloud_mask(apply_cloud_mask(r, a), b)
    ba = apply_cloud_mask(apply_cloud_mask(r, b), a)
    assert np.array_equal(ab.valid_mask, ba.valid_mask)
    assert ab.valid_mask.sum() <= r.valid_mask.sum()


def test_cloud_geometry_mismatch(rng):
    r = random_raster(rng, 4, 4)
    with pytest.raises(ValueError, match="match"):
        apply_cloud_mask(r, np.zeros((3, 4), bool))


# ------------------------------------------------------------------- slope

def test_slope_constant_dem_is_flat():
    out = slope_from_dem(band_raster(np.full((5, 5), 100.0)), cell_size=10.0)
    assert np.allclose(out.data[0], 0.0)


def test_slope_unit_gradient_plane():
    cell = 7.0
    c = np.arange(6, dtype=np.float64)
    dem = np.tile(c * cell, (6, 1))
    out = slope_from_dem(band_raster(dem), cell_size=cell)
    assert np.allclose(out.data[0][1:-1, 1:-1], 45.0, atol=1e-5)


def test_slope_three_four_plane():
    cell = 2.0
    r, c = np.mgrid[0:8, 0:8]
    dem = 3.0 * c * cell + 4.0 * r * cell
    out = slope_from_dem(band_raster(dem), cell_size=cell)
    expected = np.degrees(np.arctan(5.0))
    assert np.allclose(out.data[0][1:-1, 1:-1], expected, atol=1e-4)


def test_slope_transpose_consistency(rng):
    dem = rng.standard_normal((12, 9)) * 40
    a = slope_from_dem(band_raster(dem), cell_size=5.0)
    b = slope_from_dem(band_raster(dem.T), cell_size=5.0)
    assert np.allclose(a.data[0].T, b.data[0], atol=1e-5)


def test_slope_masks_neighborhoods():
    mask = np.ones((5, 5), bool)
    mask[2, 2] = False
    dem = band_raster(np.arange(25, dtype=np.float64).reshape(5, 5), mask=mask)
    out = slope_from_dem(dem, cell_size=1.0)
    # every pixel whose 3x3 stencil touches (2,2) is nodata
    assert not out.valid_mask[1:4, 1:4].any()
    assert out.valid_mask[0, 0] and out.valid_mask[4, 4]


def test_slope_degenerate_raster():
    with pytest.raises(ValueError, match="3x3"):
        slope_from_dem(band_raster(np.zeros((2, 5))), cell_size=1.0)


# ------------------------------------------------------------------- stack

def spectral_raster(rng, w=4, h=4):
    data = rng.standard_normal((5, h, w)).astype(np.float32)
    return Raster(w, h, list(SPECTRAL_BANDS), data, np.ones((h, w), bool))


def test_stack_projection_identity(rng):
    spec = spectral_raster(rng)
    dem = band_raster(np.zeros((4, 4)), "dem")
    slope = band_raster(np.zeros((4, 4)), "slope")
    out = stack_bands(spec, dem, slope)
    assert out.bands == SPECTRAL_BANDS + ["dem", "slope"]
    assert np.array_equal(out.select(SPECTRAL_BANDS).data, spec.data)


def test_stack_mask_conjunction(rng):
    spec = spectral_raster(rng)
    spec.valid_mask[:] = False
    spec.valid_mask.reshape(-1)[:10] = True
    dem_mask = np.zeros((4, 4), bool)
    dem_mask.reshape(-1)[:8] = True
    slope_mask = np.zeros((4, 4), bool)
    slope_mask.reshape(-1)[:6] = True
    dem = band_raster(np.zeros((4, 4)), "dem", mask=dem_mask)
    slope = band_raster(np.zeros((4, 4)), "slope", mask=slope_mask)
    out = stack_bands(spec, dem, slope)
    assert out.valid_mask.sum() == 6
    # any pixel masked in the dem is masked in the stack
    assert not out.valid_mask[~dem_mask].any()


def test_stack_rejects_wrong_bands(rng):
    bad = random_raster(rng, 4, 4, n_bands=5)
    dem = band_raster(np.zeros((4, 4)), "dem")
    slope = band_raster(np.zeros((4, 4)), "slope")
    with pytest.raises(ValueError, match="bands"):
        stack_bands(bad, dem, slope)


def test_normalize_to_reference_round(rng):
    src = random_raster(rng, 16, 16, n_bands=2)
    ref = random_raster(rng, 16, 16, n_bands=2)
    out, maps = normalize_to_reference(src, ref)
    assert set(maps) == {"b0", "b1"}
    assert out.data.min() >= 0 and out.data.max() <= 255
