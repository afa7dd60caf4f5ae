import numpy as np
import pytest

from landseg import (
    LabelRaster,
    augment,
    class_weights,
    default_legend,
    stratified_sample,
)
from landseg.tiling import Tile
from conftest import random_labels, random_raster


def tile_from(y, bands=2):
    y = np.asarray(y, dtype=np.uint8)
    x = np.stack([y.astype(np.float32) * (i + 1) for i in range(bands)])
    return Tile(anchor=(0, 0), x=x, y=y, mask=np.ones(y.shape, bool))


# ----------------------------------------------------------------- augment

def test_augment_orientations():
    t = tile_from([[1, 2], [3, 4]])
    rot_cw, rot_ccw, flip, mirror = augment(t)
    assert rot_ccw.y.tolist() == [[2, 4], [1, 3]]
    assert rot_cw.y.tolist() == [[3, 1], [4, 2]]
    assert flip.y.tolist() == [[3, 4], [1, 2]]
    assert mirror.y.tolist() == [[2, 1], [4, 3]]
    # bands and mask transform identically to labels
    assert np.array_equal(mirror.x[0], mirror.y.astype(np.float32))


def test_augment_involutions(rng):
    y = rng.integers(0, 5, size=(8, 8)).astype(np.uint8)
    t = tile_from(y)
    rot_cw, rot_ccw, flip, mirror = augment(t)
    assert np.array_equal(augment(mirror)[3].y, y)       # mirror^2 = id
    assert np.array_equal(augment(flip)[2].y, y)         # flip^2 = id
    assert np.array_equal(augment(rot_ccw)[0].y, y)      # cw . ccw = id
    assert np.array_equal(augment(rot_cw)[1].y, y)       # ccw . cw = id


def test_augment_constant_patch():
    t = tile_from(np.full((4, 4), 3))
    for out in augment(t):
        assert np.array_equal(out.y, t.y)


def test_augment_preserves_label_multiset(rng):
    for _ in range(10):
        y = rng.integers(0, 6, size=(16, 16)).astype(np.uint8)
        t = tile_from(y)
        base = np.bincount(y.reshape(-1), minlength=6)
        for out in augment(t):
            assert np.array_equal(
                np.bincount(out.y.reshape(-1), minlength=6), base
            )


def test_augment_rejects_non_square():
    t = Tile(anchor=(0, 0), x=np.zeros((1, 2, 3), np.float32),
             y=np.zeros((2, 3), np.uint8), mask=np.ones((2, 3), bool))
    with pytest.raises(ValueError, match="square"):
        augment(t)


# ----------------------------------------------------------------- weights

def test_class_weights_hand_case():
    labels = np.concatenate([
        np.zeros(2, np.uint8), np.ones(1, np.uint8), np.full(1, 2, np.uint8)
    ]).reshape(2, 2)
    cw = class_weights(LabelRaster(2, 2, labels), default_legend(3))
    assert np.allclose(cw.weights, [0.6, 1.2, 1.2])


def test_class_weights_uniform(rng):
    labels = np.repeat(np.arange(4, dtype=np.uint8), 16).reshape(8, 8)
    cw = class_weights(LabelRaster(8, 8, labels), default_legend(4))
    assert np.allclose(cw.weights, 1.0)


def test_class_weights_absent_class():
    labels = np.zeros((4, 4), np.uint8)
    cw = class_weights(LabelRaster(4, 4, labels), default_legend(3))
    assert cw.weights[1] == 0.0 and cw.weights[2] == 0.0
    assert cw.present.tolist() == [True, False, False]
    assert cw.weights[0] == 1.0


def test_class_weights_mean_one(rng):
    for _ in range(10):
        l = random_labels(rng, 16, 16, n_classes=5, nodata_frac=0.2)
        if not (l.labels != 255).any():
            continue
        cw = class_weights(l, default_legend(5))
        present = cw.present
        assert abs(cw.weights[present].mean() - 1.0) < 1e-12


def test_class_weights_all_nodata():
    l = LabelRaster(2, 2, np.full((2, 2), 255, np.uint8))
    with pytest.raises(ValueError, match="nodata"):
        class_weights(l, default_legend(3))


# ---------------------------------------------------------------- sampling

def test_stratified_counts(rng):
    r = random_raster(rng, 32, 32, n_bands=3)
    l = random_labels(rng, 32, 32, n_classes=4)
    t = stratified_sample(r, l, default_legend(4), n_per_class=10, seed=3)
    assert len(t) == 40
    for c in range(4):
        assert (t.y == c).sum() == 10


def test_stratified_exhausts_small_class(rng):
    labels = np.zeros((8, 8), np.uint8)
    labels[0, :3] = 1
    r = random_raster(rng, 8, 8)
    t = stratified_sample(r, LabelRaster(8, 8, labels), default_legend(2),
                          n_per_class=10, seed=0)
    assert (t.y == 1).sum() == 3
    assert (t.y == 0).sum() == 10


def test_stratified_deterministic(rng):
    r = random_raster(rng, 32, 32)
    l = random_labels(rng, 32, 32, n_classes=4)
    a = stratified_sample(r, l, default_legend(4), n_per_class=7, seed=11)
    b = stratified_sample(r, l, default_legend(4), n_per_class=7, seed=11)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_stratified_skips_nodata_and_masked(rng):
    r = random_raster(rng, 16, 16, masked_frac=0.4)
    l = random_labels(rng, 16, 16, n_classes=3, nodata_frac=0.3)
    t = stratified_sample(r, l, default_legend(3), n_per_class=1000, seed=0)
    pos = t.positions
    assert len(np.unique(pos[:, 0] * 16 + pos[:, 1])) == len(t)  # no dupes
    for (row, col), cid in zip(pos, t.y):
        assert r.valid_mask[row, col]
        assert l.labels[row, col] == cid
