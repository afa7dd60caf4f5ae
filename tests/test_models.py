import json

import numpy as np
import pytest

from landseg import (
    LabelRaster,
    NODATA_ID,
    Raster,
    cart_train,
    load_model,
    plan_tiles,
    predict_map,
    save_model,
)
from landseg.models import predict_pixels
from landseg.nn import build_network, save_network


def small_raster(rng, size=32, n_bands=3):
    data = rng.random((n_bands, size, size)).astype(np.float32) * 10
    mask = np.ones((size, size), dtype=bool)
    mask[:3, :5] = False
    return Raster(size, size, [f"b{i}" for i in range(n_bands)], data, mask)


def small_tree(rng, n_bands=3):
    x = rng.random((60, n_bands)) * 10
    y = (x[:, 0] > 5).astype(int) + (x[:, 1] > 5).astype(int)
    return cart_train(x, y, n_classes=3, min_leaf=2)


def test_load_model_pixel_document(tmp_path, rng):
    tree = small_tree(rng)
    save_model(tree, tmp_path / "cart.json", band_names=["b0", "b1", "b2"])
    back = load_model(tmp_path / "cart.json")
    x = rng.random((50, 3)) * 10
    assert np.array_equal(back.predict_proba(x), tree.predict_proba(x))


@pytest.mark.parametrize("suffix", ["", ".json"])
def test_load_model_weights_stem(tmp_path, rng, suffix):
    net = build_network("psp_mini", in_ch=3, n_classes=3, width=4, patch=16,
                        seed=2)
    save_network(net, tmp_path / "w")
    back = load_model(str(tmp_path / "w") + suffix)
    x = rng.standard_normal((1, 3, 16, 16))
    assert np.array_equal(back.predict_probs(x), net.predict_probs(x))


def test_load_model_rejects_missing_and_foreign(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope")
    (tmp_path / "other.json").write_text(json.dumps({"format": "x"}))
    with pytest.raises(ValueError, match="landseg-model"):
        load_model(tmp_path / "other.json")


def check_map(label_map, probs, r):
    assert isinstance(label_map, LabelRaster)
    assert probs.shape[1:] == (r.height, r.width)
    assert np.allclose(probs.sum(axis=0), 1.0)
    expected = np.argmax(probs, axis=0)
    valid = r.valid_mask
    assert np.array_equal(label_map.labels[valid], expected[valid])
    assert (label_map.labels[~valid] == NODATA_ID).all()


def test_predict_map_pixel_model(rng):
    r = small_raster(rng)
    tree = small_tree(rng)
    label_map, probs = predict_map(tree, r)
    check_map(label_map, probs, r)
    assert np.array_equal(probs, predict_pixels(tree, r))


def test_predict_map_network(rng):
    r = small_raster(rng)
    net = build_network("segnet_mini", in_ch=3, n_classes=3, width=4,
                        patch=16, seed=0)
    plan = plan_tiles(r.width, r.height, patch=16, stride=8)
    label_map, probs = predict_map(net, r, plan)
    check_map(label_map, probs, r)
    with pytest.raises(ValueError, match="plan"):
        predict_map(net, r)
