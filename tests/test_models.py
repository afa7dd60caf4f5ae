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
    rf_train,
    save_model,
    svm_train,
)
from landseg import models, pool
from landseg.models import predict_pixels
from landseg.nn import build_network, save_network
from landseg.nn.train import PREDICT_BATCH


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


def _pixel_model(kind, rng):
    x = rng.random((90, 3)) * 10
    y = (x[:, 0] > 5).astype(int) + (x[:, 1] > 5).astype(int)
    if kind == "cart":
        return cart_train(x, y, n_classes=3, min_leaf=2)
    if kind == "rf":
        return rf_train(x, y, n_trees=12, min_leaf=2, n_classes=3, seed=4)
    return svm_train(x, y, gamma=0.5, n_classes=3)


@pytest.mark.parametrize("kind", ["cart", "rf", "svm", "segnet_mini",
                                  "unet_mini", "psp_mini"])
def test_predict_map_bytes_do_not_depend_on_workers(monkeypatch, rng, kind):
    # 45 x 43 pixels are 10 chunks of 192 and 15 more; the plan's 36
    # tiles are 4 batches of 8 and 4 more: a short last chunk and batch,
    # and a short last group at 2 and at 3 workers
    r = small_raster(rng, size=45)
    r = Raster(45, 43, r.bands, r.data[:, :43], r.valid_mask[:43])
    monkeypatch.setattr(models, "PIXEL_CHUNK", 192)
    plan = None
    if kind.endswith("_mini"):
        model = build_network(kind, in_ch=3, n_classes=3, width=4,
                              patch=16, seed=5)
        plan = plan_tiles(r.width, r.height, patch=16, stride=6)
        assert len(plan.anchors) % PREDICT_BATCH
    else:
        model = _pixel_model(kind, rng)
        assert r.width * r.height % models.PIXEL_CHUNK
    maps = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        label_map, probs = predict_map(model, r, plan)
        maps[workers] = (label_map.labels.tobytes(), probs.tobytes())
    assert maps[2] == maps[1] and maps[3] == maps[1]


def test_forest_tables_are_built_once_per_forest(monkeypatch, rng):
    # one group per tree, and 11 chunks per map on 1, 2 and 3 workers:
    # each group's tables are built on the forest's first vote, once, and
    # every later vote of every chunk reads them
    from landseg.classical import forest as forest_mod
    r = small_raster(rng, size=45)
    monkeypatch.setattr(models, "PIXEL_CHUNK", 192)
    monkeypatch.setattr(forest_mod, "VOTE_TABLE_BYTES", 1)
    built = []
    real = forest_mod._tables

    def counted(trees):
        built.extend(id(tree) for tree in trees)
        return real(trees)

    monkeypatch.setattr(forest_mod, "_tables", counted)
    maps = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        forest = _pixel_model("rf", np.random.default_rng(3))
        built.clear()
        label_map, probs = predict_map(forest, r)
        assert sorted(built) == sorted(map(id, forest.trees))
        predict_map(forest, r)
        assert len(built) == forest.n_trees
        maps[workers] = (label_map.labels.tobytes(), probs.tobytes())
    assert maps[2] == maps[1] and maps[3] == maps[1]
