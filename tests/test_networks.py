import json

import numpy as np
import pytest

from landseg import (
    LabelRaster,
    Raster,
    SPECTRAL_BANDS,
    STACK_BANDS,
    extract_tiles,
    plan_tiles,
    split_samples,
)
from landseg.nn import (
    Adam,
    SgdMomentum,
    TrainConfig,
    adam_step,
    build_network,
    default_config,
    load_network,
    predict_tiles,
    save_network,
    sgd_momentum_step,
    train,
)
from landseg.nn import ops
from landseg.nn.train import _eval_loss, band_stats, spectral_jitter


def conv_params(out_ch, in_ch, k=3):
    return out_ch * in_ch * k * k + out_ch


# -------------------------------------------------------------- optimizers

def test_adam_first_step_magnitude():
    theta = np.array([1.0])
    g = np.array([0.5])
    m = np.zeros(1)
    v = np.zeros(1)
    new, m, v = adam_step(theta, g, m, v, t=1, lr=1e-5)
    delta = new[0] - theta[0]
    assert delta == pytest.approx(-1e-5, rel=1e-6)


def test_adam_zero_gradient_is_noop():
    theta = np.array([3.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        theta, m, v = adam_step(theta, np.zeros(2), m, v, t)
    assert np.array_equal(theta, [3.0, -2.0])


def test_adam_two_step_hand_rollout():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.7
    theta = 0.2
    m = v = 0.0
    expect = theta
    em = ev = 0.0
    for t in (1, 2):
        em = b1 * em + (1 - b1) * g
        ev = b2 * ev + (1 - b2) * g * g
        mh = em / (1 - b1 ** t)
        vh = ev / (1 - b2 ** t)
        expect = expect - lr * mh / (np.sqrt(vh) + eps)
    th = np.array([theta])
    m = np.zeros(1)
    v = np.zeros(1)
    for t in (1, 2):
        th, m, v = adam_step(th, np.array([g]), m, v, t, lr=lr)
    assert th[0] == pytest.approx(expect, rel=1e-12)


def test_adam_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adam_step(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 1)


def test_sgd_first_step():
    theta, v = sgd_momentum_step(np.zeros(1), np.ones(1), np.zeros(1))
    assert theta[0] == pytest.approx(-0.05)
    assert v[0] == 1.0


def test_sgd_momentum_coasting():
    theta = np.zeros(1)
    v = np.array([2.0])
    theta, v = sgd_momentum_step(theta, np.zeros(1), v)
    assert theta[0] == pytest.approx(-0.05 * 0.9 * 2.0)


def test_sgd_velocity_geometric_limit():
    v = np.zeros(1)
    theta = np.zeros(1)
    for _ in range(200):
        theta, v = sgd_momentum_step(theta, np.ones(1), v)
    assert v[0] == pytest.approx(10.0, rel=1e-6)


# ---------------------------------------------------------------- networks

@pytest.mark.parametrize("arch", ["segnet_mini", "unet_mini", "psp_mini"])
def test_forward_shape(arch, rng):
    net = build_network(arch, in_ch=7, n_classes=5, width=8, patch=64, seed=0)
    x = rng.standard_normal((1, 7, 64, 64))
    logits = net.forward(x)
    assert logits.shape == (1, 5, 64, 64)


def test_unet_decoder_channel_counts():
    net = build_network("unet_mini", in_ch=7, n_classes=4, width=16)
    assert net.dec1.in_ch == 2 * 16 + 4 * 16   # skip_ch + dec_ch
    assert net.dec2.in_ch == 16 + 2 * 16


def test_segnet_param_count():
    w, k, in_ch = 16, 6, 7
    net = build_network("segnet_mini", in_ch=in_ch, n_classes=k, width=w)
    expected = (
        conv_params(w, in_ch) + conv_params(2 * w, w)
        + conv_params(w, 2 * w) + conv_params(w, w)
        + conv_params(k, w, k=1)
    )
    assert net.n_params == expected


def test_unet_param_count():
    w, k, in_ch = 8, 3, 7
    net = build_network("unet_mini", in_ch=in_ch, n_classes=k, width=w)
    expected = (
        conv_params(w, in_ch) + conv_params(2 * w, w) + conv_params(4 * w, 2 * w)
        + conv_params(2 * w, 6 * w) + conv_params(w, 3 * w)
        + conv_params(k, w, k=1)
    )
    assert net.n_params == expected


def test_psp_param_count():
    w, k, in_ch = 16, 4, 7
    r = w // 4
    net = build_network("psp_mini", in_ch=in_ch, n_classes=k, width=w)
    expected = (
        conv_params(w, in_ch) + conv_params(w, w)
        + 3 * conv_params(r, w, k=1)
        + conv_params(k, w + 3 * r, k=1)
    )
    assert net.n_params == expected


def test_build_rejects_bad_tag():
    with pytest.raises(ValueError, match="architecture"):
        build_network("resnet", in_ch=7, n_classes=3)


def test_build_rejects_bad_patch():
    with pytest.raises(ValueError, match="divisible"):
        build_network("segnet_mini", in_ch=7, n_classes=3, patch=66)


def test_build_deterministic_per_seed():
    a = build_network("unet_mini", in_ch=3, n_classes=3, width=4, seed=42)
    b = build_network("unet_mini", in_ch=3, n_classes=3, width=4, seed=42)
    for (_, pa), (_, pb) in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize("arch", ["segnet_mini", "unet_mini", "psp_mini"])
def test_full_network_gradient_spot_check(arch, rng):
    """Finite differences through the whole net on sampled elements."""
    net = build_network(arch, in_ch=2, n_classes=3, width=4, patch=8, seed=1)
    x = rng.standard_normal((1, 2, 8, 8))
    labels = rng.integers(0, 3, size=(1, 8, 8)).astype(np.uint8)
    weights = np.ones(3)

    def loss_fn():
        return ops.weighted_ce_loss(net.forward(x), labels, weights)[0]

    net.zero_grads()
    _, dlogits = ops.weighted_ce_loss(net.forward(x), labels, weights)
    net.backward(dlogits)
    grads = net.grads()
    arrays = net.param_arrays()

    h = 1e-6
    checked = 0
    for ai in range(len(arrays)):
        arr, g = arrays[ai], grads[ai]
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            denom = max(1.0, abs(numeric), abs(gf[i]))
            assert abs(gf[i] - numeric) / denom < 1e-5
            checked += 1
    assert checked >= 20


# ------------------------------------------------------------ save / load

@pytest.mark.parametrize("arch", ["segnet_mini", "unet_mini", "psp_mini"])
def test_weights_round_trip(arch, tmp_path, rng):
    net = build_network(arch, in_ch=3, n_classes=4, width=4, patch=16, seed=3)
    net.set_band_norm(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    save_network(net, tmp_path / "w")
    back = load_network(tmp_path / "w")
    x = rng.standard_normal((1, 3, 16, 16))
    assert np.array_equal(back.forward(x), net.forward(x))


def test_weights_blob_validated(tmp_path):
    net = build_network("segnet_mini", in_ch=2, n_classes=2, width=4, seed=0)
    save_network(net, tmp_path / "w")
    blob = (tmp_path / "w.bin").read_bytes()
    (tmp_path / "w.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="blob"):
        load_network(tmp_path / "w")


def test_weights_version_validated(tmp_path):
    net = build_network("segnet_mini", in_ch=2, n_classes=2, width=4, seed=0)
    save_network(net, tmp_path / "w")
    manifest = json.loads((tmp_path / "w.json").read_text())
    manifest["version"] = 2
    (tmp_path / "w.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version 2"):
        load_network(tmp_path / "w")


# ---------------------------------------------------------------- training

def tiny_samples(rng, n_classes=3, size=96, patch=32, bands=("a", "b", "c", "d")):
    data = rng.random((len(bands), size, size)).astype(np.float32) * 100
    labels = (data[0] > 50).astype(np.uint8) + (data[1] > 50).astype(np.uint8)
    r = Raster(size, size, list(bands), data, np.ones((size, size), bool))
    l = LabelRaster(size, size, labels)
    plan = plan_tiles(size, size, patch=patch, stride=patch // 2)
    return split_samples(extract_tiles(r, l, plan), seed=0)


def test_default_configs():
    assert default_config("segnet_mini").optimizer == "adam"
    assert default_config("segnet_mini").lr == 1e-5
    assert default_config("psp_mini").optimizer == "sgd"
    assert default_config("psp_mini").lr == 0.05
    assert default_config("psp_mini").momentum == 0.9


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")


def test_train_smoke_and_history(rng):
    samples = tiny_samples(rng)
    net = build_network("psp_mini", in_ch=4, n_classes=3, width=4, patch=32, seed=0)
    cfg = TrainConfig(optimizer="sgd", lr=0.01, epochs=3, seed=1)
    net, history = train(net, samples, cfg)
    assert len(history) == 3
    for _, tr, vl in history:
        assert np.isfinite(tr) and np.isfinite(vl)


@pytest.mark.parametrize("split,name", [("train", "train"),
                                        ("val", "validation")])
def test_train_rejects_non_finite_loss(rng, split, name):
    samples = tiny_samples(rng)
    tile = next(iter(samples.subset(split)))
    tile.x[0, 5, 7] = np.nan
    net = build_network("psp_mini", in_ch=4, n_classes=3, width=4, patch=32, seed=0)
    cfg = TrainConfig(optimizer="adam", lr=1e-3, epochs=2, seed=1)
    with pytest.raises(ValueError, match=f"{name} loss is nan at epoch 0"):
        train(net, samples, cfg)


def test_train_loss_finite_at_init(rng):
    samples = tiny_samples(rng)
    net = build_network("segnet_mini", in_ch=4, n_classes=3, width=4,
                        patch=32, seed=5)
    cfg = TrainConfig(epochs=1, seed=2)
    _, history = train(net, samples, cfg)
    assert np.isfinite(history[0][1])


def test_train_bitwise_deterministic(rng):
    samples = tiny_samples(rng)

    def run():
        net = build_network("unet_mini", in_ch=4, n_classes=3, width=4,
                            patch=32, seed=7)
        cfg = TrainConfig(optimizer="adam", lr=1e-3, epochs=2, seed=3)
        net, history = train(net, samples, cfg)
        return net, history

    a, ha = run()
    b, hb = run()
    assert ha == hb
    for pa, pb in zip(a.param_arrays(), b.param_arrays()):
        assert np.array_equal(pa, pb)


# ------------------------------------------------------- spectral jitter

def jitter_inputs(rng, bands):
    samples = tiny_samples(rng, bands=bands)
    tiles = samples.subset("train")
    mean, std = band_stats(tiles)
    return tiles[0], mean, std


def test_jitter_leaves_terrain_labels_and_mask(rng):
    tile, mean, std = jitter_inputs(rng, STACK_BANDS)
    tile.mask[:3, :5] = False
    tile.y[0, :4] = 255
    out = spectral_jitter(tile, STACK_BANDS, mean, std,
                          np.random.default_rng(0))
    spectral = len(SPECTRAL_BANDS)
    assert np.array_equal(out.x[spectral:], tile.x[spectral:])
    assert np.array_equal(out.y, tile.y)
    assert np.array_equal(out.mask, tile.mask)
    assert out.anchor == tile.anchor
    # every spectral band moves, by one affine map per band
    for b in range(spectral):
        assert not np.array_equal(out.x[b], tile.x[b])
        slope, _ = np.polyfit(tile.x[b].ravel(), out.x[b].ravel(), 1)
        assert 0.85 - 1e-9 <= slope <= 1.15 + 1e-9


def test_jitter_noop_without_spectral_names(rng):
    tile, mean, std = jitter_inputs(rng, ("a", "b", "c", "d"))
    jrng = np.random.default_rng(0)
    out = spectral_jitter(tile, ["a", "b", "c", "d"], mean, std, jrng)
    assert np.array_equal(out.x, tile.x)
    assert np.array_equal(out.y, tile.y)
    assert np.array_equal(out.mask, tile.mask)
    # nothing was drawn from the stream
    assert jrng.random() == np.random.default_rng(0).random()


def test_train_val_loss_on_unjittered_tiles(rng):
    samples = tiny_samples(rng, bands=SPECTRAL_BANDS[:4])
    net = build_network("psp_mini", in_ch=4, n_classes=3, width=4, patch=32,
                        seed=0)
    cfg = TrainConfig(optimizer="sgd", lr=0.01, epochs=1, seed=1)
    net, history = train(net, samples, cfg)
    # one epoch: the returned weights are the ones validated in epoch 0
    clean = _eval_loss(net, samples.subset("val"), np.ones(3), cfg.batch_size)
    assert history[0][2] == clean


def test_train_bitwise_deterministic_with_jitter(rng):
    bands = SPECTRAL_BANDS[:3] + ["dem"]
    samples = tiny_samples(rng, bands=bands)
    renamed = tiny_samples(np.random.default_rng(1234), bands=("a", "b", "c", "d"))

    def run(s):
        net = build_network("unet_mini", in_ch=4, n_classes=3, width=4,
                            patch=32, seed=7)
        cfg = TrainConfig(optimizer="adam", lr=1e-3, epochs=2, seed=3)
        return train(net, s, cfg)

    a, ha = run(samples)
    b, hb = run(samples)
    assert ha == hb
    for pa, pb in zip(a.param_arrays(), b.param_arrays()):
        assert np.array_equal(pa, pb)
    # the same data under non-spectral names trains differently: the
    # jitter was reached
    _, hc = run(renamed)
    assert hc != ha


def test_predict_tiles_properties(rng):
    samples = tiny_samples(rng)
    net = build_network("segnet_mini", in_ch=4, n_classes=3, width=4,
                        patch=32, seed=0)
    data = rng.random((4, 96, 96)).astype(np.float32)
    # make two tile regions identical
    data[:, :32, 32:64] = data[:, :32, :32]
    r = Raster(96, 96, ["a", "b", "c", "d"], data, np.ones((96, 96), bool))
    plan = plan_tiles(96, 96, patch=32, stride=32)
    preds = predict_tiles(net, r, plan)
    again = predict_tiles(net, r, plan)
    by_anchor = dict(preds)
    assert all(np.array_equal(p, dict(again)[a]) for a, p in preds)
    for _, p in preds:
        assert np.abs(p.sum(axis=2) - 1.0).max() < 1e-12
    assert np.array_equal(by_anchor[(0, 0)], by_anchor[(0, 32)])


def test_predict_tiles_band_mismatch(rng):
    net = build_network("segnet_mini", in_ch=3, n_classes=2, width=4, seed=0)
    r = Raster(64, 64, ["a"], rng.random((1, 64, 64)).astype(np.float32),
               np.ones((64, 64), bool))
    with pytest.raises(ValueError, match="bands"):
        predict_tiles(net, r, plan_tiles(64, 64, patch=64))
