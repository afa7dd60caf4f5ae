import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import landseg
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
from landseg import pool
from landseg.models import predict_map
from landseg.nn import ops
from landseg.nn.train import (
    PREDICT_BATCH, _eval_loss, band_stats, spectral_jitter,
)


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
    assert sum(p.size for p in net.param_arrays()) == expected


def test_unet_param_count():
    w, k, in_ch = 8, 3, 7
    net = build_network("unet_mini", in_ch=in_ch, n_classes=k, width=w)
    expected = (
        conv_params(w, in_ch) + conv_params(2 * w, w) + conv_params(4 * w, 2 * w)
        + conv_params(2 * w, 6 * w) + conv_params(w, 3 * w)
        + conv_params(k, w, k=1)
    )
    assert sum(p.size for p in net.param_arrays()) == expected


def test_psp_param_count():
    w, k, in_ch = 16, 4, 7
    r = w // 4
    net = build_network("psp_mini", in_ch=in_ch, n_classes=k, width=w)
    expected = (
        conv_params(w, in_ch) + conv_params(w, w)
        + 3 * conv_params(r, w, k=1)
        + conv_params(k, w + 3 * r, k=1)
    )
    assert sum(p.size for p in net.param_arrays()) == expected


# The weights blob is written and read in params() order; a reorder here
# would still round-trip through save/load but break every saved model.
MANIFEST_ORDER = {
    "segnet_mini": ["enc1.w", "enc1.b", "enc2.w", "enc2.b", "dec1.w",
                    "dec1.b", "dec2.w", "dec2.b", "head.w", "head.b"],
    "unet_mini": ["enc1.w", "enc1.b", "enc2.w", "enc2.b", "bott.w", "bott.b",
                  "dec1.w", "dec1.b", "dec2.w", "dec2.b", "head.w", "head.b"],
    "psp_mini": ["conv1.w", "conv1.b", "conv2.w", "conv2.b",
                 "pyramid.bin1.w", "pyramid.bin1.b", "pyramid.bin2.w",
                 "pyramid.bin2.b", "pyramid.bin4.w", "pyramid.bin4.b",
                 "head.w", "head.b"],
}


@pytest.mark.parametrize("arch", sorted(MANIFEST_ORDER))
def test_weights_manifest_layer_order(arch):
    net = build_network(arch, in_ch=7, n_classes=6, width=4)
    assert [name for name, _ in net.params()] == MANIFEST_ORDER[arch]


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
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("setting", [
    {"epochs": 1.5}, {"batch_size": True}, {"lr": float("nan")},
    {"lr": float("inf")}, {"momentum": float("nan")},
], ids=["epochs-1.5", "batch_size-true", "lr-nan", "lr-inf", "momentum-nan"])
def test_config_rules_name_the_key(setting):
    (key, _), = setting.items()
    with pytest.raises(ValueError, match=f"^'{key}' must be "):
        TrainConfig(**setting)


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
    preds = list(predict_tiles(net, r, plan))
    again = list(predict_tiles(net, r, plan))
    assert [a for a, _ in preds] == plan.anchors
    by_anchor = dict(preds)
    assert all(np.array_equal(p, dict(again)[a]) for a, p in preds)
    for _, p in preds:
        assert np.abs(p.sum(axis=2) - 1.0).max() < 1e-12
    assert np.array_equal(by_anchor[(0, 0)], by_anchor[(0, 32)])


def test_predict_map_memory_does_not_grow_with_tiles(monkeypatch, rng):
    # one raster under plans of 16 and of 169 tiles: the stitch keeps no
    # patch, so both peak at the maps plus one batch's forward pass. One
    # worker: with more, the peak depends on how the batches overlap in
    # time, and test_predict_tiles_runs_few_batches_ahead bounds them
    monkeypatch.setattr(pool, "_workers", lambda: 1)
    net = build_network("segnet_mini", in_ch=4, n_classes=3, width=4,
                        patch=32, seed=0)
    data = rng.random((4, 128, 128)).astype(np.float32)
    r = Raster(128, 128, ["a", "b", "c", "d"], data,
               np.ones((128, 128), bool))
    peaks = []
    for stride in (32, 8):
        tracemalloc.start()
        try:
            predict_map(net, r, plan_tiles(128, 128, patch=32, stride=stride))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("workers", [2, 3])
def test_predict_tiles_runs_few_batches_ahead(monkeypatch, rng, workers):
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    net = build_network("segnet_mini", in_ch=4, n_classes=3, width=4,
                        patch=32, seed=0)
    started = []
    forward = net.predict_probs
    monkeypatch.setattr(net, "predict_probs",
                        lambda x: started.append(len(x)) or forward(x))
    r = Raster(128, 128, ["a", "b", "c", "d"],
               rng.random((4, 128, 128)).astype(np.float32),
               np.ones((128, 128), bool))
    plan = plan_tiles(128, 128, patch=32, stride=8)
    for i, (anchor, _) in enumerate(predict_tiles(net, r, plan)):
        assert anchor == plan.anchors[i]
        assert len(started) < i // PREDICT_BATCH + workers + 1
    assert sum(started) == len(plan.anchors)


def test_predict_tiles_band_mismatch(rng):
    net = build_network("segnet_mini", in_ch=3, n_classes=2, width=4, seed=0)
    r = Raster(64, 64, ["a"], rng.random((1, 64, 64)).astype(np.float32),
               np.ones((64, 64), bool))
    with pytest.raises(ValueError, match="bands"):
        predict_tiles(net, r, plan_tiles(64, 64, patch=64))


# SHA-256 of the parameters train() returns (little-endian float64, in
# manifest order) and of predict_tiles' probability patches (plan order),
# with single-threaded BLAS, computed before the conv backward, pooling and
# inference passes were rewritten to copy less. Those rewrites keep every
# sum in its order, so any change here is a change of trained bits. The
# jitter is on (spectral band names), and psp_mini's dilation-2 conv is
# included.
TRAINED_DIGESTS = {
    ("segnet_mini", 1, 4): (
        "4a9c2432ce90fcbf0d95620a108bc4831165893306977abaef409aab74e58a4e",
        "bb596e68abf491e7ef875d8b63e76b9bf243b32d52a2f075de75ffab08da2062"),
    ("segnet_mini", 4, 8): (
        "2ee72a1c8aec7231aba70b6abcd0fb9f1f9a92bc3d77d913a2df3aced4e057c2",
        "8ab88bdaec1b2c0de7730630f6874725739dd1b104dca3337d06975cffea32d9"),
    ("unet_mini", 1, 4): (
        "57ac745d6d6672f3300830c6634f5222e41eb1628b709707ed4e10d4b7428b0f",
        "70e910ea2c921288f293b16db5c450c86f4c8d57e1cbd20dbbab17478bfc2184"),
    ("unet_mini", 4, 8): (
        "3bb4d273f1d1ceecc8d8977ca4724280f027a3ff0bf824fba7fd35037a16278f",
        "924f7c4a007057d67edb930d3ff7256c7ee5ae6bbd811172de37079e78d775b7"),
    ("psp_mini", 1, 4): (
        "e772ef29745de440c96fa6a334619996a9ecdd2260e6c0ae8f4f942f7f4b05e0",
        "875047bb683e480747f2823d264e7bb3c43121cfccab7c4c4a7ebf860f5e8316"),
    ("psp_mini", 4, 8): (
        "8412746ffeaf6230a14643e1bd3134e003cc36c93d26f4dd3a60bb39c260568d",
        "636c67f0d534e096628b0d17788173b66e44f5fbe39b23b7c058e5c818ee44e5"),
}


def trained_digests(arch, batch, width):
    rng = np.random.default_rng(1234)
    bands = SPECTRAL_BANDS[:3] + ["dem"]
    samples = tiny_samples(rng, bands=bands)
    net = build_network(arch, in_ch=4, n_classes=3, width=width, patch=32,
                        seed=7)
    cfg = TrainConfig(optimizer="adam", lr=1e-3, epochs=2, batch_size=batch,
                      seed=3)
    net, _ = train(net, samples, cfg)
    weights = b"".join(p.astype("<f8").tobytes() for p in net.param_arrays())
    data = np.random.default_rng(5).random((4, 64, 96)).astype(np.float32)
    r = Raster(96, 64, list(bands), data, np.ones((64, 96), bool))
    probs = predict_tiles(net, r, plan_tiles(96, 64, patch=32, stride=16))
    probs = b"".join(p.astype("<f8").tobytes() for _, p in probs)
    return (hashlib.sha256(weights).hexdigest(),
            hashlib.sha256(probs).hexdigest())


@pytest.fixture(scope="module")
def single_thread_digests():
    """trained_digests of every pinned case, from a child process whose
    BLAS runs one thread: with two, unet_mini at width 8 trains to other
    (equally reproducible) bits."""
    code = ("import json, test_networks as t; print(json.dumps("
            "[[k, t.trained_digests(*k)] for k in t.TRAINED_DIGESTS]))")
    path = [str(Path(__file__).parent), str(Path(landseg.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {tuple(k): tuple(v) for k, v in json.loads(done.stdout)}


@pytest.mark.parametrize("arch, batch, width", sorted(TRAINED_DIGESTS))
def test_train_matches_pinned_digest(single_thread_digests, arch, batch,
                                     width):
    key = (arch, batch, width)
    assert single_thread_digests[key] == TRAINED_DIGESTS[key]
