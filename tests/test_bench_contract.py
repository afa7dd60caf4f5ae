"""The benchmark's tracer (bench/tracer.py) patches landseg functions by
name and reads conv caches by position, and its checks (bench/checks.py)
read saved models with their own readers; a rename, a cache reorder or a
document layout drift in src/ should fail here, not only in a benchmark
run."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from landseg import ClassLegend, read_labels, read_raster, stratified_sample
from landseg.classical import rf_train, svm_train
from landseg.classical.svm import smo_solve
from landseg.cli import main
from landseg.models import load_model, save_model
from landseg.nn import build_network, ops, save_network
from landseg.synth import SceneSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def _resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_tracer_mapped_names_exist(tracer):
    missing = []
    for modname, table in tracer.LAYERS.items():
        module = importlib.import_module(modname)
        missing += [f"{modname}.{name}" for name in table
                    if name != "*" and not callable(_resolve(module, name))]
    assert not missing


def test_tracer_counter_hooks_name_existing_functions(tracer):
    modules = [importlib.import_module(m) for m in tracer.LAYERS]
    orphans = [name for name in tracer.AFTER
               if not any(callable(_resolve(m, name)) for m in modules)]
    assert not orphans


@pytest.mark.parametrize("k", [1, 3])
def test_conv_cache_holds_weight_in_slot_2(rng, k):
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((4, 3, k, k))
    _, cache = ops.conv2d_forward(x, w, np.zeros(4))
    assert cache[2] is w


def _blobs(rng, n=40):
    y = np.repeat(np.arange(3), n)
    centers = np.array([[0.0, 0.0, 1.0], [4.0, 4.0, 0.0], [4.0, 0.0, 2.0]])
    return centers[y] + rng.standard_normal((y.size, 3)), y


def _saved_model(model, path):
    save_model(model, path, band_names=["a", "b", "c"])
    return json.loads(path.read_text())["model"]


def test_checks_walk_saved_forest(checks, rng, tmp_path):
    x, y = _blobs(rng)
    forest = rf_train(x, y, n_trees=7, seed=3)
    doc = _saved_model(forest, tmp_path / "rf.json")
    probe = rng.uniform(-2, 6, size=(60, 3))
    assert np.array_equal(checks.rf_votes(doc, probe),
                          forest.predict_proba(probe))


def test_checks_vote_saved_svm(checks, rng, tmp_path):
    x, y = _blobs(rng, n=15)
    svm = svm_train(x, y, n_classes=3)
    doc = _saved_model(svm, tmp_path / "svm.json")
    probe = rng.uniform(-2, 6, size=(60, 3))
    votes, margin = checks.svm_votes(doc, probe)
    clear = margin > 1e-6
    assert clear.sum() > 50
    assert np.array_equal(votes[clear], svm.predict_proba(probe)[clear])


def test_checks_read_saved_weights(checks, tmp_path):
    net = build_network("psp_mini", in_ch=3, n_classes=3, width=4, patch=16,
                        seed=1)
    save_network(net, tmp_path / "net")
    man, params = checks.read_weights(tmp_path / "net")
    assert man["arch"] == "psp_mini"
    assert list(params) == [name for name, _ in net.params()]
    for name, p in net.params():
        assert np.array_equal(params[name], p), name


def _traced(tmp_path, spans, *argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(BENCH.parent / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(tmp_path / spans),
         *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads((tmp_path / spans).read_text())["calls"]


def test_tracer_records_forest_layers(tmp_path):
    # a traced benchmark run fails when one of these records no call
    SceneSpec(width=128, height=128, seed=3).save(tmp_path / "spec.json")
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "scene")]) == 0
    (tmp_path / "params.json").write_text('{"n_trees": 4}')
    train = _traced(tmp_path, "train.json", "train-pixel", "--algo", "rf",
                    "--stack", "scene/stack", "--labels", "scene/labels",
                    "--legend", "scene/legend.json", "--samples", "10",
                    "--params", "params.json", "--out", "rf.json")
    assert train.get("tree.fit.s", 0) > 0 and train.get("forest.fit.s", 0) > 0
    predict = _traced(tmp_path, "predict.json", "predict", "--model",
                      "rf.json", "--stack", "scene/stack", "--out", "rf")
    # the map votes through forest tables; the OOB pass walks single trees
    assert predict.get("forest.predict.s", 0) > 0
    assert (train.get("tree.predict.s", 0)
            + predict.get("tree.predict.s", 0)) > 0


def test_tracer_records_svm_layers(tmp_path):
    # a traced benchmark run fails when one of these records no call
    SceneSpec(width=128, height=128, seed=3).save(tmp_path / "spec.json")
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "scene")]) == 0
    _traced(tmp_path, "train.json", "train-pixel", "--algo", "svm",
            "--stack", "scene/stack", "--labels", "scene/labels",
            "--legend", "scene/legend.json", "--samples", "12",
            "--seed", "5", "--out", "svm.json")
    train = json.loads((tmp_path / "train.json").read_text())
    predict = _traced(tmp_path, "predict.json", "predict", "--model",
                      "svm.json", "--stack", "scene/stack", "--out", "svm")
    for metric in ("svm.fit.s", "svm.smo.s", "svm.kernel.s"):
        assert train["calls"].get(metric, 0) > 0, metric
    assert predict.get("svm.kernel.s", 0) > 0
    assert predict.get("svm.predict.s", 0) > 0
    # svm.smo.iters sums smo_solve's own count over the one-vs-one pairs
    scene = tmp_path / "scene"
    table = stratified_sample(read_raster(scene / "stack"),
                              read_labels(scene / "labels"),
                              ClassLegend.load(scene / "legend.json"),
                              n_per_class=12, seed=5)
    model = load_model(tmp_path / "svm.json")
    xs = (table.x - model.mean) / model.std
    max_iter = inspect.signature(svm_train).parameters["max_iter"].default
    iters = 0
    for c1, c2 in combinations(np.unique(table.y), 2):
        sel = (table.y == c1) | (table.y == c2)
        y = np.where(table.y[sel] == c1, 1.0, -1.0)
        iters += smo_solve(xs[sel], y, model.C, model.gamma, model.tol,
                           max_iter)[2]
    assert iters > 0
    assert train["counts"]["svm.smo.iters"] == iters


def test_tracer_records_net_layers(tmp_path):
    # a traced benchmark run fails when one of these records no call
    SceneSpec(width=128, height=128, seed=3).save(tmp_path / "spec.json")
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "scene")]) == 0
    assert main(["tile", "--stack", str(tmp_path / "scene" / "stack"),
                 "--labels", str(tmp_path / "scene" / "labels"),
                 "--patch", "32", "--stride", "32",
                 "--out", str(tmp_path / "plan.json")]) == 0
    (tmp_path / "cfg.json").write_text(
        '{"epochs": 1, "width": 4, "batch_size": 4}')
    calls, counts = {}, {}
    for arch in ("segnet_mini", "unet_mini"):
        stages = [
            ["train-net", "--arch", arch, "--stack", "scene/stack",
             "--labels", "scene/labels", "--plan", "plan.json",
             "--config", "cfg.json", "--out", arch],
            ["predict", "--model", arch, "--stack", "scene/stack",
             "--plan", "plan.json", "--out", f"{arch}_pred"],
        ]
        for argv in stages:
            spans = f"{argv[0]}_{arch}.json"
            _traced(tmp_path, spans, *argv)
            doc = json.loads((tmp_path / spans).read_text())
            calls[argv[0], arch] = doc["calls"]
            counts[argv[0], arch] = doc["counts"]
    for arch in ("segnet_mini", "unet_mini"):
        train, predict = calls["train-net", arch], calls["predict", arch]
        for metric in ("ops.conv_fwd.s", "ops.conv_bwd.s", "ops.pool.s",
                       "ops.loss.s", "optim.step.s"):
            assert train.get(metric, 0) > 0, (arch, metric)
        for metric in ("ops.conv_fwd.s", "ops.pool.s"):
            assert predict.get(metric, 0) > 0, (arch, metric)
        assert counts["train-net", arch].get("ops.conv_fwd.gflop", 0) > 0
        assert counts["train-net", arch].get("ops.conv_bwd.gflop", 0) > 0
        assert counts["predict", arch].get("ops.conv_fwd.gflop", 0) > 0
    # unet's upsample and concat
    assert calls["train-net", "unet_mini"].get("ops.resample.s", 0) > 0
    assert calls["predict", "unet_mini"].get("ops.resample.s", 0) > 0
