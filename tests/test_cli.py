import hashlib
import inspect
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from landseg import (
    GroundPointSet, Raster, default_legend, read_labels, read_raster,
    write_raster,
)
from landseg import cli, experiment, models, pool
from landseg.classical import DecisionTree, cart_train, rf_train, svm_train
from landseg.cli import main
from landseg.experiment import TABLE2_SCENE_SIZE, table2_experiment
from landseg.models import save_model
from landseg.nn import build_network, save_network
from landseg.nn.networks import _MiniNet
from landseg.sampling import stratified_sample
from landseg.synth import SceneSpec
from landseg.tiling import plan_tiles


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    spec = SceneSpec(width=128, height=128, seed=21, cloud_fraction=0.02)
    spec.save(out / "spec.json")
    assert main(["synth", "--spec", str(out / "spec.json"),
                 "--out", str(out)]) == 0
    return out


def test_synth_outputs(scene_dir):
    for stem in ("stack", "spectral", "dem", "labels", "cloud"):
        assert (scene_dir / f"{stem}.json").exists()
        assert (scene_dir / f"{stem}.bin").exists()
    assert (scene_dir / "legend.json").exists()
    assert (scene_dir / "scene_spec.json").exists()
    stack = read_raster(scene_dir / "stack")
    assert stack.n_bands == 7
    manifest = (scene_dir / "run_manifest.jsonl").read_text().splitlines()
    assert json.loads(manifest[0])["stage"] == "synth"


def test_synth_deterministic(tmp_path, scene_dir):
    assert main(["synth", "--seed", "21", "--spec",
                 str(scene_dir / "spec.json"), "--out", str(tmp_path)]) == 0
    a = (scene_dir / "stack.bin").read_bytes()
    b = (tmp_path / "stack.bin").read_bytes()
    assert a == b


def test_preprocess_stage(scene_dir):
    rc = main([
        "preprocess",
        "--in", str(scene_dir / "spectral"),
        "--reference", str(scene_dir / "spectral"),
        "--dem", str(scene_dir / "dem"),
        "--cloud", str(scene_dir / "cloud"),
        "--cell-size", "30",
        "--out", str(scene_dir / "prep_stack"),
    ])
    assert rc == 0
    stack = read_raster(scene_dir / "prep_stack")
    assert stack.bands == ["blue", "green", "red", "red_edge", "nir", "dem", "slope"]
    cloud = read_labels(scene_dir / "cloud")
    assert not stack.valid_mask[cloud.labels != 0].any()


def test_tile_stage(scene_dir):
    rc = main([
        "tile", "--stack", str(scene_dir / "stack"),
        "--labels", str(scene_dir / "labels"),
        "--patch", "64", "--stride", "32", "--seed", "5",
        "--out", str(scene_dir / "plan.json"),
    ])
    assert rc == 0
    doc = json.loads((scene_dir / "plan.json").read_text())
    assert len(doc["plan"]["anchors"]) == 9
    n = sum(len(v) for v in doc["splits"].values())
    assert n + doc["dropped"] == 9


def test_train_pixel_predict_evaluate(scene_dir):
    rc = main([
        "train-pixel", "--algo", "cart",
        "--stack", str(scene_dir / "stack"),
        "--labels", str(scene_dir / "labels"),
        "--legend", str(scene_dir / "legend.json"),
        "--samples", "150", "--seed", "3",
        "--out", str(scene_dir / "cart.json"),
    ])
    assert rc == 0
    rc = main([
        "predict", "--model", str(scene_dir / "cart.json"),
        "--stack", str(scene_dir / "stack"),
        "--out", str(scene_dir / "cart_pred"),
    ])
    assert rc == 0
    rc = main([
        "evaluate", "--pred", str(scene_dir / "cart_pred_labels"),
        "--truth", str(scene_dir / "labels"),
        "--legend", str(scene_dir / "legend.json"),
        "--out", str(scene_dir / "cart_report.json"),
    ])
    assert rc == 0
    rep = json.loads((scene_dir / "cart_report.json").read_text())
    assert rep["overall_accuracy"] > 0.5
    assert (scene_dir / "cart_report.json.cm.csv").exists()


def test_evaluate_perfect_prediction(scene_dir):
    rc = main([
        "evaluate", "--pred", str(scene_dir / "labels"),
        "--truth", str(scene_dir / "labels"),
        "--legend", str(scene_dir / "legend.json"),
        "--out", str(scene_dir / "self_report.json"),
    ])
    assert rc == 0
    rep = json.loads((scene_dir / "self_report.json").read_text())
    assert rep["overall_accuracy"] == 1.0


def test_evaluate_with_points(scene_dir):
    labels = read_labels(scene_dir / "labels")
    pts = [(3, 4, int(labels.labels[3, 4])), (60, 90, 0)]
    GroundPointSet(points=pts).save(scene_dir / "points.csv")
    rc = main([
        "evaluate", "--pred", str(scene_dir / "labels"),
        "--truth", str(scene_dir / "points.csv"),
        "--legend", str(scene_dir / "legend.json"),
        "--out", str(scene_dir / "pts_report.json"),
    ])
    assert rc == 0
    rep = json.loads((scene_dir / "pts_report.json").read_text())
    assert rep["total"] == 2


def test_train_net_predict_ensemble(scene_dir, tmp_path):
    cfg = {"epochs": 1, "lr": 1e-3, "optimizer": "adam", "width": 4}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc = main([
        "train-net", "--arch", "segnet_mini",
        "--stack", str(scene_dir / "stack"),
        "--labels", str(scene_dir / "labels"),
        "--legend", str(scene_dir / "legend.json"),
        "--plan", str(scene_dir / "plan.json"),
        "--config", str(tmp_path / "cfg.json"),
        "--seed", "2",
        "--out", str(tmp_path / "net"),
    ])
    assert rc == 0
    assert (tmp_path / "net.json").exists()
    assert (tmp_path / "net.bin").exists()
    loss_lines = (tmp_path / "net_loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,train_loss,val_loss"
    assert len(loss_lines) == 2

    rc = main([
        "predict", "--model", str(tmp_path / "net"),
        "--stack", str(scene_dir / "stack"),
        "--plan", str(scene_dir / "plan.json"),
        "--out", str(tmp_path / "net_pred"),
    ])
    assert rc == 0
    probs = read_raster(tmp_path / "net_pred_probs")
    assert probs.n_bands == 6

    rc = main([
        "ensemble",
        "--probs", str(tmp_path / "net_pred_probs"),
        str(tmp_path / "net_pred_probs"), str(tmp_path / "net_pred_probs"),
        "--out", str(tmp_path / "merged"),
    ])
    assert rc == 0
    merged = read_raster(tmp_path / "merged_probs")
    a = read_labels(tmp_path / "merged_labels")
    b = read_labels(tmp_path / "net_pred_labels")
    assert np.array_equal(a.labels, b.labels)
    assert np.allclose(merged.data.sum(axis=0), 1.0, atol=1e-5)


def test_missing_file_exit_code(tmp_path):
    rc = main(["evaluate", "--pred", str(tmp_path / "nope"),
               "--truth", str(tmp_path / "nope"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2


def test_net_predict_without_plan(scene_dir, tmp_path):
    rc = main(["predict", "--model", str(tmp_path / "missing_net"),
               "--stack", str(scene_dir / "stack"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_predict_rejects_other_weights_version(scene_dir, tmp_path):
    assert main(["tile", "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--out", str(tmp_path / "plan.json")]) == 0
    net = build_network("psp_mini", in_ch=7, n_classes=6, width=4, patch=64)
    save_network(net, tmp_path / "net")
    args = ["predict", "--model", str(tmp_path / "net"),
            "--stack", str(scene_dir / "stack"),
            "--plan", str(tmp_path / "plan.json"),
            "--out", str(tmp_path / "pred")]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "net.json").read_text())
    manifest["version"] = 99
    (tmp_path / "net.json").write_text(json.dumps(manifest))
    assert main(args) == 2


def test_predict_rejects_non_object_model(scene_dir, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1]")
    rc = main(["predict", "--model", str(tmp_path / "list.json"),
               "--stack", str(scene_dir / "stack"),
               "--out", str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "list.json" in err and "JSON object" in err


def test_evaluate_rejects_non_object_sidecar(scene_dir, tmp_path, capsys):
    (tmp_path / "pred.json").write_text("[1]")
    (tmp_path / "pred.bin").write_bytes((scene_dir / "labels.bin").read_bytes())
    rc = main(["evaluate", "--pred", str(tmp_path / "pred"),
               "--truth", str(scene_dir / "labels"),
               "--legend", str(scene_dir / "legend.json"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pred.json" in err and "JSON object" in err


_CLASS = {"id": 0, "name": "a", "color": [1, 2, 3]}


@pytest.mark.parametrize("legend,named", [
    ([1], "JSON object, got list"),
    ({"classes": [_CLASS], "colour": 1}, "unknown key 'colour'"),
    ({"classes": [{**_CLASS, "rgb": [1, 2, 3]}]}, "unknown key 'rgb'"),
    ({"classes": [{"id": 0, "name": "a"}]}, "'color'"),
    ({"nodata_id": 255}, "'classes' list"),
    ({"classes": [{**_CLASS, "color": "red"}]}, "'color': expected a list"),
])
def test_evaluate_rejects_bad_legend(scene_dir, tmp_path, capsys, legend,
                                     named):
    (tmp_path / "bad_legend.json").write_text(json.dumps(legend))
    rc = main(["evaluate", "--pred", str(scene_dir / "labels"),
               "--truth", str(scene_dir / "labels"),
               "--legend", str(tmp_path / "bad_legend.json"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_legend.json" in err and named in err


def test_evaluate_rejects_string_sidecar_dims(scene_dir, tmp_path, capsys):
    sidecar = json.loads((scene_dir / "labels.json").read_text())
    sidecar["width"] = str(sidecar["width"])
    (tmp_path / "pred.json").write_text(json.dumps(sidecar))
    (tmp_path / "pred.bin").write_bytes((scene_dir / "labels.bin").read_bytes())
    rc = main(["evaluate", "--pred", str(tmp_path / "pred"),
               "--truth", str(scene_dir / "labels"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pred.json: sidecar 'width'" in err
    assert len(err.replace(str(tmp_path), "")) < 120


@pytest.mark.parametrize("bands", [5, None, [1, 2, 3, 4, 5, 6, 7],
                                   ["blue", 2, "red"], ["blue"] * 7])
def test_train_pixel_rejects_bad_sidecar_bands(scene_dir, tmp_path, capsys,
                                               bands):
    sidecar = json.loads((scene_dir / "stack.json").read_text())
    if bands is None:
        del sidecar["bands"]
    else:
        sidecar["bands"] = bands
    (tmp_path / "bad.json").write_text(json.dumps(sidecar))
    (tmp_path / "bad.bin").write_bytes((scene_dir / "stack.bin").read_bytes())
    rc = main(["train-pixel", "--algo", "cart", "--stack",
               str(tmp_path / "bad"), "--labels", str(scene_dir / "labels"),
               "--out", str(tmp_path / "cart.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json: sidecar 'bands'" in err
    assert not (tmp_path / "cart.json").exists()


@pytest.mark.parametrize("stem", ["stack", "labels"])
@pytest.mark.parametrize("byte_order", ["big", None, 1])
def test_train_pixel_rejects_other_byte_order(scene_dir, tmp_path, capsys,
                                              stem, byte_order):
    sidecar = json.loads((scene_dir / f"{stem}.json").read_text())
    if byte_order is None:
        del sidecar["byte_order"]
    else:
        sidecar["byte_order"] = byte_order
    (tmp_path / "bad.json").write_text(json.dumps(sidecar))
    (tmp_path / "bad.bin").write_bytes((scene_dir / f"{stem}.bin").read_bytes())
    inputs = {"stack": str(scene_dir / "stack"),
              "labels": str(scene_dir / "labels"), stem: str(tmp_path / "bad")}
    rc = main(["train-pixel", "--algo", "cart", "--stack", inputs["stack"],
               "--labels", inputs["labels"],
               "--out", str(tmp_path / "cart.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad.json: sidecar 'byte_order' must be one of 'little', got " \
           f"{byte_order!r}" in err, err
    assert not (tmp_path / "cart.json").exists()


@pytest.mark.parametrize("option", ["stack", "model", "params", "config"])
def test_json_syntax_error_names_the_file(scene_dir, documents, tmp_path,
                                          capsys, option):
    # single quotes: "Expecting property name enclosed in double quotes"
    (tmp_path / "bad.json").write_text("{'epochs': 1}\n")
    (tmp_path / "bad.bin").write_bytes((scene_dir / "stack.bin").read_bytes())
    data = ["--stack", str(scene_dir / "stack"),
            "--labels", str(scene_dir / "labels")]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "stack": ["train-pixel", "--algo", "cart", "--stack",
                  str(tmp_path / "bad"), "--labels",
                  str(scene_dir / "labels"), *out],
        "model": ["predict", "--model", str(tmp_path / "bad.json"),
                  "--stack", str(scene_dir / "stack"), *out],
        "params": ["train-pixel", "--algo", "rf", *data,
                   "--params", str(tmp_path / "bad.json"), *out],
        "config": ["train-net", "--arch", "psp_mini", *data,
                   "--plan", str(documents / "plan.json"),
                   "--config", str(tmp_path / "bad.json"), *out],
    }[option]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'bad.json'}: Expecting "
                          f"property name"), err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("rows, named", [
    (["1,2,0", "3,4"], "line 3"),
    (["1,x,0"], "line 2"),
])
def test_evaluate_names_bad_points_row(scene_dir, tmp_path, capsys, rows,
                                       named):
    (tmp_path / "x.csv").write_text("\n".join(["row,col,class_id", *rows]))
    rc = main(["evaluate", "--pred", str(scene_dir / "labels"),
               "--truth", str(tmp_path / "x.csv"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "x.csv" in err and named in err


def test_synth_names_unknown_spec_key(tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps({"widht": 64}))
    rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'widht'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_names_missing_tree_field(scene_dir, tmp_path, capsys):
    x = np.arange(14.0).reshape(2, 7)
    save_model(rf_train(x, np.array([0, 1]), n_trees=2, min_leaf=1),
               tmp_path / "rf.json")
    doc = json.loads((tmp_path / "rf.json").read_text())
    del doc["model"]["trees"][1]["feature"]
    (tmp_path / "rf.json").write_text(json.dumps(doc))
    rc = main(["predict", "--model", str(tmp_path / "rf.json"),
               "--stack", str(scene_dir / "stack"),
               "--out", str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "DecisionTree" in err and "'feature'" in err


def test_predict_names_missing_svm_gamma(scene_dir, tmp_path, capsys):
    x = np.arange(28.0).reshape(4, 7)
    save_model(svm_train(x, np.array([0, 1, 0, 1]), gamma=0.5),
               tmp_path / "svm.json")
    doc = json.loads((tmp_path / "svm.json").read_text())
    del doc["model"]["gamma"]
    (tmp_path / "svm.json").write_text(json.dumps(doc))
    rc = main(["predict", "--model", str(tmp_path / "svm.json"),
               "--stack", str(scene_dir / "stack"),
               "--out", str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "SvmClassifier" in err and "'gamma'" in err
    assert not (tmp_path / "pred_labels.json").exists()


def test_predict_rejects_non_object_plan(scene_dir, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1]")
    save_network(build_network("psp_mini", in_ch=7, n_classes=6, width=4,
                               patch=64), tmp_path / "net")
    assert main(["predict", "--model", str(tmp_path / "net"),
                 "--stack", str(scene_dir / "stack"),
                 "--plan", str(tmp_path / "list.json"),
                 "--out", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    assert "list.json" in err and "JSON object" in err


def test_predict_names_missing_layers_field(scene_dir, tmp_path, capsys):
    assert main(["tile", "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--out", str(tmp_path / "plan.json")]) == 0
    save_network(build_network("psp_mini", in_ch=7, n_classes=6, width=4,
                               patch=64), tmp_path / "net")
    manifest = json.loads((tmp_path / "net.json").read_text())
    del manifest["layers"]
    (tmp_path / "net.json").write_text(json.dumps(manifest))
    rc = main(["predict", "--model", str(tmp_path / "net"),
               "--stack", str(scene_dir / "stack"),
               "--plan", str(tmp_path / "plan.json"),
               "--out", str(tmp_path / "pred")])
    assert rc == 2
    assert "'layers' field" in capsys.readouterr().err


def test_train_net_fails_on_diverging_loss(scene_dir, tmp_path, capsys):
    assert main(["tile", "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--stride", "32", "--out", str(tmp_path / "plan.json")]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"epochs": 1, "width": 4, "lr": 1e300}))
    rc = main(["train-net", "--arch", "psp_mini",
               "--stack", str(scene_dir / "stack"),
               "--labels", str(scene_dir / "labels"),
               "--plan", str(tmp_path / "plan.json"),
               "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "net")])
    assert rc == 2
    assert "epoch 0; training diverged" in capsys.readouterr().err
    assert not (tmp_path / "net.json").exists()
    assert not (tmp_path / "net.bin").exists()


def test_nan_at_nodata_pixel_reaches_no_net(scene_dir, tmp_path, capsys):
    stack = read_raster(scene_dir / "stack")
    # inside every tile that covers row 70, at a pixel made nodata, which
    # read_raster lets hold any value
    stack.data[0, 70, 5] = np.nan
    stack.valid_mask[70, 5] = False
    write_raster(stack, tmp_path / "stack")
    common = ["--stack", str(tmp_path / "stack"),
              "--plan", str(tmp_path / "plan.json")]
    assert main(["tile", "--stack", str(tmp_path / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--stride", "32", "--out", str(tmp_path / "plan.json")]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 1, "width": 4}))
    assert main(["train-net", "--arch", "psp_mini", *common,
                 "--labels", str(scene_dir / "labels"),
                 "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "net")]) == 0
    assert "diverged" not in capsys.readouterr().err
    save_network(build_network("unet_mini", in_ch=7, n_classes=6, width=4,
                               patch=64), tmp_path / "unet")
    for model in ("net", "unet"):
        assert main(["predict", "--model", str(tmp_path / model), *common,
                     "--out", str(tmp_path / model)]) == 0
        probs = read_raster(tmp_path / f"{model}_probs")
        assert np.isfinite(probs.data[:, stack.valid_mask]).all()


def test_nan_at_nodata_pixel_maps_to_a_distribution(scene_dir, tmp_path):
    stack = read_raster(scene_dir / "stack")
    stack.data[:, 70, 5] = np.nan
    stack.valid_mask[70, 5] = False
    write_raster(stack, tmp_path / "stack")
    for algo in ("cart", "rf", "svm"):
        assert main(["train-pixel", "--algo", algo,
                     "--stack", str(scene_dir / "stack"),
                     "--labels", str(scene_dir / "labels"),
                     "--samples", "30", "--out", str(tmp_path / algo)]) == 0
        assert main(["predict", "--model", str(tmp_path / algo),
                     "--stack", str(tmp_path / "stack"),
                     "--out", str(tmp_path / algo)]) == 0
        probs = read_raster(tmp_path / f"{algo}_probs").data
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)
    maps = [str(tmp_path / f"{algo}_probs") for algo in ("cart", "rf", "svm")]
    assert main(["ensemble", "--probs", *maps,
                 "--out", str(tmp_path / "merged")]) == 0


def _non_finite_input(scene_dir, tmp_path, stage, value):
    """argv of `stage` reading one raster that holds `value` at a valid
    pixel, with every output under tmp_path / "out"; and that pixel."""
    stack = read_raster(scene_dir / "stack")
    row, col = (int(i) for i in np.argwhere(stack.valid_mask)[1000])
    assert main(["tile", "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--stride", "32", "--out", str(tmp_path / "plan.json")]) == 0
    bad = tmp_path / "bad"
    out = tmp_path / "out"
    if stage == "ensemble":
        probs = np.full((3, stack.height, stack.width), 1 / 3, np.float32)
        probs[2, row, col] = value
        write_raster(Raster(stack.width, stack.height, ["p0", "p1", "p2"],
                            probs, stack.valid_mask), bad)
        return ["ensemble", "--probs", str(bad), str(bad),
                "--out", str(out / "merged")], (2, row, col)
    stack.data[4, row, col] = value
    write_raster(stack, bad)
    common = ["--stack", str(bad), "--labels", str(scene_dir / "labels")]
    if stage == "train-pixel":
        return (["train-pixel", "--algo", "cart", *common, "--samples", "20",
                 "--out", str(out / "cart.json")], (4, row, col))
    if stage == "train-net":
        (tmp_path / "cfg.json").write_text('{"epochs": 1, "width": 4}')
        return (["train-net", "--arch", "psp_mini", *common,
                 "--plan", str(tmp_path / "plan.json"),
                 "--config", str(tmp_path / "cfg.json"),
                 "--out", str(out / "net")], (4, row, col))
    save_network(build_network("segnet_mini", in_ch=7, n_classes=6, width=4,
                               patch=64), tmp_path / "net")
    return (["predict", "--model", str(tmp_path / "net"), "--stack", str(bad),
             "--plan", str(tmp_path / "plan.json"), "--out", str(out / "p")],
            (4, row, col))


@pytest.mark.parametrize("stage, value", [
    ("predict", np.nan), ("train-net", np.inf), ("train-pixel", np.nan),
    ("ensemble", -np.inf),
])
def test_stage_rejects_non_finite_value_at_valid_pixel(scene_dir, tmp_path,
                                                       capsys, stage, value):
    argv, (band, row, col) = _non_finite_input(scene_dir, tmp_path, stage,
                                               value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad.bin: non-finite value {np.float32(value)} in band {band}" in err
    assert f"at valid pixel (row {row}, col {col})" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, value, param", [
    ("--scenes", "0", "n_scenes"), ("--scenes", "-2", "n_scenes"),
    ("--svm-per-class", "0", "svm_per_class"),
    ("--svm-per-class", "-1", "svm_per_class"),
])
def test_experiment_rejects_bad_counts(tmp_path, capsys, option, value, param):
    rc = main(["experiment", "table2", "--seed", "1", "--algos", "cart",
               "--scene-size", "64", option, value,
               "--out", str(tmp_path / "t2.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{option}: '{param}' must be an integer of at least 1" in err
    assert not (tmp_path / "t2.json").exists()


@pytest.mark.parametrize("algos", ["cart,xyz", "rf,rf"])
def test_experiment_checks_algos_before_any_work(tmp_path, capsys,
                                                 monkeypatch, algos):
    scenes = []
    monkeypatch.setattr(experiment, "generate_scene", scenes.append)
    rc = main(["experiment", "table2", "--seed", "1", "--algos", algos,
               "--scene-size", "64", "--out", str(tmp_path / "t2.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("--algos: 'algorithms' must be distinct names out of "
            "cart, rf, svm") in err, err
    assert scenes == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("patch, message", [
    ("0", "'patch' must be an integer of at least 1, got 0"),
    ("-4", "'patch' must be an integer of at least 1, got -4"),
    ("6", "--patch must be divisible by 4, got 6"),
    ("30", "--patch must be divisible by 4, got 30"),
])
def test_tile_rejects_a_patch_no_net_takes(scene_dir, tmp_path, capsys,
                                           monkeypatch, patch, message):
    cut = []
    monkeypatch.setattr(cli, "extract_tiles", lambda *a: cut.append(a))
    rc = main(["tile", "--stack", str(scene_dir / "stack"),
               "--labels", str(scene_dir / "labels"), "--patch", patch,
               "--out", str(tmp_path / "plan.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err, err
    assert cut == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stage", ["train-pixel", "train-net"])
def test_training_stage_rejects_labels_outside_the_legend(
        scene_dir, documents, tmp_path, capsys, stage):
    default_legend(3).save(tmp_path / "legend3.json")
    common = ["--stack", str(scene_dir / "stack"),
              "--labels", str(scene_dir / "labels"),
              "--legend", str(tmp_path / "legend3.json")]
    out = tmp_path / "out"
    out.mkdir()
    if stage == "train-pixel":
        argv = ["train-pixel", "--algo", "cart", *common, "--samples", "20",
                "--out", str(out / "cart.json")]
    else:
        (tmp_path / "cfg.json").write_text('{"epochs": 1, "width": 4}')
        argv = ["train-net", "--arch", "psp_mini", *common,
                "--plan", str(documents / "plan.json"),
                "--config", str(tmp_path / "cfg.json"),
                "--out", str(out / "net")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{scene_dir / 'labels'}.bin: illegal class id 3" in err, err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["tile", "--stack", "{scene}/stack", "--labels", "{scene}/labels"],
    ["train-pixel", "--algo", "rf", "--stack", "{scene}/stack",
     "--labels", "{scene}/labels"],
    ["train-net", "--arch", "psp_mini", "--stack", "{scene}/stack",
     "--labels", "{scene}/labels", "--plan", "{documents}/plan.json"],
    ["experiment", "table2", "--algos", "cart", "--scene-size", "64"],
], ids=lambda argv: argv[0])
def test_negative_seed_names_the_option(scene_dir, documents, tmp_path,
                                        capsys, argv):
    argv = [a.format(scene=scene_dir, documents=documents) for a in argv]
    assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--seed must be at least 0, got -1" in err, err
    assert list(tmp_path.iterdir()) == []


def test_experiment_help_shows_library_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    params = inspect.signature(table2_experiment).parameters
    for option, name in [("--scenes SCENES", "n_scenes"),
                         ("--n-per-class N_PER_CLASS", "n_per_class"),
                         ("--svm-per-class SVM_PER_CLASS", "svm_per_class"),
                         ("--trees TREES", "n_trees")]:
        assert f"{option} default: {params[name].default}" in out
    assert f"--scene-size SCENE_SIZE default: {TABLE2_SCENE_SIZE}" in out
    assert "--algos ALGOS default: cart,rf,svm" in out


def test_train_net_help_shows_network_width_default(capsys):
    with pytest.raises(SystemExit):
        main(["train-net", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    width = inspect.signature(build_network).parameters["width"].default
    assert f"width (default {width}) and class_weighting (default true)" in out


def test_stage_help_shows_library_defaults(capsys):
    for stage, option, fn, name in [
            ("tile", "--patch PATCH", plan_tiles, "patch"),
            ("train-pixel", "--samples SAMPLES", stratified_sample,
             "n_per_class")]:
        with pytest.raises(SystemExit):
            main([stage, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        default = inspect.signature(fn).parameters[name].default
        assert re.search(f"{option} .*default: {default}\\b", out)


@pytest.fixture(scope="module")
def documents(scene_dir, tmp_path_factory):
    """A tile plan, a psp_mini weights stem, and an RF and an SVM model of
    the scene's bands."""
    out = tmp_path_factory.mktemp("documents")
    assert main(["tile", "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--out", str(out / "plan.json")]) == 0
    save_network(build_network("psp_mini", in_ch=7, n_classes=6, width=4,
                               patch=64), out / "net")
    save_model(rf_train(np.arange(14.0).reshape(2, 7), np.array([0, 1]),
                        n_trees=2, min_leaf=1), out / "rf.json")
    save_model(svm_train(np.arange(28.0).reshape(4, 7), np.array([0, 1, 0, 1]),
                         gamma=0.5), out / "svm.json")
    return out


def _set(*path, value):
    """Edit that sets doc[path...] to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _tree(feature=(0, -1, -1), hist=((1, 1), (1, 0), (0, 1)), n_classes=2):
    """Edit that makes the forest's first tree one split over two leaves."""
    return _set("model", "trees", 0, value={
        "feature": list(feature), "threshold": [0.5, 0, 0],
        "left": [1, -1, -1], "right": [2, -1, -1], "hist": list(hist),
        "n_classes": n_classes, "min_leaf": 1, "max_depth": None})


def _retag(doc):
    doc["splits"]["bogus"] = doc["splits"].pop("test")


def _off_grid(key):
    def edit(doc):
        anchors = doc["plan"]["anchors"] if key == "plan" else (
            doc["splits"]["train"])
        anchors[0] = [1, 1]
    return edit


def _case(id, file, edit, *named):
    return pytest.param(file, edit, named, id=id)


@pytest.mark.parametrize("file, edit, named", [
    _case("spec-width", "spec.json", _set("width", value="128"), "'width'",
          "'128'"),
    _case("spec-dem_range", "spec.json", _set("dem_range", value="ab"),
          "'dem_range'", "expected a list"),
    _case("spec-dem_range-str", "spec.json",
          _set("dem_range", value=["a", "b"]), "'dem_range'", "'a'"),
    _case("spec-dem_range-bool", "spec.json",
          _set("dem_range", value=[True, 2000]), "'dem_range'", "True"),
    _case("spec-spectral_means", "spec.json",
          _set("spectral_means", value=[["1"] * 5] * 6),
          "'spectral_means'", "'1'"),
    _case("rf-threshold-nan", "rf.json",
          _set("model", "trees", 0, "threshold", 0, value=float("nan")),
          "'threshold'", "NaN"),
    _case("rf-tree-child", "rf.json",
          _set("model", "trees", 0, value={
              "feature": [0, -1, -1], "threshold": [0.5, 0, 0],
              "left": [9, -1, -1], "right": [2, -1, -1],
              "hist": [[1, 1], [1, 0], [0, 1]], "n_classes": 2,
              "min_leaf": 1, "max_depth": None}),
          "'trees'", "do not form a tree"),
    _case("rf-n_classes", "rf.json", _set("model", "n_classes", value="6"),
          "'n_classes'"),
    # a forest document as written before its OOB sets were re-drawn
    _case("rf-oob_indices", "rf.json",
          _set("model", "oob_indices", value=[[], [0]]),
          "unknown key 'oob_indices'"),
    _case("rf-seed", "rf.json", _set("model", "seed", value=-1), "'seed'"),
    _case("plan-patch", "plan.json", _set("plan", "patch", value="32"),
          "'patch'"),
    _case("plan-anchor", "plan.json", _off_grid("plan"), "'anchors'"),
    _case("splits-list", "plan.json", _set("splits", value=[]), "'splits'",
          "got list"),
    _case("splits-null", "plan.json", _set("splits", value=None),
          "'splits'", "null"),
    _case("split-tag", "plan.json", _retag, "'bogus'"),
    _case("split-anchor", "plan.json", _off_grid("splits"), "'splits'",
          "[1, 1]"),
    _case("net-width", "net.json", _set("width", value="4"), "'width'",
          "'4'"),
    _case("net-in_ch", "net.json", _set("in_ch", value=7.0), "'in_ch'",
          "7.0"),
    _case("net-patch", "net.json", _set("patch", value=None), "'patch'",
          "null"),
    _case("net-patch-6", "net.json", _set("patch", value=6), "patch must be"),
    _case("net-unknown-key", "net.json", _set("extra", value=1),
          "unknown key 'extra'"),
    _case("net-arch", "net.json", _set("arch", value="resnet"), "'arch'"),
    _case("rf-feature", "rf.json", _tree(feature=[9, -1, -1]), "'feature'",
          "9"),
    _case("rf-hist", "rf.json", _tree(hist=[[1, 1, 0], [1, 0, 0], [0, 1, 0]]),
          "'hist'"),
    _case("rf-tree-n_classes", "rf.json",
          _tree(hist=[[1, 1, 0], [0, 0, 1], [0, 1, 0]], n_classes=3),
          "'n_classes' 3"),
    _case("svm-sv-columns", "svm.json",
          _set("model", "pairs", 0, "sv", value=[[0.0] * 6] * 4), "'sv'",
          "6 columns"),
    _case("svm-coef-short", "svm.json",
          _set("model", "pairs", 0, "coef", value=[1.0, -1.0, 0.5]),
          "'coef'"),
    _case("svm-class_pos", "svm.json",
          _set("model", "pairs", 0, "class_pos", value=9), "'class_pos' 9"),
    _case("svm-class_neg", "svm.json",
          _set("model", "pairs", 0, "class_neg", value=-1),
          "'class_neg' -1"),
    _case("svm-class_neg-9", "svm.json",
          _set("model", "pairs", 0, "class_neg", value=9), "'class_neg' 9",
          "outside"),
    _case("svm-n_classes", "svm.json", _set("model", "n_classes", value=0),
          "'n_classes'"),
    _case("svm-pairs-empty", "svm.json", _set("model", "pairs", value=[]),
          "'pairs'"),
    _case("svm-coef-nan", "svm.json",
          _set("model", "pairs", 0, "coef", 0, value=float("nan")),
          "'coef'", "not finite"),
    _case("svm-bias-inf", "svm.json",
          _set("model", "pairs", 0, "bias", value=float("inf")), "'bias'"),
    _case("svm-mean-nan", "svm.json",
          _set("model", "mean", 0, value=float("nan")), "'mean'"),
    _case("svm-std-zero", "svm.json", _set("model", "std", 0, value=0.0),
          "'std'"),
    _case("svm-gamma", "svm.json", _set("model", "gamma", value=-1.0),
          "'gamma'"),
    _case("rf-no-kind", "rf.json", lambda doc: doc.pop("kind"),
          "model 'kind' must be one of", "got None"),
    _case("svm-no-model", "svm.json", lambda doc: doc.pop("model"),
          "model 'model' must be a JSON object, got None"),
    _case("rf-band_names-int", "rf.json", _set("band_names", value=5),
          "model 'band_names' must be a list of distinct band names, got 5"),
    _case("svm-band_names-item", "svm.json",
          _set("band_names", value=["a", 3, "b", "c", "d", "e", "f"]),
          "model 'band_names' must be a list of distinct band names"),
    _case("rf-band_names-repeat", "rf.json",
          _set("band_names", value=["a"] * 7), "model 'band_names'"),
    _case("rf-unknown-key", "rf.json", _set("bands", value=[]),
          "model document has unknown key 'bands'"),
    _case("rf-kind-list", "rf.json", _set("kind", value=["forest"]),
          "model 'kind' must be one of"),
    _case("svm-version", "svm.json", _set("version", value=2),
          "model 'version' must be one of 1, got 2"),
])
def test_malformed_document_names_file_and_key(scene_dir, documents,
                                               tmp_path, capsys, file, edit,
                                               named):
    for name in ("plan.json", "net.json", "net.bin", "rf.json", "svm.json"):
        (tmp_path / name).write_bytes((documents / name).read_bytes())
    (tmp_path / "spec.json").write_text("{}")
    doc = json.loads((tmp_path / file).read_text())
    edit(doc)
    (tmp_path / file).write_text(json.dumps(doc))
    (tmp_path / "out").mkdir()
    out = ["--out", str(tmp_path / "out" / "x")]
    if file == "spec.json":
        argv = ["synth", "--spec", str(tmp_path / file), *out]
    elif file in ("rf.json", "svm.json"):
        argv = ["predict", "--model", str(tmp_path / file),
                "--stack", str(scene_dir / "stack"), *out]
    else:
        argv = ["predict", "--model", str(tmp_path / "net"),
                "--stack", str(scene_dir / "stack"),
                "--plan", str(tmp_path / "plan.json"), *out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    for word in (file, *named):
        assert word in err, err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("file, key, value", [
    ("net.json", "band_mean", float("nan")),
    ("net.json", "band_std", -1.0),
    ("net.json", "band_std", float("inf")),
    ("net.bin", None, float("nan")),
])
def test_predict_rejects_non_finite_weights(scene_dir, documents, tmp_path,
                                            capsys, file, key, value):
    for name in ("plan.json", "net.json", "net.bin"):
        (tmp_path / name).write_bytes((documents / name).read_bytes())
    manifest = json.loads((tmp_path / "net.json").read_text())
    if key is None:  # the blob's first value, in the first layer
        key = manifest["layers"][0]["name"]
        blob = (tmp_path / "net.bin").read_bytes()
        (tmp_path / "net.bin").write_bytes(
            np.array(value, dtype="<f8").tobytes() + blob[8:])
    else:
        manifest[key][0] = value
        (tmp_path / "net.json").write_text(json.dumps(manifest))
    (tmp_path / "out").mkdir()
    assert main(["predict", "--model", str(tmp_path / "net"),
                 "--stack", str(scene_dir / "stack"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "out" / "x")]) == 2
    err = capsys.readouterr().err
    assert f"{file}: " in err and f"{key!r}" in err, err
    assert not any((tmp_path / "out").iterdir())


def test_predict_names_both_sizes_of_a_plan_for_another_raster(
        scene_dir, documents, tmp_path, capsys):
    split = json.loads((documents / "plan.json").read_text())
    split.update(plan=plan_tiles(256, 256, patch=64).to_json(),
                 splits={"train": [], "val": [], "test": []})
    (tmp_path / "plan.json").write_text(json.dumps(split))
    assert main(["predict", "--model", str(documents / "net"),
                 "--stack", str(scene_dir / "stack"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "256x256" in err and "128x128" in err
    assert "internal error" not in err


@pytest.mark.parametrize("algo, trained_on, stack, named", [
    ("cart", "stack", "spectral", "trained on 7 bands, the stack has 5"),
    ("rf", "stack", "spectral", "trained on 7 bands, the stack has 5"),
    ("cart", "spectral", "stack", "trained on 5 bands, the stack has 7"),
    ("svm", "spectral", "stack", "trained on 5 bands, the stack has 7"),
])
def test_predict_names_both_band_counts(scene_dir, tmp_path, capsys, algo,
                                        trained_on, stack, named):
    assert main(["train-pixel", "--algo", algo,
                 "--stack", str(scene_dir / trained_on),
                 "--labels", str(scene_dir / "labels"),
                 "--legend", str(scene_dir / "legend.json"),
                 "--samples", "10", "--seed", "3",
                 "--out", str(tmp_path / "model.json")]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(tmp_path / "model.json"),
                 "--stack", str(scene_dir / stack),
                 "--out", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    assert "model.json" in err and named in err, err
    assert "internal error" not in err
    assert not list(tmp_path.glob("pred*"))


def test_rf_prediction_is_pinned(scene_dir, tmp_path):
    # sha256 of the map bytes when each tree was walked node by node
    assert main(["train-pixel", "--algo", "rf",
                 "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"),
                 "--legend", str(scene_dir / "legend.json"),
                 "--samples", "150", "--seed", "3",
                 "--out", str(tmp_path / "rf.json")]) == 0
    assert main(["predict", "--model", str(tmp_path / "rf.json"),
                 "--stack", str(scene_dir / "stack"),
                 "--out", str(tmp_path / "rf")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in ("rf_probs.bin", "rf_labels.bin")}
    assert digests == {
        "rf_probs.bin":
            "dbecde5c862f1c6310c52ff674d0ba851ba2e44dc955f433aee26ea463451ad8",
        "rf_labels.bin":
            "cdf29f4c3aada3b7b2605918563f1a1471088300bed70a69cde63c814dab1945",
    }


@pytest.fixture(scope="module")
def ensemble_dir(scene_dir, tmp_path_factory):
    """Two CART maps of the cloud-masked scene (sample seeds 1 and 2) and
    their ensemble, written as <dir>/ens; labels and legend copied beside
    them."""
    out = tmp_path_factory.mktemp("ensemble")
    for stem in ("labels.json", "labels.bin", "legend.json"):
        (out / stem).write_bytes((scene_dir / stem).read_bytes())
    assert main(["preprocess", "--in", str(scene_dir / "spectral"),
                 "--reference", str(scene_dir / "spectral"),
                 "--dem", str(scene_dir / "dem"),
                 "--cloud", str(scene_dir / "cloud"),
                 "--out", str(out / "stack")]) == 0
    assert not read_raster(out / "stack").valid_mask.all()
    for seed in ("1", "2"):
        assert main(["train-pixel", "--algo", "cart",
                     "--stack", str(out / "stack"),
                     "--labels", str(out / "labels"),
                     "--legend", str(out / "legend.json"),
                     "--samples", "100", "--seed", seed,
                     "--out", str(out / f"cart{seed}.json")]) == 0
        assert main(["predict", "--model", str(out / f"cart{seed}.json"),
                     "--stack", str(out / "stack"),
                     "--out", str(out / f"cart{seed}")]) == 0
    assert main(["ensemble", "--probs", str(out / "cart1_probs"),
                 str(out / "cart2_probs"), "--out", str(out / "ens")]) == 0
    return out


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def test_masked_predict_and_ensemble_are_pinned(ensemble_dir):
    assert (read_labels(ensemble_dir / "ens_labels").labels == 255).any()
    assert _digests(ensemble_dir, (
        "cart1_labels.bin", "cart1_probs.bin", "ens_labels.bin",
        "ens_labels.json", "ens_probs.bin", "ens_probs.json")) == {
        "cart1_labels.bin":
            "a4fa2e162a2b0daf594cc23ad47e505f94856ec526cb03f6bc502091f625b828",
        "cart1_probs.bin":
            "cbd5ca0986c2a05f6871f7b0764f5ac02d5a36200ff2434bcf8fb94d9fc0afa5",
        "ens_labels.bin":
            "33cd7475d1467387fac4d1fe63ae8f90bb17d6c727cccddd12fc744926f59d5d",
        "ens_labels.json":
            "867214858914bfbca4e8f4a2282c3b6142461ff6a100d32f425e992a19ad3a6a",
        "ens_probs.bin":
            "b0b7ef509251293901b4b3223374ef70f0dbc506430311d7d94ff7b5fdd2ae94",
        "ens_probs.json":
            "6e47fc0e2c30095ebd7cbe27ec044ccf72a5bd98b5e23b3f46ee9d2cf75cafc2",
    }


@pytest.mark.parametrize("truth", ["labels", "points.csv"])
def test_evaluate_outputs_are_pinned(ensemble_dir, monkeypatch, truth):
    # relative paths, so that the report's provenance names no temp dir
    monkeypatch.chdir(ensemble_dir)
    if truth == "points.csv":
        labels = read_labels("labels").labels
        GroundPointSet(points=[(r, c, int(labels[r, c]))
                               for r in range(3, 128, 9)
                               for c in range(5, 128, 11)
                               if labels[r, c] != 255]).save(truth)
    assert main(["evaluate", "--pred", "ens_labels", "--truth", truth,
                 "--legend", "legend.json", "--out", "report.json"]) == 0
    assert _digests(ensemble_dir, ("report.json", "report.json.cm.csv")) == {
        "labels": {
            "report.json": "305888966048731fc21728ee0c774b5c"
                           "f4a83d4817f51f34f40513419e228b19",
            "report.json.cm.csv": "c639cd0f5280802a21d30c000c50895c"
                                  "f0422f002832229a9a8dc04dfb5a79ec"},
        "points.csv": {
            "report.json": "fb29d81bd68d75bc1688253c6bbd4c91"
                           "4bd8e3546584ebfccca65774a2504392",
            "report.json.cm.csv": "2b2053bfcec66e05b3477cc034b5563d"
                                  "d1ee3ab7ac70b9716e7d4b3ceea229ef"},
    }[truth]


def test_experiment_determinism(tmp_path):
    args = ["experiment", "table2", "--seed", "13", "--scenes", "1",
            "--n-per-class", "60", "--svm-per-class", "30",
            "--algos", "cart,rf", "--trees", "25", "--scene-size", "128"]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    rep = json.loads(a)
    assert rep["protocol"] == "table2"
    assert set(rep["mean_overall_f1"]) == {"cart", "rf"}
    # pins the experiment's constants (the trainers' min_leaf among them)
    assert hashlib.sha256(a).hexdigest() == (
        "18f3098ebbd9172dadbdc11cc8de578b271dd4172a551ce301e8081a56d41451")


def _train_net_with_config(scene_dir, tmp_path, config):
    assert main(["tile", "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--out", str(tmp_path / "plan.json")]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    return main(["train-net", "--arch", "segnet_mini",
                 "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"),
                 "--legend", str(scene_dir / "legend.json"),
                 "--plan", str(tmp_path / "plan.json"),
                 "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "net")])


@pytest.mark.parametrize("config, named", [
    ({"epochs": 1, "widht": 4}, "'widht'"),
    ({"epochs": 1, "augment": False}, "'augment'"),
    ([1], "JSON object"),
    ({"epochs": 1, "class_weights": [1, 2]}, "'class_weights'"),
    ({"epochs": 0}, "epochs"),
    ({"epochs": 1, "batch_size": 0}, "batch_size"),
    ({"epochs": 1.5}, "epochs"),
    ({"epochs": 1, "width": 4.5}, "'width'"),
    ({"epochs": 1, "width": 0}, "'width'"),
    ({"epochs": 1, "lr": "abc"}, "'lr'"),
    ({"epochs": 1, "class_weighting": 1}, "'class_weighting'"),
    ({"epochs": 1, "optimizer": 3}, "'optimizer'"),
    ({"epochs": 1, "lr": -1}, "'lr'"),
    ({"epochs": 1, "momentum": 1.0}, "'momentum'"),
    ({"epochs": 1, "class_weights": [-1.0] * 6}, "'class_weights'"),
    ({"epochs": 1, "class_weights": [float("nan")] * 6}, "'class_weights'"),
    ({"epochs": 1, "class_weights": [0] * 6}, "'class_weights'"),
    ({"epochs": 1, "seed": -1}, "'seed'"),
])
def test_train_net_rejects_bad_config(scene_dir, tmp_path, capsys, config,
                                      named):
    assert _train_net_with_config(scene_dir, tmp_path, config) == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err and named in err
    assert not (tmp_path / "net.json").exists()
    assert not (tmp_path / "net.bin").exists()


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_train_net_rejects_non_finite_lr(scene_dir, tmp_path, capsys,
                                         monkeypatch, lr):
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr("landseg.cli.train", no_training)
    config = {"epochs": 1, "lr": lr}
    assert _train_net_with_config(scene_dir, tmp_path, config) == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err and "'lr'" in err, err
    assert not (tmp_path / "net.json").exists()


def _train_pixel(scene_dir, tmp_path, algo, params=None):
    argv = ["train-pixel", "--algo", algo,
            "--stack", str(scene_dir / "stack"),
            "--labels", str(scene_dir / "labels"),
            "--legend", str(scene_dir / "legend.json"),
            "--samples", "20", "--seed", "3",
            "--out", str(tmp_path / f"{algo}.json")]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv[-2:-2] = ["--params", str(tmp_path / "params.json")]
    return main(argv)


def _assert_rejected(capsys, tmp_path, algo, named):
    err = capsys.readouterr().err
    assert "params.json" in err and named in err
    assert not (tmp_path / f"{algo}.json").exists()


@pytest.mark.parametrize("params, named", [
    ({"n_tree": 5}, "'n_tree'"),
    ([1], "JSON object"),
])
def test_train_pixel_rejects_bad_params(scene_dir, tmp_path, capsys, params,
                                        named):
    assert _train_pixel(scene_dir, tmp_path, "rf", params) == 2
    _assert_rejected(capsys, tmp_path, "rf", named)


@pytest.mark.parametrize("algo, params, named", [
    ("rf", {"n_trees": "5"}, "'n_trees'"),
    ("rf", {"n_trees": 0}, "'n_trees'"),
    ("rf", {"n_trees": True}, "'n_trees'"),
    ("rf", {"min_leaf": 0}, "'min_leaf'"),
    ("cart", {"min_leaf": 2.5}, "'min_leaf'"),
    ("rf", {"mtry": 0}, "'mtry'"),
    ("rf", {"mtry": 1.0}, "'mtry'"),
    ("svm", {"max_iter": 0}, "'max_iter'"),
    ("svm", {"max_iter": False}, "'max_iter'"),
    ("cart", {"max_depth": "3"}, "'max_depth'"),
    ("cart", {"max_depth": 0}, "'max_depth'"),
    ("rf", {"max_depth": True}, "'max_depth'"),
    ("rf", {"bootstrap": 1}, "'bootstrap'"),
    ("rf", {"bootstrap": None}, "'bootstrap'"),
    ("svm", {"C": -1}, "'C'"),
    ("svm", {"C": float("inf")}, "'C'"),
    ("svm", {"gamma": 0}, "'gamma'"),
    ("svm", {"gamma": float("nan")}, "'gamma'"),
    ("svm", {"tol": "1e-3"}, "'tol'"),
    ("svm", {"tol": True}, "'tol'"),
    ("cart", {"mtry": 2}, "'mtry'"),
])
def test_train_pixel_checks_param_values(scene_dir, tmp_path, capsys, algo,
                                         params, named):
    assert _train_pixel(scene_dir, tmp_path, algo, params) == 2
    _assert_rejected(capsys, tmp_path, algo, named)


def _readme_params():
    """{algo: keys} from README's `train-pixel --params` paragraph."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = text[text.index("`train-pixel --params` takes"):]
    para = " ".join(para[:para.index("\n\n")].split())
    return {algo: re.findall(r"`(\w+)`", keys) for algo, keys in
            re.findall(r"for (cart|rf|svm): ((?:`\w+`(?:, |; |\.))+)", para)}


# a valid value of each key, and how the saved model shows it (None: it
# does not keep the value)
PARAM_VALUES = {
    "min_leaf": (3, lambda m: m["min_leaf"]),
    "max_depth": (2, lambda m: m.get("trees", [m])[0]["max_depth"]),
    "n_trees": (4, lambda m: len(m["trees"])),
    "mtry": (2, lambda m: m["mtry"]),
    "C": (10.0, lambda m: m["C"]),
    "gamma": (0.5, lambda m: m["gamma"]),
    "tol": (0.01, lambda m: m["tol"]),
    "max_iter": (10 ** 6, None),
}


def test_readme_lists_each_algo_params():
    assert _readme_params() == {
        "cart": ["min_leaf", "max_depth"],
        "rf": ["min_leaf", "max_depth", "n_trees", "mtry"],
        "svm": ["C", "gamma", "tol", "max_iter"],
    }


@pytest.mark.parametrize("algo, key", [
    (algo, key) for algo, keys in _readme_params().items() for key in keys])
def test_train_pixel_takes_documented_param(scene_dir, tmp_path, capsys,
                                            algo, key):
    # an unknown key lists what the trainer accepts: the documented keys
    assert _train_pixel(scene_dir, tmp_path, algo, {"no_such_key": 1}) == 2
    accepted = capsys.readouterr().err.split("(accepted: ")[1]
    assert accepted.rstrip(")\n").split(", ") == sorted(
        _readme_params()[algo])

    value, saved = PARAM_VALUES[key]
    params = {"n_trees": 4, key: value} if algo == "rf" else {key: value}
    assert _train_pixel(scene_dir, tmp_path, algo, params) == 0
    model = json.loads((tmp_path / f"{algo}.json").read_text())["model"]
    if saved is not None:
        assert saved(model) == value


@pytest.mark.parametrize("algo, digest", [
    ("cart",
     "339c062f77d78d7f4467196fbeeb09d566fb746ad37d5b8fce60935c92233ffa"),
    # the forest as saved when its OOB sets were stored, less 'oob_indices'
    ("rf", "7909a9f6b3efdc3a9427497d6b7e24a7ea5fa36c4b4d8725b30ad656ee74a1a6"),
    ("svm",
     "6ac00ca08ab9ee7b99ea9cccb56e43610f4dc11da604376a554c184c1c737307"),
])
def test_train_pixel_default_model_is_pinned(scene_dir, tmp_path, algo,
                                             digest):
    # the Table 3 defaults live in the trainers' signatures; a changed
    # default changes these bytes
    assert _train_pixel(scene_dir, tmp_path, algo) == 0
    data = (tmp_path / f"{algo}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


MANIFEST_KEYS = {"stage", "inputs", "outputs", "seed", "timestamp", "version"}


def _manifest_lines(directory):
    path = directory / "run_manifest.jsonl"
    return path.read_text().splitlines() if path.exists() else []


def _run_recorded(directory, argv, inputs, seed):
    """Run one stage; check it appended one entry naming its inputs, its
    existing outputs and its effective seed."""
    before = _manifest_lines(directory)
    assert main(argv) == 0
    lines = _manifest_lines(directory)
    assert lines[:-1] == before and len(lines) == len(before) + 1
    entry = json.loads(lines[-1])
    assert set(entry) == MANIFEST_KEYS
    assert entry["stage"].startswith(argv[0])
    for option, path in inputs.items():
        assert entry["inputs"][option] == path
    assert entry["seed"] == seed
    for out in entry["outputs"]:
        assert Path(out).exists() or Path(out + ".json").exists(), out
    return entry


def test_each_stage_appends_one_manifest_entry(tmp_path):
    def p(name):
        return str(tmp_path / name)

    (tmp_path / "spec.json").write_text(json.dumps(
        {"width": 128, "height": 128, "cloud_fraction": 0.02}))
    stages = [
        (["synth", "--spec", p("spec.json"), "--seed", "21",
          "--out", str(tmp_path)], {"spec": p("spec.json")}, 21),
        (["preprocess", "--in", p("spectral"), "--reference", p("spectral"),
          "--dem", p("dem"), "--cloud", p("cloud"), "--out", p("prep")],
         {"input": p("spectral"), "reference": p("spectral"),
          "dem": p("dem"), "cloud": p("cloud")}, None),
        (["tile", "--stack", p("stack"), "--labels", p("labels"),
          "--patch", "64", "--seed", "5", "--out", p("plan.json")],
         {"stack": p("stack"), "labels": p("labels")}, 5),
        (["train-pixel", "--algo", "cart", "--stack", p("stack"),
          "--labels", p("labels"), "--samples", "20", "--seed", "3",
          "--out", p("cart.json")],
         {"stack": p("stack"), "labels": p("labels")}, 3),
        (["train-net", "--arch", "psp_mini", "--stack", p("stack"),
          "--labels", p("labels"), "--plan", p("plan.json"), "--seed", "2",
          "--out", p("net")],
         {"stack": p("stack"), "labels": p("labels"),
          "plan": p("plan.json")}, 2),
        (["predict", "--model", p("cart.json"), "--stack", p("stack"),
          "--out", p("cart")],
         {"model": p("cart.json"), "stack": p("stack")}, None),
        (["ensemble", "--probs", p("cart_probs"), p("cart_probs"),
          "--out", p("merged")],
         {"probs": p("cart_probs") + "," + p("cart_probs")}, None),
        (["evaluate", "--pred", p("merged_labels"), "--truth", p("labels"),
          "--out", p("report.json")],
         {"pred": p("merged_labels"), "truth": p("labels")}, None),
        (["experiment", "table2", "--seed", "13", "--scenes", "1",
          "--n-per-class", "20", "--algos", "cart", "--scene-size", "128",
          "--out", p("table2.json")], {}, 13),
    ]
    for argv, inputs, seed in stages:
        _run_recorded(tmp_path, argv, inputs, seed)
    assert len(_manifest_lines(tmp_path)) == len(stages)

    # a stage that exits 2 appends nothing
    (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 0}))
    for argv in (["tile", "--stack", p("nope"), "--labels", p("labels"),
                  "--out", p("plan2.json")],
                 ["train-net", "--arch", "psp_mini", "--stack", p("stack"),
                  "--labels", p("labels"), "--plan", p("plan.json"),
                  "--config", p("cfg.json"), "--out", p("net2")]):
        assert main(argv) == 2
    assert len(_manifest_lines(tmp_path)) == len(stages)


def test_cart_feature_past_its_bands_is_named(scene_dir, tmp_path, capsys):
    assert _train_pixel(scene_dir, tmp_path, "cart") == 0
    doc = json.loads((tmp_path / "cart.json").read_text())
    doc["model"]["feature"][0] = 9
    (tmp_path / "cart.json").write_text(json.dumps(doc))
    assert main(["predict", "--model", str(tmp_path / "cart.json"),
                 "--stack", str(scene_dir / "stack"),
                 "--out", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    assert "cart.json" in err and "'feature' 9 of 7 bands" in err, err
    assert not list(tmp_path.glob("pred*"))


def test_each_stage_records_its_optional_inputs(scene_dir, tmp_path):
    def s(name):
        return str(scene_dir / name)

    def p(name):
        return str(tmp_path / name)

    (tmp_path / "params.json").write_text(json.dumps({"min_leaf": 3}))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"epochs": 1, "width": 4, "seed": 9}))
    _run_recorded(tmp_path, [
        "tile", "--stack", s("stack"), "--labels", s("labels"),
        "--patch", "64", "--out", p("plan.json")], {}, 0)
    _run_recorded(tmp_path, [
        "train-pixel", "--algo", "cart", "--stack", s("stack"),
        "--labels", s("labels"), "--legend", s("legend.json"),
        "--params", p("params.json"), "--samples", "20",
        "--out", p("cart.json")],
        {"legend": s("legend.json"), "params": p("params.json")}, 0)
    # without --seed the config's seed is the effective one
    _run_recorded(tmp_path, [
        "train-net", "--arch", "psp_mini", "--stack", s("stack"),
        "--labels", s("labels"), "--legend", s("legend.json"),
        "--plan", p("plan.json"), "--config", p("cfg.json"),
        "--out", p("net")],
        {"legend": s("legend.json"), "config": p("cfg.json")}, 9)
    _run_recorded(tmp_path, [
        "predict", "--model", p("net"), "--stack", s("stack"),
        "--plan", p("plan.json"), "--out", p("net")],
        {"model": p("net"), "plan": p("plan.json")}, None)
    entry = _run_recorded(tmp_path, [
        "evaluate", "--pred", p("net_labels"), "--truth", s("labels"),
        "--legend", s("legend.json"), "--out", p("report.json")],
        {"legend": s("legend.json")}, None)
    assert set(entry["inputs"]) == {"pred", "truth", "legend"}


@pytest.mark.parametrize("option, value, noun", [
    ("--legend", "nope.json", "legend not found"),
    ("--params", "nope.json", "params file not found"),
])
def test_optional_input_is_required_when_given(scene_dir, tmp_path, capsys,
                                               option, value, noun):
    assert main(["train-pixel", "--algo", "cart",
                 "--stack", str(scene_dir / "stack"),
                 "--labels", str(scene_dir / "labels"),
                 option, str(tmp_path / value),
                 "--out", str(tmp_path / "cart.json")]) == 2
    assert noun in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _probs_raster(path, width, height, k):
    data = np.full((k, height, width), 1.0 / k, dtype=np.float32)
    write_raster(Raster(width, height, [f"prob_{i}" for i in range(k)], data,
                        np.ones((height, width), dtype=bool)), path)


@pytest.mark.parametrize("shape_b, named", [
    ((16, 8, 3), ["a (8x8, 3 classes)", "b (16x8, 3 classes)"]),
    ((8, 8, 4), ["a (8x8, 3 classes)", "b (8x8, 4 classes)"]),
])
def test_ensemble_names_both_rasters_that_differ(tmp_path, capsys, shape_b,
                                                 named):
    _probs_raster(tmp_path / "a", 8, 8, 3)
    _probs_raster(tmp_path / "b", *shape_b)
    assert main(["ensemble", "--probs", str(tmp_path / "a"),
                 str(tmp_path / "b"), "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    for word in named:
        assert word in err, err
    assert not list(tmp_path.glob("m*"))


@pytest.mark.parametrize("model", ["cart", "net"])
@pytest.mark.parametrize("exc, rc, prefix", [
    (ValueError, 2, "error: "), (RuntimeError, 1, "internal error: "),
])
def test_predict_error_in_a_worker_reaches_the_cli(scene_dir, tmp_path,
                                                   monkeypatch, capsys,
                                                   model, exc, rc, prefix):
    if model == "cart":
        x = np.arange(28.0).reshape(4, 7)
        save_model(cart_train(x, np.array([0, 1, 0, 1]), min_leaf=1),
                   tmp_path / "cart.json")
        args = ["--model", str(tmp_path / "cart.json")]
        cls, method = DecisionTree, "predict_proba"
        monkeypatch.setattr(models, "PIXEL_CHUNK", 4096)
    else:
        assert main(["tile", "--stack", str(scene_dir / "stack"),
                     "--labels", str(scene_dir / "labels"), "--patch", "32",
                     "--out", str(tmp_path / "plan.json")]) == 0
        save_network(build_network("psp_mini", in_ch=7, n_classes=6,
                                   width=4, patch=32), tmp_path / "net")
        args = ["--model", str(tmp_path / "net"),
                "--plan", str(tmp_path / "plan.json")]
        cls, method = _MiniNet, "predict_probs"
    real = getattr(cls, method)

    def failing(self, x):
        if threading.current_thread() is not threading.main_thread():
            raise exc("a worker failed")
        return real(self, x)

    monkeypatch.setattr(cls, method, failing)
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    capsys.readouterr()
    before = threading.active_count()
    assert main(["predict", "--stack", str(scene_dir / "stack"), *args,
                 "--out", str(tmp_path / "pred")]) == rc
    assert capsys.readouterr().err == prefix + "a worker failed\n"
    assert threading.active_count() == before
    assert not (tmp_path / "pred_probs.json").exists()
