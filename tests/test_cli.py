import json

import numpy as np
import pytest

from landseg import GroundPointSet, read_labels, read_raster, write_raster
from landseg.cli import main
from landseg.nn import build_network, save_network
from landseg.synth import SceneSpec


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


def test_train_net_fails_on_nan_input(scene_dir, tmp_path, capsys):
    stack = read_raster(scene_dir / "stack")
    stack.data[0, 70, :] = np.nan   # inside every tile that covers row 70
    write_raster(stack, tmp_path / "stack")
    assert main(["tile", "--stack", str(tmp_path / "stack"),
                 "--labels", str(scene_dir / "labels"), "--patch", "64",
                 "--stride", "32", "--out", str(tmp_path / "plan.json")]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 1, "width": 4}))
    rc = main(["train-net", "--arch", "psp_mini",
               "--stack", str(tmp_path / "stack"),
               "--labels", str(scene_dir / "labels"),
               "--plan", str(tmp_path / "plan.json"),
               "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "net")])
    assert rc == 2
    assert "epoch 0" in capsys.readouterr().err
    assert not (tmp_path / "net.json").exists()
    assert not (tmp_path / "net.bin").exists()


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
