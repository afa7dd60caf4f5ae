"""Fast tests of the benchmark itself, at the "tiny" scale.

    python3 -m pytest bench/test_bench.py -q

A smoke run of every workload, traced and untraced, and one case per
output check showing that it fires on a deliberately corrupted copy of a
run's outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """Untraced tiny runs of pixel_map and net_map, outputs kept."""
    out = {}
    for name in ("pixel_map", "net_map"):
        work = tmp_path_factory.mktemp(name) / "work"
        result, info = run.run(name, SEED, 0.0, False, "tiny", ROOT,
                               work=work, keep=True)
        out[name] = (result, info, work)
    return out


def _copy(kept, name, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(kept[name][2], dst)
    return workloads.build(name, SEED, "tiny"), dst


def _failed_checks(w, work):
    failures, _ = checks.check_outputs(work, w, SEED)
    return {f.split(":")[0] for f in failures}


def _edit(path: Path, dtype, edit):
    """Apply edit to the file's bytes viewed as dtype, in place."""
    body = bytearray(path.read_bytes())
    edit(np.frombuffer(body, dtype=dtype, count=len(body) // np.dtype(
        dtype).itemsize))
    path.write_bytes(bytes(body))


def _clear_pixel(work: Path, prefix: str):
    """Flat index of a valid pixel whose top two probabilities differ."""
    probs, valid = checks.read_raster(work / f"{prefix}_probs")
    top2 = np.sort(probs, axis=0)[-2:]
    return int(np.flatnonzero(valid & (top2[1] - top2[0] > 0.05))[0]), \
        probs.shape


@pytest.mark.parametrize("name", ["pixel_map", "net_map"])
def test_untraced_run_reports_every_end_to_end_metric(kept, name):
    result, info, _ = kept[name]
    assert result["correct"], info["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * len(
        workloads.build(name, SEED, "tiny").stages)
    assert [m for m in result["metrics"]] == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_covers_every_expected_layer(tmp_path, name):
    result, info = run.run(name, SEED, 0.0, True, "tiny", ROOT,
                           work=tmp_path / "work")
    assert result["correct"], info["failures"]
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in run.PER_LAYER]
    for layer in run.EXPECTED_LAYERS[name]:
        assert metrics[layer]["value"] > 0, layer
    assert not (tmp_path / "work").exists()


def test_checks_pass_on_untouched_outputs(kept, tmp_path):
    for name in kept:
        w, work = _copy(kept, name, tmp_path / name)
        assert _failed_checks(w, work) == set()


def test_flipped_label_fails_argmax(kept, tmp_path):
    w, work = _copy(kept, "pixel_map", tmp_path)
    i, _ = _clear_pixel(work, w.merged)

    def flip(labels):
        labels[i] = (labels[i] + 1) % 6
    _edit(work / f"{w.merged}_labels.bin", np.uint8, flip)
    assert "argmax" in _failed_checks(w, work)


def test_unnormalized_probability_fails_prob_sum(kept, tmp_path):
    w, work = _copy(kept, "pixel_map", tmp_path)
    i, (k, h, width) = _clear_pixel(work, "out/rf")

    def scale(values):
        values[np.arange(k) * h * width + i] *= 1.01
    _edit(work / "out/rf_probs.bin", "<f4", scale)
    assert "prob_sum" in _failed_checks(w, work)


def test_misplaced_nodata_fails_nodata(kept, tmp_path):
    w, work = _copy(kept, "pixel_map", tmp_path)
    i, _ = _clear_pixel(work, "out/svm")

    def blank(labels):
        labels[i] = checks.NODATA
    _edit(work / "out/svm_labels.bin", np.uint8, blank)
    assert "nodata" in _failed_checks(w, work)


def test_perturbed_weight_fails_net_forward(kept, tmp_path):
    w, work = _copy(kept, "net_map", tmp_path)

    def nudge(weights):
        weights[0] += 0.5       # enc1.w[0, 0, 0, 0]: every pixel sees it
    _edit(work / "out/segnet_mini_w.bin", "<f8", nudge)
    assert "net_forward" in _failed_checks(w, work)


def test_edited_tree_fails_rf_votes(kept, tmp_path):
    w, work = _copy(kept, "pixel_map", tmp_path)
    path = work / "out/rf.json"
    doc = json.loads(path.read_text())
    for tree in doc["model"]["trees"]:
        tree["threshold"][0] += 1e3     # every row now goes left at the root
    path.write_text(json.dumps(doc))
    assert "rf_votes" in _failed_checks(w, work)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [x["name"] for x in doc["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == list(run.PER_LAYER)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pixel_map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
