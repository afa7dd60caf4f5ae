"""The benchmark's workloads: scene specs, stage command lines and the
files each workload's output checks read.

Each workload maps a fixed landscape: the terrain seed of every scene (DEM,
labels, clouds) is a constant below. The workload seed draws everything
else: each scene's spectral noise (its acquisition) and every stage seed
(pixel sampling, bootstraps, tile splits, weight init, batch order).
Terrain seeds change the class composition so much (majority-class share
from .24 to .96 over terrain seeds 1-12) that timings and model sizes
moved by more than any regression bound between seeds; the acquisition
and stage seeds leave that steady. Paths are relative to the workload's work
directory; scenes live under ``scenes/`` (written by set-up) and every
measured round writes under ``out/``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("pixel_map", "net_map", "wide_area_map")

# Sizes per scale. "full" is what BENCHMARK.json measures; "tiny" keeps the
# same stages and checks at a size the benchmark's own tests can afford.
# Nets train at batch 4: at batch 8 (the same compute, half the Adam
# steps) unet_mini collapsed to a single class on some seeds.
SCALES = {
    "full": {
        "pixel_map": {"size": 256, "rf_samples": 100, "svm_samples": 100},
        "net_map": {"size": 160, "patch": 32, "stride": 16, "width": 8,
                    "epochs": 3, "batch_size": 4},
        "wide_area_map": {"size": 128, "target": 512, "rf_samples": 100,
                          "trees": 50, "patch": 32, "stride": 16,
                          "width": 8, "epochs": 4, "batch_size": 4},
    },
    "tiny": {
        "pixel_map": {"size": 128, "rf_samples": 40, "svm_samples": 30,
                      "trees": 20},
        "net_map": {"size": 128, "patch": 32, "stride": 16, "width": 8,
                    "epochs": 3, "batch_size": 4},
        "wide_area_map": {"size": 128, "target": 256, "rf_samples": 40,
                          "trees": 10, "patch": 32, "stride": 16,
                          "width": 8, "epochs": 4, "batch_size": 4},
    },
}

# Terrain seeds: balanced landscapes with all six classes present.
TERRAIN = {"pixel_map": 4, "net_map": 11, "year1": 4, "target": 7}
CLOUD_FRACTION = 0.05   # every scene has clouds, so the nodata path runs
DRIFT = 8.0             # wide_area_map: mean spectral shift of the target year
# Adam rates (the CLI default is 1e-5). At 3e-3 unet_mini collapsed to a
# single class on 4 of 10 net_map seeds (OA equal to the majority share);
# at 1e-3 it trained on all 16 seeds tried.
NET_LR = {"segnet_mini": 3e-3, "unet_mini": 1e-3, "psp_mini": 3e-3}


@dataclass
class Model:
    name: str        # "rf", "svm" or an arch tag
    kind: str        # "rf", "svm" or "net"
    files: list      # model files the training stage writes
    pred: str        # prediction prefix: <pred>_labels, <pred>_probs
    loss_csv: str | None = None


@dataclass
class Workload:
    scenes: dict           # scene dir under scenes/ -> SceneSpec JSON
    configs: dict          # file under scenes/ -> train config JSON
    stages: list           # (stage, argv) in run order
    models: list
    stack: str             # preprocessed stack of the mapped scene
    truth: str             # truth labels of the mapped scene
    plan: str | None       # tile plan of the mapped scene, for nets
    merged: str            # ensemble prefix
    reports: dict = field(default_factory=dict)  # map prefix -> report

    def write_inputs(self, work: Path) -> list:
        """Write scene specs and configs; return the synth command lines."""
        scenes = work / "scenes"
        scenes.mkdir(parents=True, exist_ok=True)
        for name, doc in self.configs.items():
            (scenes / name).write_text(json.dumps(doc) + "\n")
        argvs = []
        for name, spec in self.scenes.items():
            (scenes / f"{name}.spec.json").write_text(json.dumps(spec) + "\n")
            argvs.append(["synth", "--spec", f"scenes/{name}.spec.json",
                          "--out", f"scenes/{name}"])
        return argvs


def _seeds(name: str, seed: int, n: int) -> list:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(n)]


def _scene(size: int, terrain: str, spectral_seed: int, **extra) -> dict:
    return {"width": size, "height": size, "seed": TERRAIN[terrain],
            "spectral_seed": spectral_seed,
            "cloud_fraction": CLOUD_FRACTION, **extra}


def _preprocess(scene: str, reference: str, out: str) -> tuple:
    s, r = f"scenes/{scene}", f"scenes/{reference}"
    return ("preprocess", ["--in", f"{s}/spectral", "--reference",
                           f"{r}/spectral", "--dem", f"{s}/dem",
                           "--cloud", f"{s}/cloud", "--out", out])


def _evaluate(w: Workload, scene: str, preds: list) -> list:
    stages = []
    for pred in preds:
        report = f"{pred}_report.json"
        w.reports[pred] = report
        stages.append(("evaluate", [
            "--pred", f"{pred}_labels", "--truth", f"scenes/{scene}/labels",
            "--legend", f"scenes/{scene}/legend.json", "--out", report]))
    return stages


def _train_pixel(algo, stack, scene, samples, seed, out, params=None):
    argv = ["--algo", algo, "--stack", stack,
            "--labels", f"scenes/{scene}/labels",
            "--legend", f"scenes/{scene}/legend.json",
            "--samples", str(samples), "--seed", str(seed),
            "--threads", "1", "--out", out]
    if params:
        argv[-2:-2] = ["--params", params]
    return ("train-pixel", argv)


def _train_net(arch, stack, scene, plan, seed, out):
    return ("train-net", [
        "--arch", arch, "--stack", stack,
        "--labels", f"scenes/{scene}/labels",
        "--legend", f"scenes/{scene}/legend.json", "--plan", plan,
        "--config", f"scenes/{arch}.json", "--seed", str(seed), "--out", out])


def _net_configs(p: dict, archs) -> dict:
    # Plain cross-entropy: with inverse-area class weights a net trained
    # for a few epochs often maps rare classes over common ones.
    return {f"{a}.json": {"width": p["width"], "optimizer": "adam",
                          "lr": NET_LR[a], "epochs": p["epochs"],
                          "batch_size": p["batch_size"],
                          "class_weighting": False} for a in archs}


def _net_model(arch: str, stem: str) -> Model:
    return Model(arch, "net", [f"{stem}.json", f"{stem}.bin"],
                 f"out/{arch}", loss_csv=f"{stem}_loss.csv")


def pixel_map(seed: int, p: dict) -> Workload:
    s_scene, s_rf, s_svm = _seeds("pixel_map", seed, 3)
    w = Workload(
        scenes={"scene": _scene(p["size"], "pixel_map", s_scene)},
        configs={},
        stages=[], models=[
            Model("rf", "rf", ["out/rf.json"], "out/rf"),
            Model("svm", "svm", ["out/svm.json"], "out/svm"),
        ],
        stack="out/prep", truth="scenes/scene/labels", plan=None,
        merged="out/merged",
    )
    params = None
    if "trees" in p:
        w.configs["rf_params.json"] = {"n_trees": p["trees"]}
        params = "scenes/rf_params.json"
    w.stages = [
        _preprocess("scene", "scene", "out/prep"),
        _train_pixel("rf", "out/prep", "scene", p["rf_samples"], s_rf,
                     "out/rf.json", params),
        _train_pixel("svm", "out/prep", "scene", p["svm_samples"], s_svm,
                     "out/svm.json"),
        ("predict", ["--model", "out/rf.json", "--stack", "out/prep",
                     "--out", "out/rf"]),
        ("predict", ["--model", "out/svm.json", "--stack", "out/prep",
                     "--out", "out/svm"]),
        ("ensemble", ["--probs", "out/rf_probs", "out/svm_probs",
                      "--out", "out/merged"]),
    ]
    w.stages += _evaluate(w, "scene", ["out/rf", "out/svm", "out/merged"])
    return w


def net_map(seed: int, p: dict) -> Workload:
    s_scene, s_tile, s_net = _seeds("net_map", seed, 3)
    archs = ("segnet_mini", "unet_mini", "psp_mini")
    w = Workload(
        scenes={"scene": _scene(p["size"], "net_map", s_scene)},
        configs=_net_configs(p, archs),
        stages=[], models=[_net_model(a, f"out/{a}_w") for a in archs],
        stack="out/prep", truth="scenes/scene/labels", plan="out/plan.json",
        merged="out/merged",
    )
    w.stages = [
        _preprocess("scene", "scene", "out/prep"),
        ("tile", ["--stack", "out/prep", "--labels", "scenes/scene/labels",
                  "--patch", str(p["patch"]), "--stride", str(p["stride"]),
                  "--seed", str(s_tile), "--out", "out/plan.json"]),
    ]
    w.stages += [_train_net(a, "out/prep", "scene", "out/plan.json", s_net,
                            f"out/{a}_w") for a in archs]
    w.stages += [("predict", ["--model", f"out/{a}_w", "--stack", "out/prep",
                              "--plan", "out/plan.json", "--out", f"out/{a}"])
                 for a in archs]
    w.stages.append(("ensemble", ["--probs"] + [f"out/{a}_probs" for a in archs]
                     + ["--out", "out/merged"]))
    w.stages += _evaluate(w, "scene", [f"out/{a}" for a in archs]
                          + ["out/merged"])
    return w


def wide_area_map(seed: int, p: dict) -> Workload:
    s_y1, s_target, s_tile, s_rf, s_net = _seeds("wide_area_map", seed, 5)
    archs = ("segnet_mini", "psp_mini")
    w = Workload(
        scenes={
            "year1": _scene(p["size"], "year1", s_y1),
            "target": _scene(p["target"], "target", s_target,
                             spectral_shift=DRIFT),
        },
        configs={**_net_configs(p, archs),
                 "rf_params.json": {"n_trees": p["trees"]}},
        stages=[],
        models=[Model("rf", "rf", ["out/rf.json"], "out/rf")]
        + [_net_model(a, f"out/{a}_w") for a in archs],
        stack="out/target_prep", truth="scenes/target/labels",
        plan="out/target_plan.json", merged="out/merged",
    )
    tile = ["--patch", str(p["patch"]), "--stride", str(p["stride"]),
            "--seed", str(s_tile)]
    w.stages = [
        _preprocess("year1", "year1", "out/year1_prep"),
        ("tile", ["--stack", "out/year1_prep",
                  "--labels", "scenes/year1/labels", *tile,
                  "--out", "out/year1_plan.json"]),
        _train_pixel("rf", "out/year1_prep", "year1", p["rf_samples"], s_rf,
                     "out/rf.json", "scenes/rf_params.json"),
    ]
    w.stages += [_train_net(a, "out/year1_prep", "year1",
                            "out/year1_plan.json", s_net, f"out/{a}_w")
                 for a in archs]
    w.stages += [
        _preprocess("target", "year1", "out/target_prep"),
        ("tile", ["--stack", "out/target_prep",
                  "--labels", "scenes/target/labels", *tile,
                  "--out", "out/target_plan.json"]),
        ("predict", ["--model", "out/rf.json", "--stack", "out/target_prep",
                     "--out", "out/rf"]),
    ]
    w.stages += [("predict", ["--model", f"out/{a}_w",
                              "--stack", "out/target_prep",
                              "--plan", "out/target_plan.json",
                              "--out", f"out/{a}"]) for a in archs]
    w.stages.append(("ensemble", ["--probs", "out/rf_probs"]
                     + [f"out/{a}_probs" for a in archs]
                     + ["--out", "out/merged"]))
    w.stages += _evaluate(w, "target", ["out/rf"]
                          + [f"out/{a}" for a in archs] + ["out/merged"])
    return w


_FACTORIES = {"pixel_map": pixel_map, "net_map": net_map,
             "wide_area_map": wide_area_map}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return _FACTORIES[name](seed, SCALES[scale][name])


if __name__ == "__main__":
    import sys

    # python3 bench/workloads.py WORKLOAD SEED [SCALE]: print the inputs
    wl = build(sys.argv[1], int(sys.argv[2]), *sys.argv[3:4])
    for name, spec in wl.scenes.items():
        print(f"scene {name}: {json.dumps(spec)}")
    for name, doc in wl.configs.items():
        print(f"config {name}: {json.dumps(doc)}")
    for stage, argv in wl.stages:
        print("landseg", stage, " ".join(argv))
