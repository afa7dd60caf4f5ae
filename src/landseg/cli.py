"""Pipeline driver: every stage as a subcommand over the shared file formats.

Exit codes: 0 success, 2 input/validation failure, 1 runtime error. All
randomness flows from --seed; single-threaded runs are byte-reproducible.
Each stage appends one JSON line to run_manifest.jsonl beside its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import confusion_from, render_table, report as build_report
from .experiment import dump_report, render_table2, table2_experiment
from .models import load_model, predict_map, save_model
from .nn import (
    build_network,
    default_config,
    save_history_csv,
    save_network,
    train,
)
from .preprocess import apply_cloud_mask, normalize_to_reference, slope_from_dem, stack_bands
from .raster import (
    ClassLegend,
    GroundPointSet,
    LabelRaster,
    Raster,
    default_legend,
    read_labels,
    read_raster,
    write_labels,
    write_raster,
)
from .sampling import class_weights, stratified_sample
from .classical import cart_train, rf_train, svm_train
from .synth import SceneSpec, generate_scene
from .tiling import SampleSet, TilePlan, extract_tiles, plan_tiles, split_samples
from .evaluate import argmax_labels, ensemble_average


def _append_manifest(near_path, stage, inputs, outputs, seed=None):
    near = Path(near_path)
    directory = near if near.is_dir() else near.parent
    directory.mkdir(parents=True, exist_ok=True)
    entry = {
        "stage": stage,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": [str(o) for o in outputs],
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "version": __version__,
    }
    with open(directory / "run_manifest.jsonl", "a") as fh:
        fh.write(json.dumps(entry) + "\n")


def _require(path, what):
    candidates = [Path(str(path)), Path(str(path) + ".json")]
    if not any(c.exists() for c in candidates):
        raise FileNotFoundError(f"{what} not found: {path}")


def _load_legend(path) -> ClassLegend:
    if path is None:
        return default_legend(6)
    _require(path, "legend")
    return ClassLegend.load(path)


def _prob_raster(probs: np.ndarray, mask: np.ndarray) -> Raster:
    k, h, w = probs.shape
    names = [f"prob_{i}" for i in range(k)]
    return Raster(w, h, names, probs.astype(np.float32), mask)


# ------------------------------------------------------------------ stages

def cmd_synth(args):
    spec = SceneSpec.load(args.spec) if args.spec else SceneSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stack, labels, cloud = generate_scene(spec)

    spec.save(out / "scene_spec.json")
    spec.legend().save(out / "legend.json")
    write_raster(stack, out / "stack")
    write_raster(stack.select(stack.bands[:5]), out / "spectral")
    write_raster(stack.select(["dem"]), out / "dem")
    write_labels(labels, out / "labels")
    write_labels(LabelRaster(spec.width, spec.height,
                             cloud.astype(np.uint8)), out / "cloud")
    _append_manifest(
        out, "synth", {"spec": args.spec or "<default>"},
        [out / n for n in ("stack", "spectral", "dem", "labels", "cloud",
                           "legend.json", "scene_spec.json")],
        seed=spec.seed,
    )
    print(f"scene {spec.width}x{spec.height} seed={spec.seed} -> {out}")
    return 0


def cmd_preprocess(args):
    for path, what in ((args.input, "input raster"),
                       (args.reference, "reference raster"),
                       (args.dem, "dem raster")):
        _require(path, what)
    source = read_raster(args.input)
    reference = read_raster(args.reference)
    dem = read_raster(args.dem)

    matched, _ = normalize_to_reference(source, reference)
    if args.cloud:
        _require(args.cloud, "cloud mask")
        cloud = read_labels(args.cloud).labels != 0
        matched = apply_cloud_mask(matched, cloud)
    slope = slope_from_dem(dem, cell_size=args.cell_size)
    stack = stack_bands(matched, dem, slope)
    write_raster(stack, args.out)
    _append_manifest(
        args.out, "preprocess",
        {"input": args.input, "reference": args.reference,
         "dem": args.dem, "cloud": args.cloud},
        [args.out],
    )
    print(f"stack with {stack.n_bands} bands, "
          f"{int(stack.valid_mask.sum())} valid pixels -> {args.out}")
    return 0


def cmd_tile(args):
    _require(args.stack, "stack raster")
    _require(args.labels, "label raster")
    stack = read_raster(args.stack)
    labels = read_labels(args.labels)
    plan = plan_tiles(stack.width, stack.height,
                      patch=args.patch, stride=args.stride)
    samples = split_samples(extract_tiles(stack, labels, plan), seed=args.seed)
    doc = {
        "plan": plan.to_json(),
        "seed": args.seed,
        "dropped": samples.dropped,
        "splits": {
            tag: [list(t.anchor) for t, s in
                  zip(samples.tiles, samples.split_tags) if s == tag]
            for tag in ("train", "val", "test")
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    _append_manifest(
        args.out, "tile", {"stack": args.stack, "labels": args.labels},
        [args.out], seed=args.seed,
    )
    counts = {t: len(doc["splits"][t]) for t in doc["splits"]}
    print(f"{len(plan.anchors)} anchors, dropped {samples.dropped}, "
          f"splits {counts} -> {args.out}")
    return 0


TABLE3_DEFAULTS = {
    "cart": {"min_leaf": 5},
    "rf": {"n_trees": 300, "min_leaf": 5},
    "svm": {"C": 300.0, "gamma": 0.1, "tol": 1e-3},
}


def cmd_train_pixel(args):
    _require(args.stack, "stack raster")
    _require(args.labels, "label raster")
    stack = read_raster(args.stack)
    labels = read_labels(args.labels)
    legend = _load_legend(args.legend)
    params = dict(TABLE3_DEFAULTS[args.algo])
    if args.params:
        _require(args.params, "params file")
        params.update(json.loads(Path(args.params).read_text()))

    table = stratified_sample(stack, labels, legend,
                              n_per_class=args.samples, seed=args.seed)
    if args.algo == "cart":
        model = cart_train(table.x, table.y, n_classes=legend.n_classes,
                           **params)
    elif args.algo == "rf":
        model = rf_train(table.x, table.y, n_classes=legend.n_classes,
                         seed=args.seed, threads=args.threads, **params)
    else:
        model = svm_train(table.x, table.y, n_classes=legend.n_classes,
                          **params)
    save_model(model, args.out, band_names=stack.bands)
    _append_manifest(
        args.out, "train-pixel",
        {"stack": args.stack, "labels": args.labels, "algo": args.algo},
        [args.out], seed=args.seed,
    )
    print(f"{args.algo} model on {len(table)} samples -> {args.out}")
    return 0


def cmd_train_net(args):
    _require(args.stack, "stack raster")
    _require(args.labels, "label raster")
    _require(args.plan, "tile plan")
    stack = read_raster(args.stack)
    labels = read_labels(args.labels)
    legend = _load_legend(args.legend)
    doc = json.loads(Path(args.plan).read_text())
    plan = TilePlan.from_json(doc["plan"])

    overrides = {}
    width = args.width
    if args.config:
        _require(args.config, "train config")
        overrides = json.loads(Path(args.config).read_text())
        width = overrides.pop("width", width)
    use_class_weights = overrides.pop("class_weighting", True)
    cfg = default_config(args.arch, **overrides)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if use_class_weights and cfg.class_weights is None:
        cfg = replace(cfg, class_weights=class_weights(labels, legend).weights)

    extracted = extract_tiles(stack, labels, plan)
    split_of = {}
    for tag, anchors in doc["splits"].items():
        for anchor in anchors:
            split_of[tuple(anchor)] = tag
    tags = [split_of.get(t.anchor, "test") for t in extracted.tiles]
    samples = SampleSet(
        tiles=extracted.tiles, band_names=extracted.band_names,
        seed=doc["seed"], split_tags=tags, dropped=extracted.dropped,
    )

    net = build_network(
        args.arch, in_ch=stack.n_bands, n_classes=legend.n_classes,
        width=width, patch=plan.patch, seed=cfg.seed,
    )
    net, history = train(net, samples, cfg)
    save_network(net, args.out)
    save_history_csv(history, str(args.out) + "_loss.csv")
    _append_manifest(
        args.out, "train-net",
        {"stack": args.stack, "labels": args.labels, "plan": args.plan,
         "arch": args.arch},
        [str(args.out) + ".json", str(args.out) + ".bin",
         str(args.out) + "_loss.csv"],
        seed=cfg.seed,
    )
    best = min(h[2] for h in history)
    print(f"{args.arch} trained {len(history)} epochs "
          f"(best val loss {best:.4f}) -> {args.out}")
    return 0


def cmd_predict(args):
    _require(args.stack, "stack raster")
    stack = read_raster(args.stack)
    model = load_model(args.model)
    plan = None
    if args.plan is not None:
        _require(args.plan, "tile plan")
        plan = TilePlan.from_json(json.loads(Path(args.plan).read_text())["plan"])
    label_map, probs = predict_map(model, stack, plan)
    write_labels(label_map, str(args.out) + "_labels")
    write_raster(_prob_raster(probs, stack.valid_mask),
                 str(args.out) + "_probs")
    _append_manifest(
        args.out, "predict", {"model": args.model, "stack": args.stack},
        [str(args.out) + "_labels", str(args.out) + "_probs"],
    )
    print(f"prediction -> {args.out}_labels / {args.out}_probs")
    return 0


def cmd_ensemble(args):
    maps = []
    mask = None
    for stem in args.probs:
        _require(stem, "probability raster")
        r = read_raster(stem)
        maps.append(r.data.astype(np.float64))
        mask = r.valid_mask if mask is None else (mask & r.valid_mask)
    merged = ensemble_average(maps)
    labels = argmax_labels(merged)
    labels.labels[~mask] = 255
    write_raster(_prob_raster(merged, mask), str(args.out) + "_probs")
    write_labels(labels, str(args.out) + "_labels")
    _append_manifest(
        args.out, "ensemble", {"probs": ",".join(map(str, args.probs))},
        [str(args.out) + "_labels", str(args.out) + "_probs"],
    )
    print(f"ensemble of {len(maps)} -> {args.out}_labels / {args.out}_probs")
    return 0


def cmd_evaluate(args):
    _require(args.pred, "prediction")
    legend = _load_legend(args.legend)
    pred = read_labels(args.pred, legend=legend)
    if str(args.truth).endswith(".csv"):
        _require(args.truth, "truth points")
        truth = GroundPointSet.load(args.truth)
        truth.validate(pred.width, pred.height, legend)
    else:
        _require(args.truth, "truth labels")
        truth = read_labels(args.truth, legend=legend)
    cm = confusion_from(truth, pred, legend.n_classes)
    rep = build_report(cm, legend, provenance={
        "model": str(args.pred), "dataset": str(args.truth),
    })
    rep.save(args.out)
    cm.save_csv(str(args.out) + ".cm.csv", legend)
    _append_manifest(
        args.out, "evaluate", {"pred": args.pred, "truth": args.truth},
        [args.out, str(args.out) + ".cm.csv"],
    )
    print(render_table(rep))
    return 0


def cmd_experiment(args):
    if args.protocol != "table2":
        raise ValueError(f"unknown experiment protocol {args.protocol!r}")
    scene_spec = SceneSpec(width=args.scene_size, height=args.scene_size)
    rep = table2_experiment(
        seed=args.seed,
        n_scenes=args.scenes,
        n_per_class=args.n_per_class,
        svm_per_class=args.svm_per_class,
        algorithms=tuple(args.algos.split(",")),
        scene_spec=scene_spec,
        n_trees=args.trees,
        threads=args.threads,
    )
    Path(args.out).write_text(dump_report(rep))
    _append_manifest(
        args.out, "experiment-table2", {}, [args.out], seed=args.seed,
    )
    print(render_table2(rep))
    return 0


# ------------------------------------------------------------------ parser

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landseg",
        description="Land-cover segmentation pipeline stages",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic terrain scene")
    p.add_argument("--spec", help="SceneSpec JSON (defaults baked in)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess",
                       help="histogram match, cloud mask, slope, stack")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--dem", required=True)
    p.add_argument("--cloud", default=None)
    p.add_argument("--cell-size", type=float, default=30.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("tile", help="plan tiles and split train/val/test")
    p.add_argument("--stack", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--patch", type=int, default=256)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("train-pixel", help="train CART / RF / SVM")
    p.add_argument("--algo", choices=("cart", "rf", "svm"), required=True)
    p.add_argument("--stack", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--legend", default=None)
    p.add_argument("--samples", type=int, default=2000,
                   help="stratified sample size per class")
    p.add_argument("--params", default=None, help="JSON param overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_pixel)

    p = sub.add_parser("train-net", help="train a mini segmentation network")
    p.add_argument("--arch", choices=("segnet_mini", "unet_mini", "psp_mini"),
                   required=True)
    p.add_argument("--stack", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--legend", default=None)
    p.add_argument("--plan", required=True, help="tile stage output")
    p.add_argument("--config", default=None, help="TrainConfig JSON overrides")
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="weights path stem")
    p.set_defaults(func=cmd_train_net)

    p = sub.add_parser("predict", help="tiled or per-pixel prediction")
    p.add_argument("--model", required=True,
                   help="model JSON or network weights stem")
    p.add_argument("--stack", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="average probability rasters")
    p.add_argument("--probs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="confusion matrix and metrics report")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True,
                   help="label raster stem or points .csv")
    p.add_argument("--legend", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="canned multi-stage protocols")
    p.add_argument("protocol", choices=("table2",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scenes", type=int, default=5)
    p.add_argument("--n-per-class", type=int, default=300)
    p.add_argument("--svm-per-class", type=int, default=150)
    p.add_argument("--algos", default="cart,rf,svm")
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--scene-size", type=int, default=256)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


VALIDATION_ERRORS = (
    ValueError, FileNotFoundError, KeyError, json.JSONDecodeError,
)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
