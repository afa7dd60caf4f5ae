"""Pipeline driver: every stage as a subcommand over the shared file formats.

Exit codes: 0 success, 2 input/validation failure, 1 runtime error. All
randomness flows from --seed; single-threaded runs are byte-reproducible.
`main` requires the input files that INPUTS lists for a stage before it
runs, and once it succeeds appends one JSON line to run_manifest.jsonl
beside its outputs: the stage, its inputs, its outputs, its effective
seed, a timestamp and the version. A stage that fails appends nothing.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    argmax_labels, confusion_from, dump_report, ensemble_average,
    render_table, report as build_report,
)
from .experiment import TABLE2_SCENE_SIZE, render_table2, table2_experiment
from .jsondoc import ParamError, check_params, read_json, read_object
from .models import load_model, predict_map, save_model
from .nn import (
    TrainConfig,
    build_network,
    check_patch,
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
    NODATA_ID,
    Raster,
    default_legend,
    read_labels,
    read_raster,
    write_labels,
    write_raster,
)
from .sampling import class_weights, stratified_sample
from .classical import TRAINERS, fit, trainer
from .synth import SceneSpec, generate_scene
from .tiling import TileSplit, extract_tiles, plan_tiles, split_samples


def _append_manifest(near_path, stage, inputs, outputs, seed):
    near = Path(near_path)
    directory = near if near.is_dir() else near.parent
    entry = {
        "stage": stage,
        "inputs": inputs,
        "outputs": [str(o) for o in outputs],
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "version": __version__,
    }
    with open(directory / "run_manifest.jsonl", "a") as fh:
        fh.write(json.dumps(entry) + "\n")


def _load_legend(path) -> ClassLegend:
    return default_legend(6) if path is None else ClassLegend.load(path)


def _write_map(what: str, out, labels: LabelRaster, probs: np.ndarray):
    """Write <out>_labels, the argmax_labels of the float64 (K, H, W) map
    probs, and <out>_probs, probs as float32, valid wherever labels is not
    nodata. Prints and returns both stems."""
    k, h, w = probs.shape
    stems = [f"{out}_labels", f"{out}_probs"]
    write_labels(labels, stems[0])
    write_raster(Raster(w, h, [f"prob_{i}" for i in range(k)],
                        probs.astype(np.float32),
                        labels.labels != NODATA_ID), stems[1])
    print(f"{what} -> {stems[0]} / {stems[1]}")
    return stems


# ------------------------------------------------------------------ stages
# Each returns its outputs and its effective seed for the manifest entry.

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
    print(f"scene {spec.width}x{spec.height} seed={spec.seed} -> {out}")
    return [out / n for n in ("stack", "spectral", "dem", "labels", "cloud",
                              "legend.json", "scene_spec.json")], spec.seed


def cmd_preprocess(args):
    source = read_raster(args.input)
    reference = read_raster(args.reference)
    dem = read_raster(args.dem)

    matched, _ = normalize_to_reference(source, reference)
    if args.cloud:
        cloud = read_labels(args.cloud).labels != 0
        matched = apply_cloud_mask(matched, cloud)
    slope = slope_from_dem(dem, cell_size=args.cell_size)
    stack = stack_bands(matched, dem, slope)
    write_raster(stack, args.out)
    print(f"stack with {stack.n_bands} bands, "
          f"{int(stack.valid_mask.sum())} valid pixels -> {args.out}")
    return [args.out], None


def cmd_tile(args):
    check_patch(args.patch, "--patch")  # a plan that every net can take
    stack = read_raster(args.stack)
    labels = read_labels(args.labels)
    plan = plan_tiles(stack.width, stack.height,
                      patch=args.patch, stride=args.stride)
    samples = split_samples(extract_tiles(stack, labels, plan), seed=args.seed)
    split = TileSplit.of(plan, samples)
    split.save(args.out)
    counts = {tag: len(anchors) for tag, anchors in split.splits.items()}
    print(f"{len(plan.anchors)} anchors, dropped {samples.dropped}, "
          f"splits {counts} -> {args.out}")
    return [args.out], args.seed


def cmd_train_pixel(args):
    stack = read_raster(args.stack)
    legend = _load_legend(args.legend)
    labels = read_labels(args.labels, legend=legend)
    params = {}
    if args.params:
        # the stage sets x, y, n_classes, seed and threads itself
        types = {name: (p.annotation, p.default) for name, p in
                 inspect.signature(trainer(args.algo)).parameters.items()
                 if name not in {"x", "y", "n_classes", "seed", "threads"}}
        params = read_object(read_json(args.params),
                             f"params file {args.params}", types)

    table = stratified_sample(stack, labels, legend,
                              n_per_class=args.samples, seed=args.seed)
    try:
        model = fit(args.algo, table.x, table.y, n_classes=legend.n_classes,
                    seed=args.seed, threads=args.threads, **params)
    except ParamError as exc:
        raise ValueError(f"params file {args.params}: {exc}") from None
    save_model(model, args.out, band_names=stack.bands)
    print(f"{args.algo} model on {len(table)} samples -> {args.out}")
    return [args.out], args.seed


def cmd_train_net(args):
    stack = read_raster(args.stack)
    legend = _load_legend(args.legend)
    labels = read_labels(args.labels, legend=legend)
    split = TileSplit.load(args.plan)

    overrides = {}
    if args.config:
        overrides = read_object(read_json(args.config),
                                f"train config {args.config}", CONFIG_TYPES)
    width = overrides.pop("width", NET_SETTINGS["width"][1])
    use_class_weights = overrides.pop("class_weighting",
                                      NET_SETTINGS["class_weighting"][1])
    try:
        check_params(width=width)
        cfg = default_config(args.arch, **overrides)
    except ValueError as exc:
        raise ValueError(f"train config {args.config}: {exc}") from None
    if cfg.class_weights is not None and (
            np.shape(cfg.class_weights) != (legend.n_classes,)):
        raise ValueError(
            f"train config {args.config}: 'class_weights' needs one entry "
            f"per class ({legend.n_classes}), got {cfg.class_weights!r}")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if use_class_weights and cfg.class_weights is None:
        cfg = replace(cfg, class_weights=class_weights(labels, legend).weights)

    net = build_network(
        args.arch, in_ch=stack.n_bands, n_classes=legend.n_classes,
        width=width, patch=split.plan.patch, seed=cfg.seed,
    )
    net, history = train(net, split.samples(stack, labels), cfg)
    save_network(net, args.out)
    save_history_csv(history, str(args.out) + "_loss.csv")
    best = min(h[2] for h in history)
    print(f"{args.arch} trained {len(history)} epochs "
          f"(best val loss {best:.4f}) -> {args.out}")
    return ([f"{args.out}{ext}" for ext in (".json", ".bin", "_loss.csv")],
            cfg.seed)


def cmd_predict(args):
    stack = read_raster(args.stack)
    model = load_model(args.model, n_bands=stack.n_bands)
    plan = None if args.plan is None else TileSplit.load(args.plan).plan
    return _write_map("prediction", args.out,
                      *predict_map(model, stack, plan)), None


def cmd_ensemble(args):
    mask = None

    def maps():  # one raster in memory at a time
        nonlocal mask
        for stem in args.probs:
            r = read_raster(stem)
            shape = f"{r.width}x{r.height}, {r.n_bands} classes"
            if mask is None:
                first, mask = shape, r.valid_mask
            elif shape != first:
                raise ValueError(f"probability rasters {args.probs[0]} "
                                 f"({first}) and {stem} ({shape}) differ")
            else:
                mask = mask & r.valid_mask
            yield r.data.astype(np.float64)

    merged = ensemble_average(maps())
    return _write_map(f"ensemble of {len(args.probs)}", args.out,
                      argmax_labels(merged, mask), merged), None


def cmd_evaluate(args):
    legend = _load_legend(args.legend)
    pred = read_labels(args.pred, legend=legend)
    if str(args.truth).endswith(".csv"):
        truth = GroundPointSet.load(args.truth)
        truth.validate(pred.width, pred.height, legend)
    else:
        truth = read_labels(args.truth, legend=legend)
    cm = confusion_from(truth, pred, legend.n_classes)
    rep = build_report(cm, legend, provenance={
        "model": str(args.pred), "dataset": str(args.truth),
    })
    Path(args.out).write_text(dump_report(rep.to_json()))
    cm.save_csv(str(args.out) + ".cm.csv", legend)
    print(render_table(rep))
    return [args.out, str(args.out) + ".cm.csv"], None


def cmd_experiment(args):
    scene_spec = SceneSpec(width=args.scene_size, height=args.scene_size)
    try:
        rep = table2_experiment(
            seed=args.seed,
            algorithms=tuple(args.algos.split(",")),
            scene_spec=scene_spec,
            **{name: getattr(args, name) for name in TABLE2_OPTIONS},
        )
    except ParamError as exc:
        options = {**TABLE2_OPTIONS, "algorithms": "--algos"}
        raise ValueError(f"{options.get(exc.key, exc.key)}: {exc}") from None
    Path(args.out).write_text(dump_report(rep))
    print(render_table2(rep))
    return [args.out], args.seed


# ------------------------------------------------------------------ parser

# Each stage's input file options, and the noun that names a missing one;
# an option left unset is not required. Names, not functions, so that a
# function patched after import is still the one that runs.
INPUTS = {
    "synth": {"spec": "scene spec"},
    "preprocess": {"input": "input raster", "reference": "reference raster",
                   "dem": "dem raster", "cloud": "cloud mask"},
    "tile": {"stack": "stack raster", "labels": "label raster"},
    "train-pixel": {"stack": "stack raster", "labels": "label raster",
                    "legend": "legend", "params": "params file"},
    "train-net": {"stack": "stack raster", "labels": "label raster",
                  "legend": "legend", "plan": "tile plan",
                  "config": "train config"},
    "predict": {"model": "model", "stack": "stack raster",
                "plan": "tile plan"},
    "ensemble": {"probs": "probability raster"},
    "evaluate": {"pred": "prediction", "truth": "truth labels or points",
                 "legend": "legend"},
    "experiment": {},
}
# train-net --config keys that are not TrainConfig fields: (type, default)
NET_SETTINGS = {
    "width": ("int",
              inspect.signature(build_network).parameters["width"].default),
    "class_weighting": ("bool", True),
}
CONFIG_TYPES = {**{f.name: (f.type, f.default) for f in fields(TrainConfig)},
                **NET_SETTINGS}
# table2_experiment parameters set by an experiment option of the same name
TABLE2_OPTIONS = {"n_scenes": "--scenes", "n_per_class": "--n-per-class",
                  "svm_per_class": "--svm-per-class", "n_trees": "--trees"}
SHOW_DEFAULT = "default: %(default)s"


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
    p.add_argument("--patch", type=int, help=SHOW_DEFAULT, default=(
        inspect.signature(plan_tiles).parameters["patch"].default))
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("train-pixel", help="train CART / RF / SVM")
    p.add_argument("--algo", choices=tuple(TRAINERS), required=True)
    p.add_argument("--stack", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--legend", default=None)
    p.add_argument("--samples", type=int, default=inspect.signature(
                       stratified_sample).parameters["n_per_class"].default,
                   help="stratified sample size per class, " + SHOW_DEFAULT)
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
    p.add_argument("--config", default=None,
                   help="JSON object of TrainConfig fields, " + " and ".join(
                       f"{key} (default {json.dumps(value)})"
                       for key, (_, value) in NET_SETTINGS.items()))
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
    table2 = inspect.signature(table2_experiment).parameters
    for name, option in TABLE2_OPTIONS.items():
        p.add_argument(option, dest=name, type=int,
                       metavar=option[2:].upper().replace("-", "_"),
                       default=table2[name].default, help=SHOW_DEFAULT)
    p.add_argument("--algos", default=",".join(table2["algorithms"].default),
                   help=SHOW_DEFAULT)
    p.add_argument("--scene-size", type=int, default=TABLE2_SCENE_SIZE,
                   help=SHOW_DEFAULT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


VALIDATION_ERRORS = (ValueError, FileNotFoundError, KeyError)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    stage = args.command
    if stage == "experiment":
        stage += "-" + args.protocol
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        inputs = {}
        for option, what in INPUTS[args.command].items():
            given = getattr(args, option)
            if given is None:
                continue
            paths = given if isinstance(given, list) else [given]
            for path in paths:  # a file, or a stem of path.json
                if not (Path(path).exists()
                        or Path(path + ".json").exists()):
                    raise FileNotFoundError(f"{what} not found: {path}")
            inputs[option] = ",".join(paths)
        outputs, seed = args.func(args)
        _append_manifest(args.out, stage, inputs, outputs, seed)
        return 0
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
