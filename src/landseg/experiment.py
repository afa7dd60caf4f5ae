"""Desk-scale experiment protocols over synthetic scenes.

table2_experiment grids {CART, RF, SVM} x {5-band, 7-band} over seeded
scenes and reports per-class / overall F1 plus RF permutation importance,
mirroring the feature-combination comparison. robustness_experiment trains
RF and the three mini networks on one scene and re-evaluates on a
spectrally shifted twin, measuring per-model accuracy degradation.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from .classical import cart_train, permutation_importance, rf_train, svm_train
from .evaluate import (
    argmax_labels, class_metrics, confusion_from_arrays, ensemble_average,
    overall_accuracy,
)
from .jsondoc import check_params
from .models import predict_map
from .nn import TrainConfig, build_network, train
from .preprocess import apply_cloud_mask
from .raster import STACK_BANDS
from .sampling import class_weights, stratified_sample
from .synth import SceneSpec, generate_scene, scene_battery, _derived_seed
from .tiling import extract_tiles, plan_tiles, split_samples

FIVE_BAND = list(range(5))
SEVEN_BAND = list(range(7))
BAND_SETS = {"5band": FIVE_BAND, "7band": SEVEN_BAND}
TABLE2_SCENE_SIZE = 256  # width and height of table2's scenes by default


def _split_train_eval(y, n_train_per_class):
    """Per class of the labels y, first n rows train, the rest evaluate
    (rows are drawn without replacement, so the halves are disjoint)."""
    train_idx, eval_idx = [], []
    for cid in np.unique(y):
        rows = np.flatnonzero(y == cid)
        train_idx.append(rows[:n_train_per_class])
        eval_idx.append(rows[n_train_per_class:])
    return np.concatenate(train_idx), np.concatenate(eval_idx)


def _per_class_f1(cm, class_names):
    f1 = {}
    present = []
    for c, name in enumerate(class_names):
        row = cm.counts[c].sum()
        ua, pa, val, _ = class_metrics(cm, c)
        f1[name] = val
        if row > 0:
            present.append(val)
    overall = float(np.mean(present)) if present else 0.0
    return f1, overall


def table2_experiment(
    seed: int,
    n_scenes: int = 5,
    n_per_class: int = 300,
    svm_per_class: int = 150,
    algorithms=("cart", "rf", "svm"),
    scene_spec: SceneSpec | None = None,
    n_trees: int = 300,
) -> dict:
    """F1 grid over feature combinations; fully deterministic per seed.

    n_scenes and svm_per_class must be integers of at least 1 (ParamError
    otherwise, before any work).
    """
    check_params(n_scenes=n_scenes, svm_per_class=svm_per_class)
    if scene_spec is None:
        scene_spec = SceneSpec(width=TABLE2_SCENE_SIZE, height=TABLE2_SCENE_SIZE)
    legend = scene_spec.legend()
    names = legend.names
    k = legend.n_classes

    scenes = []
    for i in range(n_scenes):
        spec = replace(scene_spec, seed=_derived_seed([seed, i]))
        stack, labels, cloud = generate_scene(spec)
        stack = apply_cloud_mask(stack, cloud)
        table = stratified_sample(
            stack, labels, legend, n_per_class=2 * n_per_class,
            seed=_derived_seed([seed, i, 100]),
        )
        train_idx, eval_idx = _split_train_eval(table.y, n_per_class)
        x_train, y_train = table.x[train_idx], table.y[train_idx]
        x_eval, y_eval = table.x[eval_idx], table.y[eval_idx]

        entry = {
            "scene_seed": spec.seed,
            "f1": {},
            "overall_f1": {},
        }
        rf_cache = {}
        for algo in algorithms:
            entry["f1"][algo] = {}
            entry["overall_f1"][algo] = {}
            for band_tag, cols in BAND_SETS.items():
                if algo == "cart":
                    model = cart_train(x_train[:, cols], y_train,
                                       n_classes=k)
                elif algo == "rf":
                    model = rf_train(
                        x_train[:, cols], y_train,
                        n_trees=n_trees, n_classes=k,
                        seed=_derived_seed([seed, i, 200]),
                    )
                    rf_cache[band_tag] = model
                elif algo == "svm":
                    sub, _ = _split_train_eval(y_train, svm_per_class)
                    model = svm_train(
                        x_train[sub][:, cols], y_train[sub], n_classes=k,
                    )
                else:
                    raise ValueError(f"unknown algorithm {algo!r}")
                pred = model.predict(x_eval[:, cols])
                cm = confusion_from_arrays(y_eval, pred, k)
                f1, overall = _per_class_f1(cm, names)
                entry["f1"][algo][band_tag] = f1
                entry["overall_f1"][algo][band_tag] = overall

        if "7band" in rf_cache:
            imp = permutation_importance(
                rf_cache["7band"], x_train[:, SEVEN_BAND], y_train
            )
            order = np.argsort(-imp, kind="stable")
            entry["rf_importance_7band"] = {
                STACK_BANDS[j]: float(imp[j]) for j in range(7)
            }
            entry["rf_top_feature"] = STACK_BANDS[int(order[0])]
        scenes.append(entry)

    report = {
        "protocol": "table2",
        "seed": seed,
        "n_scenes": n_scenes,
        "n_per_class": n_per_class,
        "svm_per_class": svm_per_class,
        "algorithms": list(algorithms),
        "class_names": names,
        "scenes": scenes,
        "mean_overall_f1": {},
        "gain_7band": {},
    }
    for algo in algorithms:
        report["mean_overall_f1"][algo] = {}
        for band_tag in BAND_SETS:
            vals = [s["overall_f1"][algo][band_tag] for s in scenes]
            report["mean_overall_f1"][algo][band_tag] = float(np.mean(vals))
        report["gain_7band"][algo] = (
            report["mean_overall_f1"][algo]["7band"]
            - report["mean_overall_f1"][algo]["5band"]
        )
    if any("rf_top_feature" in s for s in scenes):
        report["dem_ranked_first_count"] = sum(
            1 for s in scenes if s.get("rf_top_feature") == "dem"
        )
    return report


def render_table2(report: dict) -> str:
    """Aligned text grid: category rows x algorithm/band columns."""
    algos = report["algorithms"]
    head = ["Category".ljust(20)]
    for algo in algos:
        head += [f"{algo}-5band".rjust(11), f"{algo}-7band".rjust(11)]
    lines = ["  ".join(head), "-" * (20 + 26 * len(algos))]
    for name in report["class_names"]:
        row = [name.ljust(20)]
        for algo in algos:
            for band_tag in ("5band", "7band"):
                vals = [s["f1"][algo][band_tag][name] for s in report["scenes"]]
                row.append(f"{np.mean(vals):11.2f}")
        lines.append("  ".join(row))
    row = ["Overall".ljust(20)]
    for algo in algos:
        for band_tag in ("5band", "7band"):
            row.append(f"{report['mean_overall_f1'][algo][band_tag]:11.2f}")
    lines.append("  ".join(row))
    return "\n".join(lines)


def dump_report(report: dict) -> str:
    """Canonical JSON text; byte-identical for identical inputs."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


NET_ARCHS = ("segnet_mini", "unet_mini", "psp_mini")
# unet gets less width: its 4x bottleneck otherwise memorizes the training
# scene's exact radiometry and turns brittle under drift
NET_WIDTHS = {"segnet_mini": 12, "unet_mini": 6, "psp_mini": 12}
NET_PATCH = 64
DRIFT_SHIFT = 8.0  # mean class shift of each robustness pair's twin B
RF_PER_CLASS = 300  # robustness RF training rows per class; as many evaluate


def robustness_scene_spec() -> SceneSpec:
    """Battery scene with ambiguous terrain and mosaic-like radiometry.

    Elevation bands are widened to overlap so classifiers must also lean on
    the (drifting) spectral bands, and smooth per-band gain/offset fields
    emulate the residue an imperfect mosaic match leaves behind: context
    models can learn contrast features that survive radiometric drift,
    per-pixel thresholds cannot.
    """
    from .synth import DEFAULT_ELEVATION_BANDS
    bands = DEFAULT_ELEVATION_BANDS[:6]
    centers = bands.mean(axis=1)
    halves = (bands[:, 1] - bands[:, 0]) / 2 * 1.8
    return SceneSpec(
        width=192, height=192,
        elevation_bands=np.column_stack([centers - halves, centers + halves]),
        terrain_weight=1.8, label_noise=1.5, spectral_noise=7.0,
        radiometric_patchiness=10.0,
    )


def _train_scene_networks(stack, labels, legend, seed, epochs):
    """Train the three mini architectures on one scene's tile splits with a
    shared desk-scale Adam config (the paper-assigned optimizers remain the
    train-net defaults elsewhere). The rate is raised so that 25 epochs
    still fit the scene under train()'s spectral jitter. Returns
    ({arch: net}, plan).
    """
    plan = plan_tiles(stack.width, stack.height, patch=NET_PATCH,
                      stride=NET_PATCH // 2)
    samples = split_samples(extract_tiles(stack, labels, plan), seed=seed)
    cw = class_weights(labels, legend)
    out = {}
    for arch in NET_ARCHS:
        cfg = TrainConfig(lr=3e-3, epochs=epochs, seed=seed,
                          class_weights=cw.weights)
        net = build_network(
            arch, in_ch=stack.n_bands, n_classes=legend.n_classes,
            width=NET_WIDTHS[arch], patch=NET_PATCH, seed=seed,
        )
        out[arch], _ = train(net, samples, cfg)
    return out, plan


def robustness_experiment(
    seed: int,
    n_pairs: int = 2,
    n_trees: int = 300,
    epochs: int = 25,
    keep_details: bool = False,
) -> dict:
    """Train on scene A, evaluate on A and on its shifted twin B; report
    per-model overall accuracies and degradation.

    Every model is scored at the same stratified evaluation pixels of A.
    They are held out from RF's training rows only: the nets train on
    A's train tiles and select epochs on its val tiles, which together
    cover most of those pixels (1323 of 1500 and 1690 of 1701 on the two
    pairs at seed 2026), so a net's oa_in is close to in-sample accuracy.
    With keep_details, returns (report, details): per pair,
    {"probs_in": {model: scene A probability map}}.
    """
    scene_spec = robustness_scene_spec()
    legend = scene_spec.legend()
    k = legend.n_classes
    pairs = scene_battery(seed, n_pairs, spec=scene_spec,
                          spectral_shift=DRIFT_SHIFT, noise_gain=1.3)

    results = []
    details = []
    for i, pair in enumerate(pairs):
        stack_a, labels_a, _ = pair["train"]
        stack_b, labels_b, _ = pair["test"]
        table = stratified_sample(
            stack_a, labels_a, legend, n_per_class=2 * RF_PER_CLASS,
            seed=_derived_seed([seed, i, 300]),
        )
        train_idx, eval_idx = _split_train_eval(table.y, RF_PER_CLASS)
        pos = table.positions[eval_idx]
        y_eval = table.y[eval_idx]

        trained = {"rf": rf_train(
            table.x[train_idx], table.y[train_idx],
            n_trees=n_trees, n_classes=k,
            seed=_derived_seed([seed, i, 301]),
        )}
        nets, plan = _train_scene_networks(
            stack_a, labels_a, legend,
            seed=_derived_seed([seed, i, 302]) % (2 ** 31), epochs=epochs,
        )
        trained.update(nets)

        entry = {"pair": i, "oa_in": {}, "oa_shift": {}, "degradation": {}}

        def eval_positions(pred_labels):
            pred = pred_labels.labels[pos[:, 0], pos[:, 1]]
            cm = confusion_from_arrays(y_eval, pred, k)
            return overall_accuracy(cm)

        for scene_tag, stack in (("in", stack_a), ("shift", stack_b)):
            oa_tag = f"oa_{scene_tag}"
            probs = {}
            for name, model in trained.items():
                label_map, probs[name] = predict_map(model, stack, plan)
                entry[oa_tag][name] = eval_positions(label_map)
            merged = ensemble_average([probs[a] for a in NET_ARCHS])
            entry[oa_tag]["merged"] = eval_positions(argmax_labels(merged))
            probs["merged"] = merged
            if scene_tag == "in" and keep_details:
                details.append({"probs_in": probs})

        for model in list(entry["oa_in"]):
            entry["degradation"][model] = (
                entry["oa_in"][model] - entry["oa_shift"][model]
            )
        results.append(entry)

    models = list(results[0]["oa_in"])
    report = {
        "protocol": "robustness",
        "seed": seed,
        "n_pairs": n_pairs,
        "spectral_shift": DRIFT_SHIFT,
        "pairs": results,
        "mean_oa_in": {
            m: float(np.mean([r["oa_in"][m] for r in results])) for m in models
        },
        "mean_oa_shift": {
            m: float(np.mean([r["oa_shift"][m] for r in results])) for m in models
        },
        "mean_degradation": {
            m: float(np.mean([r["degradation"][m] for r in results]))
            for m in models
        },
    }
    if keep_details:
        return report, details
    return report
