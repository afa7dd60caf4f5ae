"""Desk-scale experiment protocols over synthetic scenes.

table2_experiment grids {CART, RF, SVM} x {5-band, 7-band} over seeded
scenes and reports per-class / overall F1 plus RF permutation importance,
mirroring the feature-combination comparison. robustness_experiment trains
RF and the three mini networks on one scene and re-evaluates on a
spectrally shifted twin, measuring per-model accuracy degradation. Both
draw their rows with _sample_split, score with _score and average over
scenes or pairs with _mean_over.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .classical import TRAINERS, fit, permutation_importance
from .evaluate import (
    confusion_from_arrays, ensemble_average, report as build_report,
)
from .jsondoc import ParamError, check_params
from .models import predict_map
from .nn import TrainConfig, build_network, train
from .preprocess import apply_cloud_mask
from .raster import STACK_BANDS
from .sampling import class_weights, stratified_sample
from .synth import SceneSpec, generate_scene, scene_battery, _derived_seed
from .tiling import extract_tiles, plan_tiles, split_samples

BAND_SETS = {"5band": list(range(5)), "7band": list(range(7))}
TABLE2_SCENE_SIZE = 256  # width and height of table2's scenes by default


def _first_per_class(y, n):
    """Per class of the labels y, the indices of its first n rows and of
    the rest, each grouped by class in ascending class order."""
    first, rest = [], []
    for cid in np.unique(y):
        rows = np.flatnonzero(y == cid)
        first.append(rows[:n])
        rest.append(rows[n:])
    return np.concatenate(first), np.concatenate(rest)


def _sample_split(stack, labels, legend, n_train, seed):
    """Stratified rows of a scene, 2 * n_train per class drawn with seed
    and without replacement: per class, the first n_train train and the
    rest evaluate. Returns (train table, evaluation table)."""
    table = stratified_sample(stack, labels, legend,
                              n_per_class=2 * n_train, seed=seed)
    return [replace(table, x=table.x[rows], y=table.y[rows],
                    positions=table.positions[rows])
            for rows in _first_per_class(table.y, n_train)]


def _score(y_true, y_pred, legend):
    """Overall accuracy, F1 by class name, and the mean F1 over the
    classes that y_true holds (0 if none)."""
    rep = build_report(
        confusion_from_arrays(y_true, y_pred, legend.n_classes), legend)
    present = [f1 for f1, count in zip(rep.f1, rep.counts) if count]
    return (rep.oa, dict(zip(rep.class_names, rep.f1)),
            float(np.mean(present)) if present else 0.0)


def _mean_over(entries, *keys):
    """Mean over entries of the value that each holds under the key path."""
    values = []
    for entry in entries:
        for key in keys:
            entry = entry[key]
        values.append(entry)
    return float(np.mean(values))


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

    n_scenes and svm_per_class must be integers of at least 1, and
    algorithms distinct names of TRAINERS (ParamError otherwise, before
    any work). Each model is scored by its predictions on the sampled
    evaluation rows, which are its map's labels at those pixels.
    """
    check_params(n_scenes=n_scenes, svm_per_class=svm_per_class)
    algorithms = list(algorithms)
    if (len(set(algorithms)) < len(algorithms)
            or not set(algorithms) <= set(TRAINERS)):
        raise ParamError("algorithms", (
            f"'algorithms' must be distinct names out of "
            f"{', '.join(TRAINERS)}, got {algorithms}"))
    if scene_spec is None:
        scene_spec = SceneSpec(width=TABLE2_SCENE_SIZE, height=TABLE2_SCENE_SIZE)
    legend = scene_spec.legend()
    # training rows per class; the SVM's fit grows with their square
    per_class = {"svm": svm_per_class}

    scenes = []
    for i in range(n_scenes):
        spec = replace(scene_spec, seed=_derived_seed([seed, i]))
        stack, labels, cloud = generate_scene(spec)
        stack = apply_cloud_mask(stack, cloud)
        train_rows, eval_rows = _sample_split(
            stack, labels, legend, n_per_class, _derived_seed([seed, i, 100]))
        entry = {"scene_seed": spec.seed, "f1": {}, "overall_f1": {}}
        models = {}
        for algo in algorithms:
            entry["f1"][algo] = {}
            entry["overall_f1"][algo] = {}
            rows, _ = _first_per_class(train_rows.y,
                                       per_class.get(algo, n_per_class))
            for band_tag, cols in BAND_SETS.items():
                models[algo, band_tag] = model = fit(
                    algo, train_rows.x[rows][:, cols], train_rows.y[rows],
                    n_classes=legend.n_classes, n_trees=n_trees,
                    seed=_derived_seed([seed, i, 200]))
                _, f1, overall = _score(
                    eval_rows.y, model.predict(eval_rows.x[:, cols]), legend)
                entry["f1"][algo][band_tag] = f1
                entry["overall_f1"][algo][band_tag] = overall

        if ("rf", "7band") in models:
            imp = permutation_importance(models["rf", "7band"],
                                         train_rows.x, train_rows.y)
            entry["rf_importance_7band"] = {
                STACK_BANDS[j]: float(imp[j]) for j in range(7)
            }
            entry["rf_top_feature"] = STACK_BANDS[int(
                np.argsort(-imp, kind="stable")[0])]
        scenes.append(entry)

    report = {
        "protocol": "table2",
        "seed": seed,
        "n_scenes": n_scenes,
        "n_per_class": n_per_class,
        "svm_per_class": svm_per_class,
        "algorithms": algorithms,
        "class_names": legend.names,
        "scenes": scenes,
        "mean_overall_f1": {
            algo: {band_tag: _mean_over(scenes, "overall_f1", algo, band_tag)
                   for band_tag in BAND_SETS}
            for algo in algorithms},
    }
    report["gain_7band"] = {
        algo: means["7band"] - means["5band"]
        for algo, means in report["mean_overall_f1"].items()}
    if "rf" in algorithms:
        report["dem_ranked_first_count"] = sum(
            1 for s in scenes if s["rf_top_feature"] == "dem")
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
            for band_tag in BAND_SETS:
                mean = _mean_over(report["scenes"], "f1", algo, band_tag, name)
                row.append(f"{mean:11.2f}")
        lines.append("  ".join(row))
    row = ["Overall".ljust(20)]
    for algo in algos:
        for band_tag in BAND_SETS:
            row.append(f"{report['mean_overall_f1'][algo][band_tag]:11.2f}")
    lines.append("  ".join(row))
    return "\n".join(lines)


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

    Every model is mapped through predict_map and scored at the same
    stratified evaluation pixels of A. They are held out from RF's
    training rows only: the nets train on A's train tiles and select
    epochs on its val tiles, which together cover most of those pixels
    (1323 of 1500 and 1690 of 1701 on the two pairs at seed 2026), so a
    net's oa_in is close to in-sample accuracy.
    With keep_details, returns (report, details): per pair,
    {"probs_in": {model: scene A probability map}}.
    """
    scene_spec = robustness_scene_spec()
    legend = scene_spec.legend()
    pairs = scene_battery(seed, n_pairs, spec=scene_spec,
                          spectral_shift=DRIFT_SHIFT, noise_gain=1.3)

    results = []
    details = []
    for i, pair in enumerate(pairs):
        stack_a, labels_a, _ = pair["train"]
        train_rows, eval_rows = _sample_split(
            stack_a, labels_a, legend, RF_PER_CLASS,
            _derived_seed([seed, i, 300]))
        rows, cols = eval_rows.positions.T
        trained = {"rf": fit(
            "rf", train_rows.x, train_rows.y, n_trees=n_trees,
            n_classes=legend.n_classes, seed=_derived_seed([seed, i, 301]),
        )}
        nets, plan = _train_scene_networks(
            stack_a, labels_a, legend,
            seed=_derived_seed([seed, i, 302]) % (2 ** 31), epochs=epochs,
        )
        trained.update(nets)

        entry = {"pair": i, "oa_in": {}, "oa_shift": {}}
        for scene_tag, stack in (("in", stack_a), ("shift", pair["test"][0])):
            probs = {name: predict_map(model, stack, plan)[1]
                     for name, model in trained.items()}
            probs["merged"] = ensemble_average([probs[a] for a in NET_ARCHS])
            for name, prob in probs.items():  # ties to the lowest class id
                entry[f"oa_{scene_tag}"][name] = _score(
                    eval_rows.y, prob[:, rows, cols].argmax(axis=0),
                    legend)[0]
            if scene_tag == "in" and keep_details:
                details.append({"probs_in": probs})
        entry["degradation"] = {
            name: oa - entry["oa_shift"][name]
            for name, oa in entry["oa_in"].items()}
        results.append(entry)

    report = {
        "protocol": "robustness",
        "seed": seed,
        "n_pairs": n_pairs,
        "spectral_shift": DRIFT_SHIFT,
        "pairs": results,
        **{f"mean_{key}": {name: _mean_over(results, key, name)
                           for name in results[0][key]}
           for key in ("oa_in", "oa_shift", "degradation")},
    }
    if keep_details:
        return report, details
    return report
