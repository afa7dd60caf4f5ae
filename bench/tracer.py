"""Traced stage: run one landseg CLI stage in this process with every public
function of the pipeline's modules wrapped in a timing span.

    python3 bench/tracer.py SPANS.json STAGE [STAGE ARGS...]

It times a bare ``import landseg.cli`` first, then patches each public
function and method under every module-level name that binds it, calls
``landseg.cli.main(argv)`` and writes per-metric self time (span minus its
child spans), call counts and work counters to SPANS.json. Exits with the
stage's own exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time

# Span metric for each module's public functions and Class.method names;
# "*" covers the module's other public names.
LAYERS = {
    "landseg.cli": {"*": "cli.{stage}.s"},
    "landseg.raster": {
        "read_raster": "raster.read.s", "read_labels": "raster.read.s",
        "write_raster": "raster.write.s", "write_labels": "raster.write.s",
        "*": "raster.other.s"},
    "landseg.preprocess": {"*": "preprocess.s"},
    "landseg.tiling": {
        "extract_tiles": "tiling.extract.s", "stitch_center": "tiling.stitch.s",
        "*": "tiling.other.s"},
    "landseg.sampling": {
        "stratified_sample": "sampling.stratified.s",
        "augment": "sampling.augment.s",
        "class_weights": "sampling.class_weights.s",
        "*": "sampling.stratified.s"},
    "landseg.classical.tree": {
        "cart_train": "tree.fit.s", "gini": "tree.fit.s",
        "DecisionTree.predict": "tree.predict.s",
        "DecisionTree.predict_proba": "tree.predict.s",
        "DecisionTree.is_leaf": "tree.predict.s",
        "DecisionTree.to_json": "models.save.s",
        "DecisionTree.from_json": "models.load.s"},
    "landseg.classical.forest": {
        "rf_train": "forest.fit.s",
        "RandomForest.to_json": "models.save.s",
        "RandomForest.from_json": "models.load.s",
        "*": "forest.predict.s"},
    "landseg.classical.svm": {
        "svm_train": "svm.fit.s", "smo_solve": "svm.smo.s",
        "rbf_kernel": "svm.kernel.s",
        "SvmClassifier.to_json": "models.save.s",
        "SvmClassifier.from_json": "models.load.s",
        "*": "svm.predict.s"},
    "landseg.models": {
        "save_model": "models.save.s", "model_kind": "models.save.s",
        "load_model": "models.load.s",
        "predict_pixels": "models.predict_pixels.s"},
    "landseg.nn.ops": {
        "conv2d_forward": "ops.conv_fwd.s", "conv2d_backward": "ops.conv_bwd.s",
        "relu_forward": "ops.relu.s", "relu_backward": "ops.relu.s",
        "maxpool_forward": "ops.pool.s", "maxpool_backward": "ops.pool.s",
        "max_unpool": "ops.pool.s", "max_unpool_backward": "ops.pool.s",
        "avgpool_to_forward": "ops.pool.s", "avgpool_to_backward": "ops.pool.s",
        "weighted_ce_loss": "ops.loss.s", "softmax_probs": "ops.softmax.s",
        "*": "ops.resample.s"},
    "landseg.nn.networks": {
        "save_network": "networks.io.s", "load_network": "networks.io.s",
        "*": "networks.other.s"},
    "landseg.nn.optim": {"*": "optim.step.s"},
    "landseg.nn.train": {
        "train": "train.self.s", "spectral_jitter": "train.jitter.s",
        "band_stats": "train.band_stats.s",
        "predict_tiles": "train.predict_tiles.s", "*": "train.other.s"},
    "landseg.evaluate": {
        "accumulate": "evaluate.confusion.s",
        "confusion_from": "evaluate.confusion.s",
        "confusion_from_arrays": "evaluate.confusion.s",
        "ensemble_average": "evaluate.ensemble.s",
        "argmax_labels": "evaluate.ensemble.s",
        "*": "evaluate.report.s"},
}

NET_METHODS = {"forward": "networks.forward.s",
               "predict_probs": "networks.forward.s",
               "backward": "networks.backward.s"}
NET_CLASSES = {"SegNetMini", "UNetMini", "PspMini"}


def _file_mb(stem) -> float:
    return sum(os.path.getsize(f"{stem}{ext}") for ext in (".json", ".bin")
               if os.path.exists(f"{stem}{ext}")) / 2 ** 20


class Tracer:
    """Span stack with per-metric self time, call counts and counters."""

    def __init__(self, stage: str):
        self.stage = stage
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.stack = []      # [metric, child seconds] per open span

    def count(self, name: str, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, metric: str, after=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = [metric, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += span
                tracer.self_s[metric] = (tracer.self_s.get(metric, 0.0)
                                         + span - frame[1])
                tracer.calls[metric] = tracer.calls.get(metric, 0) + 1
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def in_span(self, metric: str) -> bool:
        return any(f[0] == metric for f in self.stack)


# ------------------------------------------------------------- counters

def _after_read(t, args, result):
    t.count("raster.read.mb", _file_mb(args[0]))


def _after_write(t, args, result):
    t.count("raster.write.mb", _file_mb(args[1]))


def _after_extract(t, args, result):
    t.count("tiling.tiles", len(result.tiles))


def _after_stitch(t, args, result):
    plan = args[1]
    t.count("tiling.tiles", len(plan.anchors))
    t.count("tiling.predicted_px", len(plan.anchors) * plan.patch ** 2)
    t.count("tiling.owned_px", plan.padded_height * plan.padded_width)


def _after_cart(t, args, result):
    t.count("tree.fits", 1)
    t.count("tree.nodes", result.n_nodes)


def _after_tree_predict(t, args, result):
    t.count("tree.predict.rows", len(result))


def _after_smo(t, args, result):
    t.count("svm.smo.iters", result[2])


def _after_svm(t, args, result):
    t.count("svm.support_vectors", sum(pm.sv.shape[0] for pm in result.pairs))


def _after_conv_fwd(t, args, result):
    x, w = args[0], args[1]
    n, c, h, wd = x.shape
    t.count("ops.conv_fwd.gflop", 2.0 * n * h * wd * w.shape[0] * c
            * w.shape[2] * w.shape[3] / 1e9)


def _after_conv_bwd(t, args, result):
    dy, w = args[0], args[1][2]
    n, o, h, wd = dy.shape
    # weight gradient plus input gradient, each a forward's worth
    t.count("ops.conv_bwd.gflop", 4.0 * n * h * wd * o * w.shape[1]
            * w.shape[2] * w.shape[3] / 1e9)


def _after_step(t, args, result):
    t.count("optim.steps", 1)


def _after_net_forward(t, args, result):
    if t.in_span("train.self.s"):
        t.count("train.tile_passes", args[1].shape[0])


AFTER = {
    "read_raster": _after_read, "read_labels": _after_read,
    "write_raster": _after_write, "write_labels": _after_write,
    "extract_tiles": _after_extract, "stitch_center": _after_stitch,
    "cart_train": _after_cart,
    "DecisionTree.predict": _after_tree_predict,
    "DecisionTree.predict_proba": _after_tree_predict,
    "smo_solve": _after_smo, "svm_train": _after_svm,
    "conv2d_forward": _after_conv_fwd, "conv2d_backward": _after_conv_bwd,
    "Adam.step": _after_step, "SgdMomentum.step": _after_step,
}


# ------------------------------------------------------------ patching

def _metric(modname: str, name: str, stage: str) -> str:
    cls, _, meth = name.rpartition(".")
    if modname == "landseg.nn.networks" and meth in NET_METHODS:
        return NET_METHODS[meth]
    table = LAYERS[modname]
    return table.get(name, table.get("*", "")).format(stage=stage)


def install(tracer: Tracer):
    """Wrap every public function and method of LAYERS' modules.

    A function is replaced under every landseg module attribute bound to
    it (package re-exports and ``from x import f`` copies included);
    methods are replaced on their class.
    """
    import importlib

    mods = {m: importlib.import_module(m) for m in LAYERS}
    replaced = {}
    for modname, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", "") != modname:
                continue
            if isinstance(obj, type):
                # private base classes (the nets' _MiniNet) still carry
                # public methods
                _wrap_class(tracer, modname, obj)
            elif callable(obj) and not name.startswith("_"):
                metric = _metric(modname, name, tracer.stage)
                if metric:
                    replaced[id(obj)] = (obj, tracer.wrap(obj, metric,
                                                          AFTER.get(name)))
    for mod in [m for n, m in list(sys.modules.items())
                if n == "landseg" or n.startswith("landseg.")]:
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def _wrap_class(tracer: Tracer, modname: str, cls: type):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        key = f"{cls.__name__}.{name}"
        metric = _metric(modname, key, tracer.stage)
        if not metric:
            continue
        if name == "forward" and cls.__name__ in NET_CLASSES:
            after = _after_net_forward
        else:
            after = AFTER.get(key)
        if isinstance(attr, (classmethod, staticmethod)):
            fn = tracer.wrap(attr.__func__, metric, after)
            setattr(cls, name, type(attr)(fn))
        elif callable(attr):
            setattr(cls, name, tracer.wrap(attr, metric, after))


def main(argv) -> int:
    out, stage_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import landseg.cli as cli
    startup = time.perf_counter() - t0
    tracer = Tracer(stage_argv[0])
    install(tracer)
    rc = cli.main(stage_argv)
    with open(out, "w") as fh:
        json.dump({"stage": stage_argv[0], "startup_s": startup,
                   "self_s": tracer.self_s,
                   "calls": tracer.calls, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
