"""Land-cover mapping benchmark: runs a workload through the landseg CLI.

    python3 bench/run.py --workload pixel_map --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. Set-up generates the workload's scenes
with ``landseg synth`` (repeated, median reported as ``setup_s``). Then it
runs whole rounds of the workload's stages, one stage process at a time
(a closed loop, one client, concurrency 1), until the next round would end
past ``--seconds``; at least two rounds run, so that repeats can be
compared byte for byte. The first round's outputs go through every check
in ``checks.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each
the median over rounds. With ``--trace 1`` untraced and traced rounds
alternate; a traced round runs each stage through ``tracer.py`` (the stage
in-process through ``landseg.cli.main`` with every public function timed)
and the last line holds the per-layer metrics. The line before the last
records the environment and the per-round figures.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every stage process.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse                                      # noqa: E402
import json                                          # noqa: E402
import shutil                                        # noqa: E402
import signal                                        # noqa: E402
import statistics                                    # noqa: E402
import sys                                           # noqa: E402
import time                                          # noqa: E402
from dataclasses import dataclass                    # noqa: E402
from pathlib import Path                             # noqa: E402


HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks                                        # noqa: E402
import workloads                                     # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2          # untraced rounds per --trace 0 run
RUN_BUDGET_S = 170.0    # every stage is killed past this point of a run
WORK_DIR = ".bench_work"

END_TO_END = (("setup_s", "s"), ("map_s", "s"), ("train_s", "s"),
              ("predict_s", "s"), ("peak_rss_mb", "MB"), ("model_mb", "MB"),
              ("map_oa", "fraction"))

# (name, unit): "s" metrics are span self time, the rest counters or
# ratios derived from them.
PER_LAYER = (
    ("cli.startup.s", "s"), ("cli.preprocess.s", "s"), ("cli.tile.s", "s"),
    ("cli.train-pixel.s", "s"), ("cli.train-net.s", "s"),
    ("cli.predict.s", "s"), ("cli.ensemble.s", "s"), ("cli.evaluate.s", "s"),
    ("raster.read.s", "s"), ("raster.write.s", "s"),
    ("raster.read.mb", "MB"), ("raster.write.mb", "MB"),
    ("raster.other.s", "s"),
    ("preprocess.s", "s"),
    ("tiling.extract.s", "s"), ("tiling.stitch.s", "s"),
    ("tiling.other.s", "s"), ("tiling.tiles", "count"),
    ("tiling.owned_share", "fraction"), ("tiling.predicted_px", "count"),
    ("sampling.stratified.s", "s"), ("sampling.augment.s", "s"),
    ("sampling.class_weights.s", "s"),
    ("tree.fit.s", "s"), ("tree.fits", "count"), ("tree.nodes", "count"),
    ("tree.predict.s", "s"), ("tree.predict.rows", "count"),
    ("forest.fit.s", "s"), ("forest.predict.s", "s"),
    ("svm.fit.s", "s"), ("svm.smo.s", "s"), ("svm.smo.iters", "count"),
    ("svm.kernel.s", "s"), ("svm.predict.s", "s"),
    ("svm.support_vectors", "count"),
    ("models.save.s", "s"), ("models.load.s", "s"),
    ("models.predict_pixels.s", "s"),
    ("ops.conv_fwd.s", "s"), ("ops.conv_bwd.s", "s"),
    ("ops.conv_fwd.gflop", "GFLOP"), ("ops.conv_bwd.gflop", "GFLOP"),
    ("ops.conv_fwd.gflops", "GFLOP/s"), ("ops.conv_bwd.gflops", "GFLOP/s"),
    ("ops.pool.s", "s"), ("ops.resample.s", "s"), ("ops.relu.s", "s"),
    ("ops.loss.s", "s"), ("ops.softmax.s", "s"),
    ("networks.forward.s", "s"), ("networks.backward.s", "s"),
    ("networks.io.s", "s"), ("networks.other.s", "s"),
    ("optim.step.s", "s"), ("optim.steps", "count"),
    ("train.self.s", "s"), ("train.jitter.s", "s"),
    ("train.band_stats.s", "s"), ("train.tile_passes", "count"),
    ("train.predict_tiles.s", "s"), ("train.other.s", "s"),
    ("evaluate.confusion.s", "s"), ("evaluate.ensemble.s", "s"),
    ("evaluate.report.s", "s"),
    ("trace.overhead.s", "s"),
)

# Span metrics that must record calls on each workload: a rebinding that
# hides a layer from the wrappers fails the traced run.
_COMMON = ["cli.preprocess.s", "cli.predict.s", "cli.ensemble.s",
           "cli.evaluate.s", "raster.read.s", "raster.write.s",
           "preprocess.s", "evaluate.confusion.s", "evaluate.ensemble.s",
           "evaluate.report.s"]
_FOREST = ["cli.train-pixel.s", "sampling.stratified.s", "tree.fit.s",
           "tree.predict.s", "forest.fit.s", "forest.predict.s",
           "models.save.s", "models.load.s", "models.predict_pixels.s"]
_SVM = ["svm.fit.s", "svm.smo.s", "svm.kernel.s", "svm.predict.s"]
_NETS = ["cli.tile.s", "cli.train-net.s", "tiling.extract.s",
         "tiling.stitch.s", "sampling.augment.s", "ops.conv_fwd.s",
         "ops.conv_bwd.s", "ops.pool.s", "ops.resample.s", "ops.relu.s",
         "ops.loss.s", "ops.softmax.s", "networks.forward.s",
         "networks.backward.s", "networks.io.s", "optim.step.s",
         "train.self.s", "train.jitter.s", "train.band_stats.s",
         "train.predict_tiles.s"]
EXPECTED_LAYERS = {
    "pixel_map": _COMMON + _FOREST + _SVM,
    "net_map": _COMMON + _NETS,
    "wide_area_map": _COMMON + _FOREST + _NETS,
}


class StageError(RuntimeError):
    pass


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    err: str


class Runner:
    """Runs stage processes one at a time and reaps them with wait4."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV,
                        PYTHONPATH=str(root / "src"))
        self.log = work / "stage.err"

    def stage(self, argv: list, trace_to: str | None = None) -> StageRun:
        import subprocess

        if trace_to is None:
            cmd = [sys.executable, "-m", "landseg.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), trace_to, *argv]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise StageError(f"run budget exhausted before {argv[0]}")
        with open(self.log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # the child stays unreaped until wait4 returns, so the alarm
            # can only ever signal this child
            previous = signal.signal(
                signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = self.log.read_text(errors="replace")[-400:]
        return StageRun(argv[0], wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0,
                        proc.returncode, tail)


def openblas_threads():
    """Thread count OpenBLAS reports in this process, or None."""
    import ctypes

    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stage_env(runner: Runner) -> dict:
    """numpy version and BLAS threads as a stage process sees them."""
    import subprocess

    code = ("import json, sys, numpy; sys.path.insert(0, sys.argv[1]); "
            "from run import openblas_threads; print(json.dumps("
            "{'numpy': numpy.__version__, "
            "'blas_threads': openblas_threads()}))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         env=runner.env, capture_output=True, text=True,
                         timeout=60, check=True)
    return json.loads(out.stdout)


def run_round(runner: Runner, w, spans: Path | None) -> list:
    """One pass over the workload's stages; stops at the first failure."""
    out = runner.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    if spans is not None:
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir()
    runs = []
    for i, (stage, argv) in enumerate(w.stages):
        trace_to = None if spans is None else str(spans / f"{i:02d}.json")
        run = runner.stage([stage, *argv], trace_to)
        runs.append(run)
        if run.rc != 0:
            break
    return runs


def round_figures(runs: list, w, work: Path) -> dict:
    def total(*stages):
        return sum(r.wall_s for r in runs if r.stage in stages)

    model_bytes = sum((work / f).stat().st_size
                      for m in w.models for f in m.files)
    return {
        "map_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "train_s": total("train-pixel", "train-net"),
        "predict_s": total("predict"),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "model_mb": model_bytes / 2 ** 20,
        "stages": [[r.stage, r.wall_s, r.cpu_s, r.rss_mb] for r in runs],
    }


def layer_figures(spans: Path) -> tuple:
    """(per-layer metrics of one traced round, call counts per metric)."""
    self_s, calls, counts, startup = {}, {}, {}, []
    for f in sorted(spans.glob("*.json")):
        doc = json.loads(f.read_text())
        startup.append(doc["startup_s"])
        for table, into in ((doc["self_s"], self_s), (doc["calls"], calls),
                            (doc["counts"], counts)):
            for k, v in table.items():
                into[k] = into.get(k, 0) + v
    out = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] = self_s.get(name, 0.0)
        else:
            out[name] = counts.get(name, 0)
    out["cli.startup.s"] = statistics.median(startup)
    predicted = counts.get("tiling.predicted_px", 0)
    out["tiling.owned_share"] = (counts.get("tiling.owned_px", 0) / predicted
                                 if predicted else 0.0)
    for d in ("fwd", "bwd"):
        secs = self_s.get(f"ops.conv_{d}.s", 0.0)
        out[f"ops.conv_{d}.gflops"] = (out[f"ops.conv_{d}.gflop"] / secs
                                       if secs else 0.0)
    return out, calls


def _median_of(rows: list, key: str) -> float:
    return statistics.median(r[key] for r in rows)


def run(name, seed, seconds, trace, scale="full", root=None, work=None,
        keep=False):
    """Run one workload; returns (result, info) as printed.

    The work directory defaults to WORK_DIR/<workload> under the checkout
    root and is removed at the end unless keep is set.
    """
    root = Path(root or Path.cwd()).resolve()
    started = time.monotonic()
    w = workloads.build(name, seed, scale)
    work = Path(work or root / WORK_DIR / name).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, started + RUN_BUDGET_S)
    failures, setups = [], []
    attempted = failed = 0
    try:
        synth = w.write_inputs(work)
        for _ in range(SETUP_REPEATS):
            runs = [runner.stage(argv) for argv in synth]
            bad = [r for r in runs if r.rc != 0]
            if bad:
                raise StageError(f"set-up failed: {bad[0].err}")
            setups.append(sum(r.wall_s for r in runs))

        plain, traced, layers, digest = [], [], [], None
        measured = 0.0
        while True:
            step = 0.0
            for spans in ([None, work / "spans"] if trace else [None]):
                runs = run_round(runner, w, spans)
                attempted += len(runs)
                step += sum(r.wall_s for r in runs)
                if runs[-1].rc != 0:
                    failed += 1
                    failures.append(f"stage: {runs[-1].stage} exited "
                                    f"{runs[-1].rc}: {runs[-1].err}")
                    raise StageError("a stage failed")
                figs = round_figures(runs, w, work)
                if digest is None:
                    try:
                        found, oa = checks.check_outputs(work, w, seed)
                    except (OSError, ValueError, KeyError) as exc:
                        raise StageError(f"checks: unreadable output: "
                                         f"{exc}") from exc
                    failures += found
                    figs["map_oa"] = oa["merged"]
                    figs["oa"] = oa
                    digest = checks.output_digest(work, w)
                elif checks.output_digest(work, w) != digest:
                    failures.append("repeat: a repeated round wrote "
                                    "different reports or rasters")
                if spans is None:
                    plain.append(figs)
                else:
                    traced.append(figs)
                    figs_l, calls = layer_figures(spans)
                    layers.append(figs_l)
                    silent = [m for m in EXPECTED_LAYERS[name]
                              if not calls.get(m)]
                    if silent:
                        failures.append("coverage: no calls recorded for "
                                        + ", ".join(silent))
            measured += step
            enough = len(plain) >= (1 if trace else MIN_ROUNDS)
            if enough and measured + step > seconds:
                break
    except StageError as exc:
        failures.append(str(exc))
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)

    correct = not failures
    metrics = {}
    if correct and not trace:
        figs = {"setup_s": statistics.median(setups),
                "map_oa": plain[0]["map_oa"]}
        for key in ("map_s", "train_s", "predict_s", "peak_rss_mb",
                    "model_mb"):
            figs[key] = _median_of(plain, key)
        metrics = {n: {"value": figs[n], "unit": u} for n, u in END_TO_END}
    elif correct:
        figs = {n: _median_of(layers, n) for n, _ in PER_LAYER
                if n != "trace.overhead.s"}
        figs["trace.overhead.s"] = (_median_of(traced, "map_s")
                                    - _median_of(plain, "map_s"))
        metrics = {n: {"value": figs[n], "unit": u} for n, u in PER_LAYER}
    info = {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "env": {**stage_env(runner), "cores": os.cpu_count(),
                "python": sys.version.split()[0]},
        "setup_s": setups,
        "rounds": {"untraced": plain, "traced": traced},
        "failures": failures,
    }
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "landseg" / "cli.py").is_file():
        print("error: run from the root of a landseg checkout "
              "(src/landseg/cli.py not found)", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), root=root)
    for line in info["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
