"""One benchmark run: set-up, measured rounds, metrics, run environment.

An untraced run sets up several times and reports the median set-up
time. It then runs one warm-up round of the workload's pipeline and
further rounds while the next one still fits in the measured time, and
reports each end-to-end metric as the median over the rounds after the
warm-up, so that a slow stretch of a shared machine moves few of them.
A traced run alternates untraced and traced rounds after the warm-up;
its per-layer figures are those of one traced set-up plus the median
traced round, and `trace.overhead_s` is the difference between the
median traced and untraced round. Every round, the warm-up too, is
checked.

Just before and just after each set-up and each stage the run times a
fixed numpy kernel (calibrate.py) and divides the stage's seconds by how
many times slower than its reference the kernel ran around it, so every
end-to-end time and rate is in seconds at that reference speed. The
median slowdown is printed with the stage seconds as measured.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import lotnn
from calibrate import REFERENCE_S, kernel_seconds
from pipeline import WORKLOADS, RoundResult, median, run_round, setup
from tracing import LAYER_NAMES, Span, Tracer, aggregate, installed

# an untraced run sets up at least SETUP_REPS times and until SETUP_SECONDS
# have passed, kernel passes included, and reports the median; a set-up
# shares its first kernel pass with the previous one's last
SETUP_REPS = 5
SETUP_SECONDS = 4.0

# name -> unit of every end-to-end metric, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fit_steps_per_s": "1/s",
    "embed_clouds_per_s": "1/s",
    "dist_pairs_per_s": "1/s",
    "oracle_pairs_per_s": "1/s",
    "baseline_s": "s",
    "bundle_mb": "MB",
    "val_accuracy": "fraction",
    "test_accuracy": "fraction",
    "baseline_accuracy": "fraction",
    "ok_share": "fraction",
}

PER_LAYER = {f"{name}.{stat}": unit
             for name in LAYER_NAMES
             for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))}
PER_LAYER.update({
    "classify.kept_step_share": "fraction",
    "lot.w2_relerr": "fraction",
    "bundle.bytes": "bytes",
    "trace.overhead_s": "s",
    "machine.slowdown": "ratio",
})


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, when it exposes one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lotnn": lotnn.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


def _rounds(w, inp, seed: int, seconds: float, tracer: Tracer | None = None):
    """A warm-up round, then rounds while the next one is expected to end
    within `seconds` of the start.

    Each round starts from a collected heap. With a tracer, the rounds
    after the warm-up alternate untraced and traced, and each traced
    round is returned with its spans.
    """
    t0 = time.perf_counter()
    warmup = run_round(w, inp, seed)
    plain: list[RoundResult] = []
    traced: list[tuple[RoundResult, list[Span]]] = []
    lengths: list[float] = []
    while True:
        gc.collect()
        t = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            with installed(tracer):
                r = run_round(w, inp, seed)
            traced.append((r, tracer.take()))
        else:
            plain.append(run_round(w, inp, seed))
        lengths.append(time.perf_counter() - t)
        if ((tracer is None or traced)
                and time.perf_counter() - t0 + median(lengths) > seconds):
            return warmup, plain, traced


def _counts(rounds: list[RoundResult]) -> tuple[int, int, list[str]]:
    """Operations over all rounds, with a reproducibility check per round."""
    attempted = failed = 0
    failures: list[str] = []
    for r in rounds:
        if r is not rounds[0]:
            r.ops.check("round reproduces the first round's digests",
                        r.digests == rounds[0].digests)
        attempted += r.ops.attempted
        failed += r.ops.failed
        failures += r.ops.failures
    return attempted, failed, failures


def _med(rounds: list[RoundResult], fn) -> float | None:
    try:
        return median(fn(r) for r in rounds)
    except (KeyError, ZeroDivisionError, statistics.StatisticsError):
        return None


def _ref_s(r: RoundResult, stage: str) -> float:
    """A stage's seconds at calibrate.REFERENCE_S speed; "wall" sums them."""
    stages = r.slowdown if stage == "wall" else (stage,)
    return sum(r.times[k] / r.slowdown[k] for k in stages)


def _slowdown(rounds: list[RoundResult]) -> float:
    return median(median(r.slowdown.values()) for r in rounds)


def end_to_end(setup_times, rounds, attempted: int, failed: int) -> dict:
    values = {
        "setup_s": median(setup_times),
        "wall_s": _med(rounds, lambda r: _ref_s(r, "wall")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fit_steps_per_s": _med(rounds, lambda r: r.counts["fit_steps"] / _ref_s(r, "fit")),
        "embed_clouds_per_s": _med(
            rounds, lambda r: r.counts["embed_clouds"] / _ref_s(r, "embed")),
        "dist_pairs_per_s": _med(
            rounds, lambda r: r.counts["dist_pairs"] / _ref_s(r, "dist")),
        "oracle_pairs_per_s": _med(
            rounds, lambda r: r.counts["oracle_calls"] / _ref_s(r, "oracle")),
        "baseline_s": _med(rounds, lambda r: _ref_s(r, "baseline")),
        "bundle_mb": _med(rounds, lambda r: r.counts["bundle_bytes"] / 1e6),
        "ok_share": 1.0 - failed / attempted,
    }
    for key in ("val_accuracy", "test_accuracy", "baseline_accuracy"):
        values[key] = rounds[0].quality.get(key)
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(setup_spans, traced, plain) -> dict:
    setup_agg = aggregate(setup_spans)
    round_aggs = [aggregate(spans) for _, spans in traced]
    values = {}
    for name in LAYER_NAMES:
        for stat in ("calls", "s", "self_s"):
            in_setup = setup_agg.get(name, {}).get(stat, 0)
            in_round = median(a.get(name, {}).get(stat, 0) for a in round_aggs)
            values[f"{name}.{stat}"] = in_setup + in_round
    first = traced[0][0]
    values["classify.kept_step_share"] = first.quality.get("kept_step_share")
    values["lot.w2_relerr"] = first.quality.get("lot_w2_relerr")
    values["bundle.bytes"] = first.counts.get("bundle_bytes")
    values["trace.overhead_s"] = (median(_ref_s(r, "wall") for r, _ in traced)
                                  - median(_ref_s(r, "wall") for r in plain))
    values["machine.slowdown"] = _slowdown(plain)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload.

    Returns the result object, the first round's digests, the messages of
    failed checks, and the round counts with the median stage seconds as
    measured and the median slowdown.
    """
    w = WORKLOADS[name]
    workdir = root / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times: list[float] = []
        t0 = time.perf_counter()
        kernel_s = kernel_seconds()
        while not setup_times or not trace and (
                len(setup_times) < SETUP_REPS
                or time.perf_counter() - t0 < SETUP_SECONDS):
            gc.collect()
            before = kernel_s
            t = time.perf_counter()
            inp = setup(w, seed, workdir)
            took = time.perf_counter() - t
            kernel_s = kernel_seconds()
            setup_times.append(took / ((before + kernel_s) / (2 * REFERENCE_S)))
        tracer = Tracer() if trace else None
        setup_spans: list[Span] = []
        if tracer is not None:
            with installed(tracer):
                inp = setup(w, seed, workdir)
            setup_spans = tracer.take()
        warmup, plain, traced = _rounds(w, inp, seed, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    rounds = [warmup, *plain, *(r for r, _ in traced)]
    attempted, failed, failures = _counts(rounds)
    metrics = (per_layer(setup_spans, traced, plain) if trace
               else end_to_end(setup_times, plain, attempted, failed))
    stages = {k: median(r.times[k] for r in plain if k in r.times)
              for k in plain[0].times}
    stages["slowdown"] = _slowdown(plain)
    return {
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "digests": rounds[0].digests,
        "failures": failures,
        "rounds": {"untraced": len(plain), "traced": len(traced),
                   "stage_s": stages},
    }
