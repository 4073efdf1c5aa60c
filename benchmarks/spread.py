"""Run every workload over several seeds and report each metric's spread.

Run from the repository root:

    python3 benchmarks/spread.py --seeds 1-10 --out benchmarks/baseline.json

For each workload and end-to-end metric it prints the median over the
seeds and the spread, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound from
BENCHMARK.json. It then makes one traced run per workload, with the
first seed, for the per-layer figures. Runs are sequential, one process
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result object and its recorded environment."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", help="write medians, quartiles and spreads here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    layers: dict = {}
    worst = 0.0
    env: dict = {}
    for w in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            result, env = run_once(w, seed, args.seconds, 0)
            runs.append(result)
        report[w] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            s = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, s / bound)
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                               "bound": bound,
                               "unit": runs[0]["metrics"][name]["unit"]}
            print(f"{w:12s} {name:20s} median={med:<12.6g} spread={s:.4f} "
                  f"bound={bound}", flush=True)
        traced, _ = run_once(w, seed_list(args.seeds)[0], args.seconds, 1)
        layers[w] = {k: m["value"] for k, m in traced["metrics"].items()}
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "env": env,
             "workloads": report, "per_layer": layers},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
