"""lotnn benchmark entry point.

Run from the repository root:

    python3 benchmarks/bench.py --workload fit_d2 --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from the seed, measures its pipeline for
about `--seconds` seconds and checks the outputs. It prints the run
environment, sha256 digests of the outputs, one line per metric, and as
the last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`. It exits 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One BLAS thread, at most the 2 cores of the machine the benchmark was
# written on. There, three runs of one seed of a d=10 embedding workload
# took 7.6-8.1 s to embed with one thread and 6.9-10.5 s with two.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still leaves through `finally` and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "lotnn" / "__init__.py").is_file():
        print(f"bench: no lotnn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # must happen before numpy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import runner
    from pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(runner.environment()), flush=True)
    out = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result = out["result"]
    for msg in out["failures"]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print("digests " + json.dumps(out["digests"]))
    print("rounds " + json.dumps(out["rounds"]))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
