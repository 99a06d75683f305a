"""Run one workload of the intfill benchmark and print its metrics.

    python3 perfbench/run.py --workload appendix-escape --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the solver is imported from the
``src/`` directory beside this one, never from an installed copy, and
the run fails without printing a result when that directory is missing.
``--workload all`` runs every workload in turn in this one process.

Every line but the last is for people: each metric by name and unit,
the seed, the thread settings and a digest of the result columns. The
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off; with ``--trace 1`` they are the per-layer
ones from a traced pass. README.md says what each workload is for.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up one workload and exit; the parent times the process.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy loads, so BFGS's small outer
    # products and matmuls start no threads; setup probes inherit this.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "intfill" / "__init__.py").is_file():
        print(f"error: no intfill package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, build  # imports intfill from SRC

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    if args.setup_only:
        for name in names:
            build(name, args.seed)
        return 0
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"threads {threads} nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))}")
    import bench

    results = {n: bench.run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
