"""Command-line harness for benchmark runs.

Subcommands:

* ``run``    - solve one problem and emit a single record.
* ``matrix`` - execute a batch of runs from a JSON config (or the
  built-in appendix batch) and emit CSV + JSON tables with a hit column
  against the registered minima.
* ``oracle`` - brute-force a problem's true lattice minimum.
* ``list``   - show the problem registry.

Config file schema (JSON)::

    {
      "defaults": { ... SolverConfig field overrides ... },
      "runs": [
        {
          "problem": "rosenbrock",      # required registry name
          "n": 5,                        # optional dimension
          "start": [3, 3, 3, 3, 3],      # explicit start, or:
          "start_pattern": [3],          # cycled out to dimension n
          "config": { ... per-run SolverConfig overrides ... }
        }
      ]
    }

``filled_params`` inside a config block may be given as an object with
``r_max``/``r_min``/``shrink_factor`` keys. Unknown keys are rejected.
Record columns are problem, n, x0, f_g, n_fu, n_fill, wall_time,
termination, known_value, hit, error. Emitted floats use ``repr`` so
parsing a table reproduces the in-memory values exactly.

The output directory is taken from ``--output-dir``, else the
``INTFILL_OUTPUT_DIR`` environment variable, else the current
directory. Matrix rows run sequentially by default; ``--jobs N`` opts
in to process-level parallelism with per-row counters (row order in the
output is preserved either way).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from .benchmarks import (
    APPENDIX_RUNS,
    brute_force_min,
    expand_start_pattern,
    get_problem,
    registry,
)
from .core import DomainError, ParameterError
from .filled import FilledParams
from .solver import SolverConfig, solve_problem

RECORD_FIELDS = (
    "problem",
    "n",
    "x0",
    "f_g",
    "n_fu",
    "n_fill",
    "wall_time",
    "termination",
    "known_value",
    "hit",
    "error",
)

HIT_TOLERANCE = 1e-9


def config_from_dict(overrides: dict[str, Any] | None) -> SolverConfig:
    """Build a SolverConfig from JSON-ish overrides, rejecting unknowns."""
    data = dict(overrides or {})
    params = data.pop("filled_params", None)
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = set(data) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    if params is not None:
        data["filled_params"] = FilledParams(**params)
    return SolverConfig(**data)


def _merge_config(defaults: dict[str, Any], per_run: dict[str, Any]) -> SolverConfig:
    merged = dict(defaults)
    merged.update(per_run)
    return config_from_dict(merged)


def execute_run(spec: dict[str, Any], defaults: dict[str, Any]) -> dict[str, Any]:
    """Execute one run spec; errors land in the record, not in raises."""
    record: dict[str, Any] = {field: None for field in RECORD_FIELDS}
    try:
        if not isinstance(spec, dict):
            raise ParameterError(f"run spec must be an object, got {spec!r}")
        record["problem"] = spec.get("problem")
        if "problem" not in spec:
            raise ParameterError("run spec needs a 'problem' name")
        unknown = set(spec) - {"problem", "n", "start", "start_pattern", "config"}
        if unknown:
            raise ParameterError(f"unknown run keys: {sorted(unknown)}")
        problem = get_problem(spec["problem"], spec.get("n"))
        cfg = _merge_config(defaults, spec.get("config") or {})
        if "start" in spec and "start_pattern" in spec:
            raise ParameterError("give either 'start' or 'start_pattern', not both")
        if "start_pattern" in spec:
            start = expand_start_pattern(spec["start_pattern"], problem.dimension)
        elif "start" in spec:
            start = tuple(int(v) for v in spec["start"])
        else:
            start = problem.default_start
        report = solve_problem(problem, start, cfg)
        record.update(
            n=problem.dimension,
            x0=list(start),
            f_g=report.f_best,
            n_fu=report.n_fu,
            n_fill=report.n_fill,
            wall_time=report.wall_time,
            termination=report.termination,
            known_value=problem.known_value,
            hit=bool(report.f_best <= problem.known_value + HIT_TOLERANCE),
        )
    except (ParameterError, DomainError, ValueError) as exc:
        record["error"] = str(exc)
    except Exception as exc:
        # Any other failure of one row (say, a bad minimizer option) is
        # recorded too, so that it cannot abort the rest of a batch.
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def write_csv(records: Sequence[dict[str, Any]], path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow([_csv_cell(rec[f]) for f in RECORD_FIELDS])


def write_json(records: Sequence[dict[str, Any]], path: Path) -> None:
    ordered = [{f: rec[f] for f in RECORD_FIELDS} for rec in records]
    with path.open("w") as fh:
        json.dump(ordered, fh, indent=2)
        fh.write("\n")


def _appendix_specs() -> list[dict[str, Any]]:
    return [
        {"problem": name, **({"n": n} if n else {}), "start": list(start)}
        for name, n, start in APPENDIX_RUNS
    ]


def _output_dir(args: argparse.Namespace) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    env = os.environ.get("INTFILL_OUTPUT_DIR")
    return Path(env) if env else Path(".")


def _read_config(path: str) -> tuple[dict[str, Any], list[Any]]:
    """The ``defaults`` and ``runs`` of a config file, checked for shape."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParameterError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: the top level must be an object")
    defaults, runs = doc.get("defaults", {}), doc.get("runs", [])
    if not isinstance(defaults, dict):
        raise ParameterError(f"{path}: 'defaults' must be an object")
    if not isinstance(runs, list):
        raise ParameterError(f"{path}: 'runs' must be a list")
    return defaults, runs


def _cmd_run(args: argparse.Namespace) -> int:
    spec: dict[str, Any] = {"problem": args.problem}
    if args.n is not None:
        spec["n"] = args.n
    if args.start:
        try:
            spec["start"] = [int(v) for v in args.start.split(",")]
        except ValueError:
            raise ParameterError(f"--start must be integers: {args.start!r}") from None
    defaults = _read_config(args.config)[0] if args.config else {}
    record = execute_run(spec, defaults)
    json.dump({f: record[f] for f in RECORD_FIELDS}, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if record["error"]:
        sys.stderr.write(f"error: {record['error']}\n")
        return 2
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    if args.builtin == "appendix":
        specs = _appendix_specs()
        defaults: dict[str, Any] = {}
    elif args.config:
        defaults, specs = _read_config(args.config)
    else:
        sys.stderr.write("matrix needs a config file or --builtin appendix\n")
        return 2
    if args.jobs > 1 and specs:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(execute_run, specs, [defaults] * len(specs)))
    else:
        records = [execute_run(spec, defaults) for spec in specs]
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.name
    write_csv(records, out_dir / f"{stem}.csv")
    write_json(records, out_dir / f"{stem}.json")
    scored = [r for r in records if r["error"] is None]
    hits = sum(1 for r in records if r["hit"])
    for rec in records:
        if rec["error"] is not None:
            line = f"{rec['problem']}: error: {rec['error']}"
        else:
            line = (
                f"{rec['problem']} n={rec['n']} f_g={rec['f_g']} "
                f"n_fu={rec['n_fu']} n_fill={rec['n_fill']} "
                f"hit={'yes' if rec['hit'] else 'no'}"
            )
        print(line)
    print(f"hit rate: {hits}/{len(records)} ({len(records) - len(scored)} errors)")
    print(f"wrote {out_dir / (stem + '.csv')} and {out_dir / (stem + '.json')}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    problem = get_problem(args.problem, args.n)
    point, value = brute_force_min(problem)
    json.dump(
        {
            "problem": problem.name,
            "n": problem.dimension,
            "minimizer": [int(v) for v in point],
            "value": value,
        },
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    for p in registry():
        lo, hi = int(p.box.lower[0]), int(p.box.upper[0])
        print(
            f"{p.name:18s} n={p.dimension:<3d} box=[{lo},{hi}]^n "
            f"min={p.known_value} start={list(p.default_start)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intfill",
        description="Filled-function global search on integer boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--start", help="comma-separated integers")
    p_run.add_argument("--config", help="JSON file whose 'defaults' apply")
    p_run.set_defaults(func=_cmd_run)

    p_mat = sub.add_parser("matrix", help="run a batch and emit CSV/JSON")
    p_mat.add_argument("config", nargs="?", help="JSON config file")
    p_mat.add_argument("--builtin", choices=["appendix"], default=None)
    p_mat.add_argument("--name", default="matrix", help="output file stem")
    p_mat.add_argument("--output-dir", default=None)
    p_mat.add_argument("--jobs", type=int, default=1)
    p_mat.set_defaults(func=_cmd_matrix)

    p_or = sub.add_parser("oracle", help="brute-force a problem")
    p_or.add_argument("--problem", required=True)
    p_or.add_argument("--n", type=int, default=None)
    p_or.set_defaults(func=_cmd_oracle)

    p_ls = sub.add_parser("list", help="show the registry")
    p_ls.set_defaults(func=_cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
