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
directory. ``matrix`` takes a config file or ``--builtin appendix``,
not both, and runs its rows in order in the calling process.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from .benchmarks import (
    APPENDIX_RUNS,
    brute_force_min,
    expand_start_pattern,
    get_problem,
    registry,
)
from .core import DomainError, ParameterError, as_int_point, point_key
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
        if not isinstance(params, dict):
            raise ParameterError(f"filled_params must be an object, got {params!r}")
        unknown = set(params) - {f.name for f in dataclasses.fields(FilledParams)}
        if unknown:
            raise ParameterError(f"unknown filled_params keys: {sorted(unknown)}")
        data["filled_params"] = FilledParams(**params)
    return SolverConfig(**data)


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
        config = spec.get("config", {})
        if not isinstance(config, dict):
            raise ParameterError(f"config must be an object, got {config!r}")
        cfg = config_from_dict({**defaults, **config})
        if "start" in spec and "start_pattern" in spec:
            raise ParameterError("give either 'start' or 'start_pattern', not both")
        key = "start_pattern" if "start_pattern" in spec else "start"
        try:
            if key == "start_pattern":
                start = expand_start_pattern(spec[key], problem.dimension)
            elif key in spec:
                start = point_key(as_int_point(spec[key]))
            else:
                start = problem.default_start
        except (ParameterError, DomainError) as exc:
            raise type(exc)(f"{key}: {exc}") from None
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
    except ValueError as exc:
        record["error"] = str(exc)
    except Exception as exc:
        # Any other failure of one row is recorded too, so that it cannot
        # abort the rest of a batch.
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def write_csv(records: Sequence[dict[str, Any]], path: Path) -> None:
    # csv writes None as an empty cell and a float with repr.
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow(
                json.dumps(v) if isinstance(v, (bool, list)) else v
                for v in (rec[f] for f in RECORD_FIELDS)
            )


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
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
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
        try:  # read as a run spec's start is; execute_run checks it
            spec["start"] = json.loads(f"[{args.start}]")
        except (ValueError, RecursionError):  # RecursionError: nested too deep
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
    if args.builtin:
        defaults, specs = {}, _appendix_specs()
    else:
        defaults, specs = _read_config(args.config)
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

    # argparse draws a required group that holds a positional as two
    # optional items, so the usage line is spelled out.
    p_mat = sub.add_parser(
        "matrix",
        help="run a batch and emit CSV/JSON",
        usage="%(prog)s [-h] (config | --builtin {appendix}) [--name NAME] "
        "[--output-dir OUTPUT_DIR]",
    )
    source = p_mat.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?", help="JSON config file")
    source.add_argument("--builtin", choices=["appendix"], default=None)
    p_mat.add_argument("--name", default="matrix", help="output file stem")
    p_mat.add_argument("--output-dir", default=None)
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
    except OSError as exc:  # say, a config path that is missing or a directory
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
