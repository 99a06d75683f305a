"""The benchmark's workloads: which solves each one runs, and how.

Every workload is closed-loop: one caller, one solve at a time, default
``SolverConfig``. Only ``batch-small`` draws its starts from the seed;
the fixed-row workloads ignore it, because a random start changes the
cost of one solve by two orders of magnitude (see README.md).
"""
from __future__ import annotations

import dataclasses

import numpy as np

import intfill.benchmarks
import intfill.cli
import intfill.solver
from intfill.benchmarks import BenchmarkProblem
from intfill.core import EvalCounter, is_discrete_local_min

APPENDIX_ESCAPE_ROWS = ("colville", "booth", "three-hump-camel", "leon", "salomon")
SCHAFFER_STARTS = ((8, 2), (9, 3), (-33, 7))
HIGHDIM_PROBLEMS = ("rosenbrock", "rastrigin")
BATCH_PROBLEMS = ("booth", "three-hump-camel", "leon", "rastrigin", "rosenbrock")
BATCH_SOLVES = 240


@dataclasses.dataclass(frozen=True)
class Solve:
    """One solve of a workload: a problem, its dimension and a start."""

    problem: str
    n: int | None
    start: tuple[int, ...]


@dataclasses.dataclass
class Outcome:
    """What one solve returned, in the form the result check needs."""

    solve: Solve
    seconds: float
    x_best: tuple[int, ...] | None = None
    f_best: float | None = None
    n_fu: int = 0
    n_fill: int = 0
    hit: bool = False
    error: str | None = None

    def columns(self) -> tuple:
        return (self.f_best, self.n_fu, self.n_fill)


@dataclasses.dataclass
class Workload:
    name: str
    solves: list[Solve]
    problems: dict[tuple[str, int | None], BenchmarkProblem]
    config: intfill.solver.SolverConfig
    via_cli: bool

    def problem(self, solve: Solve) -> BenchmarkProblem:
        return self.problems[(solve.problem, solve.n)]


def _appendix_start(name: str) -> tuple[int, ...]:
    for row, n, start in intfill.benchmarks.APPENDIX_RUNS:
        if row == name and n is None:
            return start
    raise KeyError(name)


def _solves(name: str, seed: int) -> list[Solve]:
    get = intfill.benchmarks.get_problem
    if name == "appendix-escape":
        return [Solve(row, None, _appendix_start(row)) for row in APPENDIX_ESCAPE_ROWS]
    if name == "schaffer-descent":
        return [Solve("schaffer-n1", None, start) for start in SCHAFFER_STARTS]
    if name == "highdim-chain":
        return [Solve(p, 10, get(p, 10).default_start) for p in HIGHDIM_PROBLEMS]
    if name == "batch-small":
        rng = np.random.default_rng(seed)
        boxes = {p: get(p).box for p in BATCH_PROBLEMS}
        out = []
        for i in range(BATCH_SOLVES):
            problem = BATCH_PROBLEMS[i % len(BATCH_PROBLEMS)]
            start = rng.integers(boxes[problem].lower, boxes[problem].upper, endpoint=True)
            out.append(Solve(problem, None, tuple(int(v) for v in start)))
        return out
    raise KeyError(name)


WORKLOADS = ("appendix-escape", "schaffer-descent", "highdim-chain", "batch-small")


def build(name: str, seed: int) -> Workload:
    """Everything a workload needs before its first solve."""
    solves = _solves(name, seed)
    problems = {
        (s.problem, s.n): intfill.benchmarks.get_problem(s.problem, s.n) for s in solves
    }
    return Workload(
        name=name,
        solves=solves,
        problems=problems,
        config=intfill.solver.SolverConfig(),
        via_cli=name == "batch-small",
    )


def run_direct(workload: Workload, solve: Solve, clock) -> Outcome:
    """Solve through ``intfill.solver.solve_problem``."""
    problem = workload.problem(solve)
    t0 = clock()
    report = intfill.solver.solve_problem(problem, solve.start, workload.config, EvalCounter())
    seconds = clock() - t0
    return Outcome(
        solve,
        seconds,
        x_best=report.x_best,
        f_best=report.f_best,
        n_fu=report.n_fu,
        n_fill=report.n_fill,
        hit=report.f_best <= problem.known_value + intfill.cli.HIT_TOLERANCE,
    )


def run_cli(solve: Solve, captured: list, clock) -> tuple[Outcome, dict]:
    """Solve through ``intfill.cli.execute_run``, as ``intfill run`` does.

    The CLI record carries no ``x_best``, so it is read from ``captured``,
    which a hook on ``intfill.cli.solve_problem`` appends to.
    """
    spec = {"problem": solve.problem, "start": list(solve.start)}
    if solve.n is not None:
        spec["n"] = solve.n
    captured.clear()
    t0 = clock()
    record = intfill.cli.execute_run(spec, {})
    seconds = clock() - t0
    out = Outcome(solve, seconds, error=record["error"])
    if record["error"] is None:
        if len(captured) != 1:
            out.error = f"capture hook saw {len(captured)} solves"
        else:
            out.x_best = captured[0]
            out.f_best = record["f_g"]
            out.n_fu = record["n_fu"]
            out.n_fill = record["n_fill"]
            out.hit = bool(record["hit"])
    return out, record


def check(workload: Workload, outcome: Outcome) -> str | None:
    """Why a solve's result is wrong, or None when it passes every check."""
    if outcome.error is not None:
        return outcome.error
    problem = workload.problem(outcome.solve)
    x = np.asarray(outcome.x_best, dtype=np.int64)
    if not problem.box.contains(x):
        return f"x_best {outcome.x_best} lies outside the box"
    value = float(problem.func(x))
    if value.hex() != float(outcome.f_best).hex():
        return f"func(x_best) = {value!r} but f_best = {outcome.f_best!r}"
    if not is_discrete_local_min(problem.func, x, problem.box):
        return f"x_best {outcome.x_best} is not a discrete local minimum"
    if outcome.f_best < problem.known_value:
        return f"f_best {outcome.f_best!r} lies below known_value {problem.known_value!r}"
    return None
