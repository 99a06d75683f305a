"""Global search: filled-function escape loop plus restart wrapper.

The inner search alternates two phases around a current *anchor* (the
best discrete local minimizer of the current pass):

1. descend the objective (continuous minimizer, then rounding, then
   discrete steepest descent) to obtain the anchor, and
2. from each unit neighbor of the anchor, cheapest first, minimize an
   augmented filled function built for that pass at the margin ``r_max``;
   round the endpoint and take the best objective value over its
   neighborhood. A compass escape walk therefore stops at its first step
   below one lattice unit (``step_tol = _ESCAPE_STEP_TOL = 0.75``): a
   finer poll moves the endpoint by less than one unit, and the rounding
   and the neighborhood argmin that follow look one unit around it
   anyway. Each escape event records how the walk ended and how many
   points it evaluated. Any strict improvement restarts phase 1 from the
   improving point. Otherwise the neighbor gets another pass, with a new
   filled function at the margin ``FilledParams.next_margin`` gives,
   until it gives none or the endpoint lands on a box vertex.

The outer loop runs the inner search ``max_outer_iterations`` times,
and every round starts from the incumbent: the best anchor found so
far once it beats the start point's value, else the start. The solver
alone sets a compass escape's ``step_tol`` (above) and its ``expand``:
the round number. A later round descends back to an anchor an earlier
round already escaped from, so round ``k`` multiplies the compass step
by ``k`` on each successful poll: the walk then jumps
along the lattice and polls points far off its axis lines, where round
1's unit-step walk never looked, and no two rounds replay the same walk.
Each inner search builds its two minimizers once and reuses them for
every descent and escape pass, so ``minimize`` must not depend on state
left by an earlier call; both built-in minimizers, like ``SolverConfig``,
are frozen dataclasses, checked once when built.

Evaluation accounting: every objective evaluation (including candidate
ordering, neighborhood argmins, and the objective evaluation embedded
in each filled value) charges ``n_fu``, and every filled evaluation
(including the per-escape bound check and the D1/DC2 condition checks)
charges ``n_fill``, so ``n_fu - n_fill`` counts the objective
evaluations made outside filled values. The run record owns two memos,
each of at most ``filled._MEMO_SIZE`` = 8,192 values, the least recently
used dropped first. One holds the objective at the lattice points the
solve evaluated, and serves ``f(start)``, phase 1's lattice descent,
candidate ordering, the landing's neighborhood argmin and the final
polish. The other holds filled values for the last anchor escaped from
and its value. The escape pass hands it to the D1 check and to each
candidate's first pass, all at ``r_max``, in every round; a retry pass
at a smaller margin gets none and evaluates every point. The D1 check,
a compass escape, the bound check at an integral endpoint and the DC2
check recall a value from it instead of evaluating the point again. A
recalled value charges nothing and leaves the path of the solve as it
was. When the combined budget runs out mid-search the run is cut
deterministically, and the evaluation it cuts stores nothing.

The report's ``events`` are the one record of what a solve did, each
stamped with ``n_fu`` and ``n_fill`` when logged (kinds in
``EVENT_KINDS``). Phase 1 logs an ``anchor``, then its ``dc2`` check if
the escape that led there owes one; phase 2 logs the ``d1`` check, then
one ``escape`` per pass, which carries the pass's bound check.

The run record keeps the best anchor and the best lattice point seen,
and one exit reads them whether the rounds ran out or the budget cut
the search: the best anchor is reported, unless a point seen beats it.
That point is then polished to a discrete local minimizer with the
budget lifted (a ``finalize_descent`` event), so reported counters may
slightly exceed the budget. The reported point is a discrete local
minimizer on every path.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import math
import time
from typing import Any

import numpy as np

from . import filled as _filled
from .benchmarks import BenchmarkProblem
from .core import (
    BoxDomain,
    BudgetExhausted,
    DomainError,
    EvalCounter,
    IntPoint,
    ObjectiveFunction,
    ParameterError,
    as_int_point,
    check_numbers,
    is_discrete_local_min,
    neighborhood,
    neighborhood_argmin,
    point_key,
    round_point,
)
from .filled import (
    ANCHOR_FILLED,
    AugmentedFilled,
    FilledParams,
    InverseSquareFilled,
    rounding_error_check,
)
from .local_search import MINIMIZERS, make_minimizer, steepest_descent_discrete

# The compass escape's step_tol: its walk ends at its first step below one
# lattice unit, as the endpoint is rounded and its neighborhood argmin'd.
_ESCAPE_STEP_TOL = 0.75


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Frozen settings of one solve. Defaults match the acceptance setup."""

    max_outer_iterations: int = 3
    filled_params: FilledParams = dataclasses.field(default_factory=FilledParams)
    objective_minimizer: str = "quasi-newton"
    filled_minimizer: str = "compass"
    max_evaluations: int = 10_000_000

    def __post_init__(self) -> None:
        check_numbers(self)
        for name in ("max_outer_iterations", "max_evaluations"):
            if (value := getattr(self, name)) < 1:
                raise ParameterError(f"{name} must be an int >= 1, got {value!r}")
        if not isinstance(value := self.filled_params, FilledParams):
            raise ParameterError(f"filled_params must be a FilledParams, got {value!r}")


# The kinds of event a solve logs, in the order a round first logs them.
EVENT_KINDS = (
    "start", "anchor", "dc2", "d1", "escape", "outer_result", "finalize_descent"
)


@dataclasses.dataclass
class SolveReport:
    """What a solve found and what it did: ``events`` is its one record."""

    x_best: tuple[int, ...]
    f_best: float
    n_fu: int
    n_fill: int
    termination: str
    outer_iterations: int
    events: list[dict]
    wall_time: float

    def columns(self) -> tuple[float, int, int]:
        """The deterministic result columns (excludes wall time)."""
        return (self.f_best, self.n_fu, self.n_fill)


def vertex_check(x: IntPoint, box: BoxDomain) -> bool:
    """True when every coordinate sits on a bound of the box."""
    bounds = zip(np.asarray(x).tolist(), box.lower.tolist(), box.upper.tolist())
    return all(v == lo or v == hi for v, lo, hi in bounds)


def _beats(v: float, best: float) -> bool:
    """``v < best``, except that any number beats NaN."""
    return v < best or (math.isnan(best) and not math.isnan(v))


@dataclasses.dataclass
class _RunRecord:
    obj: ObjectiveFunction | None = None  # whose lattice values ``value`` keeps
    events: list[dict] = dataclasses.field(default_factory=list)
    # Best discrete local minimizer reached (anchors always are) and the
    # best lattice value seen: the start, the anchors and escape landings.
    best_anchor: tuple[IntPoint, float] | None = None
    best_seen: tuple[IntPoint, float] | None = None
    # Filled values around the last anchor escaped from, and (anchor, value).
    memo: collections.OrderedDict | None = None
    memo_key: tuple | None = None
    # Objective values at the lattice points evaluated, by their int64 bytes.
    values: collections.OrderedDict = dataclasses.field(
        default_factory=collections.OrderedDict
    )

    def incumbent(self, start: IntPoint, f_start: float) -> tuple[IntPoint, float]:
        """Where an outer round starts: the best anchor once it beats the start."""
        if self.best_anchor is not None and _beats(self.best_anchor[1], f_start):
            return self.best_anchor
        return start, f_start

    def note_anchor(self, x: IntPoint, v: float) -> None:
        if self.best_anchor is None or _beats(v, self.best_anchor[1]):
            self.best_anchor = (np.array(x), v)
        self.note_seen(x, v)

    def note_seen(self, x: IntPoint, v: float) -> None:
        if self.best_seen is None or _beats(v, self.best_seen[1]):
            self.best_seen = (np.array(x), v)

    def value(self, x: IntPoint) -> float:
        """``obj(x)`` at an int64 lattice point, evaluated once while remembered."""
        values = self.values
        key = x.tobytes()
        if (v := values.get(key)) is None:
            v = values[key] = self.obj(x)
            if len(values) > _filled._MEMO_SIZE:
                values.popitem(last=False)
        else:
            values.move_to_end(key)
        return v

    def filled_memo(self, anchor: IntPoint, value: float) -> collections.OrderedDict:
        """The memo of ``anchor`` at ``value``: the current one, or a new
        one that replaces it once either has changed."""
        key = (point_key(anchor), value)
        if self.memo_key != key:
            self.memo, self.memo_key = collections.OrderedDict(), key
        return self.memo

    def log(self, counter: EvalCounter, kind: str, **fields: Any) -> None:
        self.events.append(
            {"kind": kind, **fields, "n_fu": counter.n_fu, "n_fill": counter.n_fill}
        )


def _filled_at(fn: AugmentedFilled, x: IntPoint) -> float:
    """``fn`` at a lattice point: the value its memo holds there, else ``fn(x)``."""
    x = x.astype(float)
    value = fn.recall(x.tobytes())
    return fn(x) if value is None else value


def _raw_at(fn: AugmentedFilled, x: np.ndarray) -> float:
    """``fn.base.raw(x)``, recalled from ``fn``'s memo at an integral ``x``,
    where the raw and augmented values agree bit for bit."""
    if all(map(float.is_integer, x.tolist())):
        if (value := fn.recall(x.tobytes())) is not None:
            return value
    return fn.base.raw(x)


def _escape(
    obj: ObjectiveFunction,
    escape: Any,
    x_star: IntPoint,
    f_star: float,
    params: FilledParams,
    rec: _RunRecord,
    outer: int,
) -> tuple[IntPoint, bool] | None:
    """Phase 2 from the anchor: the D1 check, then escape passes from each
    neighbor, cheapest first, each with its own filled function. Returns
    the first improving point and whether the next anchor owes a DC2
    check, or None when every candidate gives up.
    """
    box = obj.box
    neighbors = neighborhood(x_star, box)[:-1]
    # The D1 check and each first pass, all at r_max, share the memo; no
    # recall was ever measured at a retry margin, so a retry gets none.
    memo = rec.filled_memo(x_star, f_star)
    d1 = AugmentedFilled(InverseSquareFilled(obj, x_star, f_star, params.r_max), memo)
    values = [_filled_at(d1, nb) for nb in neighbors]
    # max() drops a NaN value, and a NaN neighbor must fail the check.
    worst = math.nan if any(map(math.isnan, values)) else max(values, default=-np.inf)
    rec.log(
        obj.counter, "d1", passed=bool(worst < ANCHOR_FILLED), max_neighbor_filled=worst
    )
    for candidate in sorted(neighbors, key=rec.value):
        r = params.r_max
        while r is not None:
            filled = InverseSquareFilled(obj, x_star, f_star, r)
            target = AugmentedFilled(filled, memo if r == params.r_max else None)
            x_esc, walk = escape.minimize(target, candidate, box)
            check = rounding_error_check(ANCHOR_FILLED, _raw_at(target, x_esc), x_esc)
            x_landed = box.clamp(round_point(x_esc))
            x_prime, f_prime = neighborhood_argmin(rec.value, x_landed, box)
            rec.note_seen(x_prime, f_prime)
            improved = _beats(f_prime, f_star)
            rec.log(
                obj.counter,
                "escape",
                outer=outer,
                candidate=point_key(candidate),
                r=r,
                escape_termination=walk.termination,
                escape_evaluations=walk.n_evaluations,
                landed=point_key(x_landed),
                point=point_key(x_prime),
                value=f_prime,
                improved=improved,
                bound=check.status,
                offset_sq=check.offset_sq,
                bound_limit=check.limit,
                point_filled=check.point_filled,
            )
            if improved:
                dc2 = functools.partial(_filled_at, target)
                return x_prime, is_discrete_local_min(dc2, x_landed, box)
            if vertex_check(x_prime, box):
                break
            r = params.next_margin(r, filled.min_excess)
    return None


def _generic(
    obj: ObjectiveFunction, x0: IntPoint, cfg: SolverConfig, rec: _RunRecord, outer: int
) -> tuple[IntPoint, float]:
    """One inner search from ``x0``; returns the final anchor."""
    box = obj.box
    x_start = np.asarray(x0, dtype=np.int64)
    pending_dc2: float | None = None
    descent = make_minimizer(cfg.objective_minimizer)
    if cfg.filled_minimizer == "compass":
        # Round 1 keeps the step fixed. A later round may find an anchor an
        # earlier one walked from, and a replay cannot land anywhere new: a
        # step that grows by a different integer factor in each round polls
        # other lattice points, far off the axis lines of round 1's walk.
        escape = MINIMIZERS["compass"](step_tol=_ESCAPE_STEP_TOL, expand=float(outer))
    else:
        escape = make_minimizer(cfg.filled_minimizer)
    while True:
        # Phase 1: continuous descent of f, rounding, lattice descent.
        x_cont, obj_trace = descent.minimize(obj.relaxed, x_start, box)
        x_rounded = box.clamp(round_point(x_cont))
        x_star, f_star = steepest_descent_discrete(rec.value, x_rounded, box)
        rec.note_anchor(x_star, f_star)
        rec.log(
            obj.counter,
            "anchor",
            outer=outer,
            point=point_key(x_star),
            value=f_star,
            descent_termination=obj_trace.termination,
        )
        if pending_dc2 is not None:
            if obj_trace.termination == "converged":
                status = "passed" if f_star <= pending_dc2 else "failed"
            else:
                status = "skipped_unconverged"
            rec.log(obj.counter, "dc2", status=status, previous_anchor_value=pending_dc2)

        # Phase 2: escape; an improvement restarts phase 1 from it.
        landing = _escape(obj, escape, x_star, f_star, cfg.filled_params, rec, outer)
        if landing is None:
            return x_star, f_star
        x_start, owes_dc2 = landing
        pending_dc2 = f_star if owes_dc2 else None


def _best_minimizer(
    obj: ObjectiveFunction, rec: _RunRecord, start: IntPoint
) -> tuple[IntPoint, float]:
    """The reported point: the best anchor, unless a point seen beats it.

    Such a point (the start, or an escape landing) is polished to a
    discrete local minimizer with the counter limit lifted, and the
    report keeps those charges so counters stay truthful.
    """
    counter = obj.counter
    if rec.best_seen is None:  # the budget ran out before f(start)
        counter.limit = None
        rec.note_seen(start, rec.value(start))
    anchor, (x_seen, f_seen) = rec.best_anchor, rec.best_seen
    if anchor is not None and anchor[1] <= f_seen:
        return anchor
    counter.limit = None
    x_fin, f_fin = steepest_descent_discrete(rec.value, x_seen, obj.box)
    rec.log(counter, "finalize_descent", point=point_key(x_fin), value=f_fin)
    return x_fin, f_fin


def solve(
    obj: ObjectiveFunction, x0: IntPoint, cfg: SolverConfig | None = None
) -> SolveReport:
    """Full restart search from ``x0``; always returns a report.

    The report names a discrete local minimizer whether the rounds run
    out or the budget cuts the search (see ``_best_minimizer``). A limit
    already present on the counter is respected when it is tighter than
    the configured budget, and is restored on return and on any error.
    """
    if cfg is None:
        cfg = SolverConfig()
    elif not isinstance(cfg, SolverConfig):
        raise ParameterError(f"cfg must be a SolverConfig, got {cfg!r}")
    start = as_int_point(x0)
    if not obj.box.contains(start):
        raise DomainError(f"start {start!r} outside the box")
    counter = obj.counter
    saved_limit = counter.limit
    budget = counter.total() + cfg.max_evaluations
    counter.limit = budget if saved_limit is None else min(budget, saved_limit)
    rec = _RunRecord(obj)
    t0 = time.perf_counter()
    termination = "max_iterations"
    outer_done = 0
    try:
        try:
            f_start = rec.value(start)
            rec.note_seen(start, f_start)
            rec.log(counter, "start", point=point_key(start), value=f_start)
            for outer_done in range(1, cfg.max_outer_iterations + 1):
                x_inc, f_inc = rec.incumbent(start, f_start)
                x_res, f_res = _generic(obj, x_inc, cfg, rec, outer=outer_done)
                rec.log(
                    counter,
                    "outer_result",
                    outer=outer_done,
                    point=point_key(x_res),
                    value=f_res,
                    improved=_beats(f_res, f_inc),
                )
        except BudgetExhausted:
            termination = "budget"
        x_g, f_g = _best_minimizer(obj, rec, start)
    finally:
        counter.limit = saved_limit
    wall = time.perf_counter() - t0
    return SolveReport(
        x_best=point_key(x_g),
        f_best=float(f_g),
        n_fu=counter.n_fu,
        n_fill=counter.n_fill,
        termination=termination,
        outer_iterations=outer_done,
        events=rec.events,
        wall_time=wall,
    )


def solve_problem(
    problem: BenchmarkProblem,
    x0: IntPoint | tuple[int, ...] | None = None,
    cfg: SolverConfig | None = None,
    counter: EvalCounter | None = None,
) -> SolveReport:
    """Wire a benchmark problem into a counted solve."""
    counter = counter if counter is not None else EvalCounter()
    obj = ObjectiveFunction(problem.func, problem.box, counter)
    return solve(obj, problem.default_start if x0 is None else x0, cfg)
