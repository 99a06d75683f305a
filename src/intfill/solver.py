"""Global search: filled-function escape loop plus restart wrapper.

The inner search alternates two phases around a current *anchor* (the
best discrete local minimizer of the current pass):

1. descend the objective (continuous minimizer, then rounding, then
   discrete steepest descent) to obtain the anchor, and
2. from each unit neighbor of the anchor, minimize the augmented filled
   function; round the endpoint and take the best objective value over
   its neighborhood. Any strict improvement restarts phase 1 from the
   improving point. Otherwise, if the pass saw a point below the anchor
   value, the neighbor is retried with a smaller gate margin ``r``: the
   geometric shrink of ``r``, or that point's improvement if smaller, so
   that the gate closes there (see ``FilledParams``). The retries stop
   when the pass saw no such point, when the geometric shrink drops
   below ``r_min``, or when the endpoint lands on a box vertex; the next
   neighbor then starts with ``r`` reset.

The outer loop runs the inner search ``max_outer_iterations`` times,
and every round starts from the incumbent: the best anchor found so
far, or the start point before any round has improved on it. Round 1
escapes with the configured filled minimizer as given. A later round
descends back to an anchor an earlier round already escaped from, so
when the filled minimizer is ``"compass"``, round ``k`` multiplies the
compass step by ``k`` on each successful poll: the walk then jumps along
the lattice and polls points far off its axis lines, where round 1's
unit-step walk never looked, and no two rounds replay the same walk.
Each inner search builds its two minimizers once and reuses them for
every descent and escape pass, so ``minimize`` must not depend on state
left by an earlier call.

Evaluation accounting: every objective evaluation (including candidate
ordering, neighborhood argmins, and the objective evaluation embedded
in each filled value unless the objective's ``count_in_filled`` is off)
charges ``n_fu``, and every filled evaluation (including the per-escape
bound check and the D1/DC2 condition checks) charges ``n_fill``. When the
combined budget runs out mid-search the run is cut deterministically;
the best feasible point seen is then polished to a discrete local
minimizer with the budget lifted, so reported counters may slightly
exceed the budget on truncated runs. The reported point is a discrete
local minimizer on every path.
"""
from __future__ import annotations

import dataclasses
import numbers
import time
from typing import Any

import numpy as np

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
    is_discrete_local_min,
    neighborhood,
    neighborhood_argmin,
    point_key,
    round_point,
)
from .filled import (
    AugmentedFilled,
    BoundCheck,
    FilledParams,
    InverseSquareFilled,
    rounding_error_check,
)
from .local_search import make_minimizer, steepest_descent_discrete


@dataclasses.dataclass
class SolverConfig:
    """Tunables for one solve. Defaults match the acceptance setup."""

    max_outer_iterations: int = 3
    filled_params: FilledParams = dataclasses.field(default_factory=FilledParams)
    objective_minimizer: str = "quasi-newton"
    objective_minimizer_options: dict = dataclasses.field(default_factory=dict)
    filled_minimizer: str = "compass"
    filled_minimizer_options: dict = dataclasses.field(default_factory=dict)
    max_evaluations: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("max_outer_iterations", "max_evaluations"):
            value = getattr(self, name)
            count = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not count or value < 1:
                raise ParameterError(f"{name} must be an int >= 1, got {value!r}")
        for name in ("objective_minimizer_options", "filled_minimizer_options"):
            if not isinstance(value := getattr(self, name), dict):
                raise ParameterError(f"{name} must be an object, got {value!r}")


@dataclasses.dataclass
class SolveReport:
    x_best: tuple[int, ...]
    f_best: float
    n_fu: int
    n_fill: int
    termination: str
    outer_iterations: int
    events: list[dict]
    bound_checks: list[BoundCheck]
    d1_checks: list[dict]
    dc2_checks: list[dict]
    wall_time: float

    def columns(self) -> tuple[float, int, int]:
        """The deterministic result columns (excludes wall time)."""
        return (self.f_best, self.n_fu, self.n_fill)


def vertex_check(x: IntPoint, box: BoxDomain) -> bool:
    """True when every coordinate sits on a bound of the box."""
    arr = np.asarray(x)
    return bool(((arr == box.lower) | (arr == box.upper)).all())


@dataclasses.dataclass
class _RunRecord:
    events: list[dict] = dataclasses.field(default_factory=list)
    bound_checks: list[BoundCheck] = dataclasses.field(default_factory=list)
    d1_checks: list[dict] = dataclasses.field(default_factory=list)
    dc2_checks: list[dict] = dataclasses.field(default_factory=list)
    # Best discrete local minimizer reached (anchors always are) and the
    # best raw lattice value seen, for budget-cut recovery.
    best_anchor: tuple[IntPoint, float] | None = None
    best_seen: tuple[IntPoint, float] | None = None

    def note_anchor(self, x: IntPoint, v: float) -> None:
        if self.best_anchor is None or v < self.best_anchor[1]:
            self.best_anchor = (np.array(x), v)
        self.note_seen(x, v)

    def note_seen(self, x: IntPoint, v: float) -> None:
        if self.best_seen is None or v < self.best_seen[1]:
            self.best_seen = (np.array(x), v)

    def log(self, counter: EvalCounter, kind: str, **fields: Any) -> None:
        event = {"kind": kind}
        event.update(fields)
        event["n_fu"] = counter.n_fu
        event["n_fill"] = counter.n_fill
        self.events.append(event)


def _check_d1(
    obj: ObjectiveFunction,
    target: AugmentedFilled,
    anchor: IntPoint,
    anchor_filled: float,
    rec: _RunRecord,
) -> None:
    # The anchor's own filled value is a constant of the construction;
    # every neighbor must fall strictly below it.
    worst = -np.inf
    for nb in neighborhood(anchor, obj.box)[:-1]:
        v = target(nb)
        worst = max(worst, v)
    rec.d1_checks.append(
        {
            "anchor": point_key(anchor),
            "passed": bool(worst < anchor_filled),
            "anchor_filled": anchor_filled,
            "max_neighbor_filled": worst,
        }
    )


def _generic(
    obj: ObjectiveFunction, x0: IntPoint, cfg: SolverConfig, rec: _RunRecord, outer: int
) -> tuple[IntPoint, float]:
    """One inner search from ``x0``; returns the final anchor."""
    box = obj.box
    params = cfg.filled_params
    x_start = np.asarray(x0, dtype=np.int64)
    pending_dc2: float | None = None
    descent = make_minimizer(cfg.objective_minimizer, cfg.objective_minimizer_options)
    escape_options = cfg.filled_minimizer_options
    if outer > 1 and cfg.filled_minimizer == "compass":
        # An earlier round may already have walked from this anchor's
        # neighbors, and a replay cannot land anywhere new. A step that
        # grows by a different integer factor in each round polls other
        # lattice points, far off the axis lines of round 1's walk.
        escape_options = {**escape_options, "expand": float(outer)}
    escape = make_minimizer(cfg.filled_minimizer, escape_options)
    while True:
        # Phase 1: continuous descent of f, rounding, lattice descent.
        x_cont, obj_trace = descent.minimize(obj.relaxed, x_start, box)
        x_rounded = box.clamp(round_point(x_cont))
        x_star, f_star = steepest_descent_discrete(obj, x_rounded, box)
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
            rec.dc2_checks.append(
                {
                    "status": status,
                    "previous_anchor_value": pending_dc2,
                    "new_anchor_value": f_star,
                }
            )
            pending_dc2 = None

        filled = InverseSquareFilled(obj, x_star, f_star, params.r_max)
        target = AugmentedFilled(filled)
        anchor_filled = filled.anchor_filled_value()
        _check_d1(obj, target, x_star, anchor_filled, rec)

        # Phase 2: escape attempts from each neighbor, cheapest first.
        scored = [(obj(nb), nb) for nb in neighborhood(x_star, box)[:-1]]
        scored.sort(key=lambda t: t[0])
        escaped = False
        for f_cand, candidate in scored:
            rec.note_seen(candidate, f_cand)
            r = params.r_max
            while True:
                filled.r = r
                filled.reset_excess()
                x_esc, _ = escape.minimize(target, candidate, box)
                point_filled = filled.raw(x_esc)
                check = rounding_error_check(anchor_filled, point_filled, x_esc)
                rec.bound_checks.append(check)
                x_landed = box.clamp(round_point(x_esc))
                x_prime, f_prime = neighborhood_argmin(obj, x_landed, box)
                rec.note_seen(x_prime, f_prime)
                escaped = f_prime < f_star
                rec.log(
                    obj.counter,
                    "escape",
                    outer=outer,
                    candidate=point_key(candidate),
                    r=r,
                    landed=point_key(x_landed),
                    point=point_key(x_prime),
                    value=f_prime,
                    improved=escaped,
                    bound=check.status,
                )
                if escaped:
                    if is_discrete_local_min(target, x_landed, box):
                        pending_dc2 = f_star
                    x_start = x_prime
                    break
                if filled.min_excess >= 0.0:
                    # Every evaluated point sat at or above the anchor value,
                    # so the gate term was saturated at 1 along the whole
                    # trajectory and shrinking r would replay it verbatim.
                    # Advance to the next candidate directly.
                    break
                # The gate closes only where f <= f* - r. A point the pass
                # saw beating the anchor by less than the next margin sets
                # that margin, so the gate closes there; only the blind
                # geometric shrink is bounded by r_min.
                seen = -filled.min_excess
                r *= params.shrink_factor
                if seen < r:
                    r = seen
                elif r < params.r_min:
                    break
                if vertex_check(x_prime, box):
                    break
            if escaped:
                break
        if not escaped:
            return x_star, f_star
        # An improvement restarts phase 1 from the improving point.


def _recover_best(
    obj: ObjectiveFunction, rec: _RunRecord, x0: IntPoint
) -> tuple[IntPoint, float, bool]:
    """Best point after a budget cut, as a discrete local minimizer.

    Returns (point, value, polished). Lifts the counter limit when a
    final descent (or a first evaluation) is still required; the report
    keeps the extra charges so counters stay truthful.
    """
    candidates: list[tuple[IntPoint, float, bool]] = []
    if rec.best_anchor is not None:
        candidates.append((rec.best_anchor[0], rec.best_anchor[1], True))
    if rec.best_seen is not None:
        candidates.append((rec.best_seen[0], rec.best_seen[1], False))
    if not candidates:
        obj.counter.limit = None
        f0 = obj(x0)
        candidates.append((np.array(x0), f0, False))
    point, value, is_min = min(candidates, key=lambda t: (t[1], not t[2]))
    if is_min:
        return point, value, False
    obj.counter.limit = None
    x_fin, f_fin = steepest_descent_discrete(obj, point, obj.box)
    return x_fin, f_fin, True


def solve(
    obj: ObjectiveFunction, x0: IntPoint, cfg: SolverConfig | None = None
) -> SolveReport:
    """Full restart search from ``x0``; always returns a report.

    A limit already present on the counter is respected when it is
    tighter than the configured budget.
    """
    cfg = cfg or SolverConfig()
    box = obj.box
    start = as_int_point(x0)
    if not box.contains(start):
        raise DomainError(f"start {start!r} outside the box")
    counter = obj.counter
    saved_limit = counter.limit
    budget = counter.total() + cfg.max_evaluations
    counter.limit = budget if saved_limit is None else min(budget, saved_limit)
    rec = _RunRecord()
    t0 = time.perf_counter()
    termination = "max_iterations"
    outer_done = 0
    x_g: IntPoint = np.array(start)
    f_g = np.inf
    incumbent_is_minimizer = False
    try:
        f_g = obj(start)
        rec.note_seen(start, f_g)
        rec.log(counter, "start", point=point_key(start), value=f_g)
        for outer_done in range(1, cfg.max_outer_iterations + 1):
            x_res, f_res = _generic(obj, x_g, cfg, rec, outer=outer_done)
            improved = f_res < f_g
            if improved:
                x_g, f_g = np.array(x_res), f_res
                incumbent_is_minimizer = True
            rec.log(
                counter,
                "outer_result",
                outer=outer_done,
                point=point_key(x_res),
                value=f_res,
                improved=improved,
            )
        if not incumbent_is_minimizer:
            # No inner result beat f(x0): descend the start so the
            # reported point is a discrete local minimizer too.
            x_g, f_g = steepest_descent_discrete(obj, x_g, box)
            rec.log(counter, "finalize_descent", point=point_key(x_g), value=f_g)
    except BudgetExhausted:
        termination = "budget"
        x_g, f_g, polished = _recover_best(obj, rec, start)
        if polished:
            rec.log(counter, "finalize_descent", point=point_key(x_g), value=f_g)
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
        bound_checks=rec.bound_checks,
        d1_checks=rec.d1_checks,
        dc2_checks=rec.dc2_checks,
        wall_time=wall,
    )


def solve_problem(
    problem: BenchmarkProblem,
    x0: IntPoint | tuple[int, ...] | None = None,
    cfg: SolverConfig | None = None,
    counter: EvalCounter | None = None,
) -> SolveReport:
    """Wire a benchmark problem into a counted solve."""
    cfg = cfg or SolverConfig()
    counter = counter if counter is not None else EvalCounter()
    obj = ObjectiveFunction(problem.func, problem.box, counter)
    start = as_int_point(problem.default_start if x0 is None else x0)
    return solve(obj, start, cfg)
