"""Tests for the escape loop, restart wrapper, and accounting."""
import collections
import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intfill
import intfill.filled
import intfill.solver
from intfill.benchmarks import get_problem
from intfill.cli import config_from_dict
from intfill.core import (
    BoxDomain,
    BudgetExhausted,
    DomainError,
    EvalCounter,
    ObjectiveFunction,
    ParameterError,
    is_discrete_local_min,
)
from intfill.filled import (
    ANCHOR_FILLED,
    AugmentedFilled,
    BoundCheck,
    FilledParams,
    InverseSquareFilled,
    lattice_penalty,
    rounding_error_check,
)
from intfill.local_search import MINIMIZERS, CompassSearch
from intfill.solver import (
    EVENT_KINDS,
    SolverConfig,
    SolveReport,
    solve,
    solve_problem,
    vertex_check,
)

def booth_fn(x):
    return float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2)


def booth_objective(limit=None):
    box = BoxDomain(np.array([-10, -10]), np.array([10, 10]))
    return ObjectiveFunction(booth_fn, box, EvalCounter(limit=limit))


def checks_with_their_anchors(rep, kind):
    """Each ``kind`` event (``"d1"`` or ``"dc2"``) with the anchor event it
    checks: the last one before it."""
    anchor, found = None, []
    for e in rep.events:
        if e["kind"] == "anchor":
            anchor = e
        elif e["kind"] == kind:
            found.append((e, anchor))
    return found


# ---------------------------------------------------------------- vertex


def test_vertex_check():
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    assert vertex_check(np.array([5, 5]), box)
    assert vertex_check(np.array([-5, 5]), box)
    assert not vertex_check(np.array([5, 0]), box)
    assert not vertex_check(np.array([0, 0]), box)
    line = BoxDomain(np.array([0]), np.array([10]))
    assert vertex_check(np.array([0]), line)
    assert vertex_check(np.array([10]), line)
    assert not vertex_check(np.array([7]), line)


int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=4))
def test_vertex_check_matches_the_numpy_form(data, n):
    bounds = [sorted(data.draw(st.lists(int64s, min_size=2, max_size=2))) for _ in range(n)]
    box = BoxDomain(np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds]))
    # Each coordinate on its lower bound, its upper bound or anywhere between.
    picks = [
        data.draw(st.sampled_from([lo, hi]) | st.integers(min_value=lo, max_value=hi))
        for lo, hi in bounds
    ]
    x = np.array(picks, dtype=np.int64)
    numpy_form = bool(((x == box.lower) | (x == box.upper)).all())
    assert vertex_check(x, box) is numpy_form


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(max_outer_iterations=0)
    with pytest.raises(ParameterError):
        SolverConfig(max_evaluations=0)


@pytest.mark.parametrize("field", ["max_outer_iterations", "max_evaluations"])
@pytest.mark.parametrize(
    "value", [0, -1, 2.5, float("nan"), float("inf"), True, "5", None]
)
def test_config_rejects_malformed_counts(field, value):
    # A value that is no int fails the shared type check ("must be an int,
    # got ..."), an int below 1 the range check ("must be an int >= 1").
    with pytest.raises(ParameterError, match=f"{field} must be an int"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize(
    "field", ["objective_minimizer_options", "filled_minimizer_options"]
)
@pytest.mark.parametrize("value", [5, None, ["grad_step"], "x"])
def test_config_rejects_minimizer_options_that_are_not_objects(field, value):
    # A minimizer is chosen by name alone: no config has an options field,
    # so one is rejected whatever its value, an object included.
    for options in (value, {}):
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: options})
        with pytest.raises(ParameterError, match=rf"unknown config keys: \['{field}'\]"):
            config_from_dict({field: options})


def test_config_rejects_an_expand_for_the_compass_escape():
    # The solver alone sets the compass escape's expand, to the outer round;
    # a CLI config has no field that could set it.
    with pytest.raises(ParameterError, match="unknown config keys"):
        config_from_dict({"filled_minimizer_options": {"expand": 2.0}})


@pytest.mark.parametrize("value", [{"r_max": 2.0}, None, 1.0])
def test_config_rejects_filled_params_that_are_not_filled_params(value):
    # A dict here once built a config whose solve failed on its first
    # margin lookup, with an AttributeError.
    with pytest.raises(ParameterError, match="filled_params must be a FilledParams"):
        SolverConfig(filled_params=value)


def test_config_accepts_numpy_and_huge_counts():
    cfg = SolverConfig(max_outer_iterations=np.int64(2), max_evaluations=10**30)
    assert cfg.max_outer_iterations == 2 and cfg.max_evaluations == 10**30


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.objective_minimizer == "quasi-newton"
    assert cfg.filled_minimizer == "compass"
    assert cfg.max_outer_iterations == 3
    assert cfg.max_evaluations == 10_000_000


def test_count_beyond_the_float_range_is_accepted():
    # 10**400 overflows a float; the budget stays an exact int.
    rep = solve_problem(get_problem("booth"), cfg=SolverConfig(max_evaluations=10**400))
    assert rep.termination == "max_iterations" and rep.f_best == 0.0


def test_config_cannot_be_assigned_after_its_check():
    # Assigned after the check, a dict filled_params once ended the solve in
    # AttributeError, and max_evaluations = 0 ran it to "budget" after 15
    # evaluations.
    cfg = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.filled_params = {"r_max": 2.0}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_evaluations = 0
    for field in dataclasses.fields(SolverConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, getattr(cfg, field.name))
    rep = solve_problem(get_problem("booth"), cfg=cfg)
    assert rep.termination == "max_iterations" and rep.f_best == 0.0


@pytest.mark.parametrize("cfg", [{"max_evaluations": 5}, 0, [], "cfg"])
def test_a_cfg_that_is_not_a_solver_config_is_a_parameter_error(cfg):
    # A dict once ended in AttributeError, and a falsy 0 or [] solved with
    # the defaults. Only None means the defaults.
    with pytest.raises(ParameterError, match="cfg must be a SolverConfig"):
        solve(booth_objective(), np.array([0, 0]), cfg)
    with pytest.raises(ParameterError, match="cfg must be a SolverConfig"):
        solve_problem(get_problem("booth"), cfg=cfg)


# Every defaulted parameter or field of the exported names: the values a
# caller can leave out and set. A new one fails here until it is listed.
SETTABLE_VALUES = [
    "AugmentedFilled(memo)",
    "CompassSearch.expand",
    "CompassSearch.step_tol",
    "EvalCounter.n_fu",
    "EvalCounter.n_fill",
    "EvalCounter.limit",
    "FilledParams.r_max",
    "FilledParams.r_min",
    "FilledParams.shrink_factor",
    "SolverConfig.max_outer_iterations",
    "SolverConfig.filled_params",
    "SolverConfig.objective_minimizer",
    "SolverConfig.filled_minimizer",
    "SolverConfig.max_evaluations",
    "get_problem(n)",
    "minimize_continuous(method)",
    "solve(cfg)",
    "solve_problem(x0)",
    "solve_problem(cfg)",
    "solve_problem(counter)",
    "verify_descent_contract(method)",
]


def test_settable_values_of_the_exported_names_are_pinned():
    found = []
    for name in intfill.__all__:
        obj = getattr(intfill, name)
        if dataclasses.is_dataclass(obj):
            found += [
                f"{name}.{f.name}"
                for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            ]
        elif callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            found += [
                f"{name}({p.name})"
                for p in inspect.signature(obj).parameters.values()
                if p.default is not inspect.Parameter.empty
            ]
    assert found == SETTABLE_VALUES


# ---------------------------------------------------------------- basic solves


def test_solve_booth_finds_global():
    rep = solve(booth_objective(), np.array([0, 0]))
    assert isinstance(rep, SolveReport)
    assert rep.x_best == (1, 3)
    assert rep.f_best == 0.0
    assert rep.termination == "max_iterations"
    assert rep.n_fu > 0 and rep.n_fill > 0
    assert rep.columns() == (0.0, rep.n_fu, rep.n_fill)


def test_solve_rejects_infeasible_start():
    with pytest.raises(DomainError):
        solve(booth_objective(), np.array([40, 0]))


def test_solve_problem_uses_default_start():
    rep = solve_problem(get_problem("booth"))
    explicit = solve_problem(get_problem("booth"), x0=(0, 0))
    assert rep.x_best == explicit.x_best == (1, 3)
    assert rep.columns() == explicit.columns()


def test_no_restart_pick_after_the_last_round():
    # Round 2 does not improve on round 1 and ends the run; nothing is
    # evaluated after its result.
    rep = solve_problem(get_problem("booth"), cfg=SolverConfig(max_outer_iterations=2))
    assert rep.columns() == (0.0, 283, 213)
    assert rep.termination == "max_iterations"
    assert rep.events[-1]["kind"] == "outer_result"


def test_every_round_starts_from_the_incumbent():
    # Round 1 reaches booth's minimum (1, 3); rounds 2 and 3 do not improve
    # on it, and each starts there again instead of at a neighbor of its
    # predecessor's result.
    rep = solve_problem(get_problem("booth"))
    assert rep.columns() == (0.0, 304, 229)
    assert rep.termination == "max_iterations"
    assert {e["kind"] for e in rep.events} <= set(EVENT_KINDS)
    later = [e for e in rep.events if e["kind"] == "anchor" and e["outer"] > 1]
    assert {e["outer"] for e in later} == {2, 3}
    assert all(e["point"] == (1, 3) for e in later)


@pytest.mark.parametrize(
    "func,start",
    [
        (lambda x: float("nan") if x[0] > 1 else float(x @ x), (4, 4)),
        (lambda x: float("inf") if x[0] < 0 else float(x @ x), (0, 0)),
    ],
    ids=["nan", "inf"],
)
def test_non_finite_neighborhood_raises_domain_error(func, start):
    # An escape lands where every neighborhood value is NaN or +inf. The
    # solve lowers the counter's limit to its budget and must restore the
    # caller's limit on that error too.
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    counter = EvalCounter(limit=10**9)
    with pytest.raises(DomainError, match=r"NaN or \+inf"):
        solve(ObjectiveFunction(func, box, counter), np.array(start))
    assert counter.limit == 10**9


def test_a_solve_whose_descent_slope_overflows_reports_the_minimizer():
    # f = 1e300 x: the gradient is finite, but its slope g . d overflows.
    # Each descent ends "non_finite" there, as at a non-finite gradient,
    # instead of raising RuntimeWarning under the warning filter.
    box = BoxDomain(np.array([0]), np.array([4]))
    rep = solve(
        ObjectiveFunction(lambda x: 1e300 * float(x[0]), box, EvalCounter()), np.array([2])
    )
    assert rep.x_best == (0,) and rep.f_best == 0.0


def test_an_objective_that_raises_propagates_out_of_the_solve_unchanged():
    # The solve neither wraps nor swallows an objective's own error, and
    # restores the caller's counter limit on the way out.
    calls = []

    def func(x):
        calls.append(tuple(x))
        if len(calls) == 3:
            raise KeyError("third call")
        return float(x @ x)

    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    counter = EvalCounter(limit=10**9)
    with pytest.raises(KeyError, match="third call") as caught:
        solve(ObjectiveFunction(func, box, counter), np.array([3, 3]))
    assert type(caught.value) is KeyError and len(calls) == 3
    assert counter.limit == 10**9


def _nan_at_4_4(x):
    return float("nan") if tuple(x) == (4, 4) else float(x @ x)


def test_a_nan_start_is_not_reported_as_the_best_point():
    # f(4, 4) is NaN, so the lattice descent stays there and the first
    # anchor is NaN. The NaN start is never reported: a finite value
    # replaces it as best so far, and the report is a finite discrete
    # local minimizer.
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    rep = solve(ObjectiveFunction(_nan_at_4_4, box, EvalCounter()), np.array([4, 4]))
    assert np.isfinite(rep.f_best)
    assert rep.f_best == _nan_at_4_4(np.array(rep.x_best))
    assert is_discrete_local_min(_nan_at_4_4, np.array(rep.x_best), box)
    assert rep.x_best == (0, 0) and rep.f_best == 0.0


def test_an_escape_from_a_nan_anchor_improves():
    # Any finite landing beats the NaN anchor (4, 4), so round 1's first
    # escape restarts the descent, which reaches (0, 0) as the second
    # anchor. No later round replays escapes from the NaN anchor, and the
    # report needs no polish.
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    rep = solve(ObjectiveFunction(_nan_at_4_4, box, EvalCounter()), np.array([4, 4]))
    anchors = [(e["outer"], e["point"], e["value"]) for e in rep.events
               if e["kind"] == "anchor"]
    assert anchors[0][:2] == (1, (4, 4)) and np.isnan(anchors[0][2])
    assert anchors[1] == (1, (0, 0), 0.0)
    assert all(a[1:] == ((0, 0), 0.0) for a in anchors[1:])
    first_escape = next(e for e in rep.events if e["kind"] == "escape")
    assert first_escape["improved"] and np.isfinite(first_escape["value"])
    rounds = [e["improved"] for e in rep.events if e["kind"] == "outer_result"]
    assert rounds == [True, False, False]
    assert "finalize_descent" not in {e["kind"] for e in rep.events}
    assert rep.x_best == (0, 0) and rep.n_fu == 425


def test_a_nan_neighbor_filled_value_fails_the_d1_check():
    # Every filled value at the NaN anchor (4, 4) is NaN. max() drops a NaN
    # against -inf, but an anchor with four NaN neighbors passes nothing:
    # its check records the NaN and fails.
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    rep = solve(ObjectiveFunction(_nan_at_4_4, box, EvalCounter()), np.array([4, 4]))
    (first, anchor), *rest = checks_with_their_anchors(rep, "d1")
    assert anchor["point"] == (4, 4) and first["n_fill"] == 4
    assert first["passed"] is False and np.isnan(first["max_neighbor_filled"])
    assert rest and all(c["passed"] and c["max_neighbor_filled"] < 2.0 for c, _ in rest)


def test_start_at_the_minimum_reports_its_anchor_without_a_polish():
    # Every anchor ties f(start) = 0. The best anchor is reported as it
    # is: no point the solve saw beats it, so nothing is polished.
    rep = solve_problem(get_problem("booth"), x0=(1, 3))
    assert rep.x_best == (1, 3)
    assert rep.columns() == (0.0, 258, 229)
    assert rep.termination == "max_iterations"
    assert "finalize_descent" not in {e["kind"] for e in rep.events}


def test_reported_value_is_at_most_every_value_the_solve_logged():
    rng = np.random.default_rng(7)
    names = ("booth", "three-hump-camel", "leon", "rastrigin", "rosenbrock")
    # The small budgets cut some solves before their first anchor and
    # some after it, so both ends of a solve and both reported kinds of
    # point (best anchor, polished point) are covered.
    budgets = (10_000_000, 3, 40, 300)
    ends = set()
    for i in range(20):
        problem = get_problem(names[i % len(names)])
        start = rng.integers(problem.box.lower, problem.box.upper, endpoint=True)
        cfg = SolverConfig(max_evaluations=budgets[i % len(budgets)])
        rep = solve_problem(problem, x0=start, cfg=cfg)
        values = [e["value"] for e in rep.events if "value" in e]
        assert rep.f_best <= min(values), (i, start)
        assert is_discrete_local_min(problem.func, np.array(rep.x_best), problem.box)
        ends.add((rep.termination, rep.events[-1]["kind"] == "finalize_descent"))
    assert ends == {("max_iterations", False), ("budget", False), ("budget", True)}


def double_well(x):
    # Local minima near -3 and 3 with f(-3) = 3 and f(3) = -3.
    return float((x[0] + 3.0) ** 2 * (x[0] - 3.0) ** 2 - x[0])


def test_double_well_escape_and_dc2_record():
    # The filled phase must cross the barrier between the two wells.
    box = BoxDomain(np.array([-5]), np.array([5]))
    rep = solve(ObjectiveFunction(double_well, box, EvalCounter()), np.array([-3]))
    assert rep.x_best == (3,)
    assert rep.f_best == -3.0
    dc2 = checks_with_their_anchors(rep, "dc2")
    assert len(dc2) >= 1
    for check, anchor in dc2:
        assert check["status"] in {"passed", "failed", "skipped_unconverged"}
        assert anchor["value"] < check["previous_anchor_value"]
    assert all(c["status"] == "passed" for c, _ in dc2)


def test_d1_checks_recorded_and_passing():
    rep = solve_problem(get_problem("colville"))
    d1 = [e for e in rep.events if e["kind"] == "d1"]
    assert len(d1) >= 1
    assert ANCHOR_FILLED == 2.0
    for check in d1:
        assert check["passed"]
        assert check["max_neighbor_filled"] < 2.0


# ---------------------------------------------------------------- gate margin


def tiny_well(x):
    # A double well in x0 scaled by 1e-7: the anchor (-3, 0) traps, and
    # the only improvement over it, at (3, 0), is 6e-7, far below r_min.
    return 1e-7 * float((x[0] + 3.0) ** 2 * (x[0] - 3.0) ** 2 - x[0] + x[1] ** 2)


def test_gate_margin_closes_on_improvement_smaller_than_r_min():
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    rep = solve(ObjectiveFunction(tiny_well, box, EvalCounter()), np.array([-3, 0]))
    assert rep.x_best == (3, 0)
    assert rep.f_best == tiny_well(np.array([3, 0]))
    r_min = SolverConfig().filled_params.r_min
    improving = [ev for ev in rep.events if ev["kind"] == "escape" and ev["improved"]]
    assert improving and improving[0]["r"] < r_min


def test_gate_margin_survives_margins_whose_cube_underflows():
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    scaled = lambda x: 1e-193 * tiny_well(x)
    rep = solve(ObjectiveFunction(scaled, box, EvalCounter()), np.array([-3, 0]))
    assert rep.x_best == (3, 0)


# ---------------------------------------------------------------- later rounds


def off_axis_pit(x):
    # A plateau at 1 with a shallow dip (0.5) at the origin and a deep pit
    # (-1) at (8, -8), off both axis lines through the dip. Every point
    # that round 1's unit-step walks poll lies at or above the dip.
    dip = np.exp(-float(x @ x) / 2.0)
    d = x - np.array([8.0, -8.0])
    return float(1.0 - 0.5 * dip - 2.0 * np.exp(-float(d @ d) / 4.0))


def test_later_outer_round_escapes_off_axis_region():
    box = BoxDomain(np.array([-40, -40]), np.array([40, 40]))

    def run(rounds):
        obj = ObjectiveFunction(off_axis_pit, box, EvalCounter())
        return solve(obj, np.array([3, 3]), SolverConfig(max_outer_iterations=rounds))

    full, one = run(3), run(1)
    assert full.x_best == (8, -8)
    assert full.f_best == -1.0
    assert one.x_best == (0, 0)
    round_1 = lambda rep: [
        ev for ev in rep.events if ev["kind"] == "escape" and ev["outer"] == 1
    ]
    assert round_1(full) == round_1(one)
    assert not any(ev["improved"] for ev in round_1(full))
    improving = [ev for ev in full.events if ev["kind"] == "escape" and ev["improved"]]
    assert improving[0]["outer"] == 2


# ---------------------------------------------------------------- events


def test_event_stream_shape():
    rep = solve_problem(get_problem("booth"))
    kinds = [ev["kind"] for ev in rep.events]
    assert kinds[0] == "start"
    assert "anchor" in kinds and "outer_result" in kinds
    assert set(kinds) <= set(EVENT_KINDS)
    counters = [(ev["n_fu"], ev["n_fill"]) for ev in rep.events]
    for (a1, b1), (a2, b2) in zip(counters, counters[1:]):
        assert a2 >= a1 and b2 >= b1
    assert rep.n_fu >= counters[-1][0]
    assert rep.n_fill >= counters[-1][1]


def test_escape_events_say_how_the_walk_ended():
    rep = solve_problem(get_problem("booth"))
    events = rep.events
    escapes = [ev for ev in events if ev["kind"] == "escape"]
    # Every default compass walk stops at its first step below one unit.
    assert escapes and all(ev["escape_termination"] == "converged" for ev in escapes)
    # Between two escapes of one phase 2, n_fill counts the walk's own
    # evaluations plus the bound check at its endpoint, unless the walk ran
    # over the memo (a first pass, at r_max) and ended at a lattice point,
    # whose value the memo holds.
    pairs = [
        (a, b) for a, b in zip(events, events[1:]) if a["kind"] == b["kind"] == "escape"
    ]
    assert pairs
    for a, b in pairs:
        recalled = b["r"] == FilledParams().r_max and b["offset_sq"] == 0.0
        assert b["n_fill"] - a["n_fill"] == b["escape_evaluations"] + (not recalled)


def _solves_of_every_kind():
    """Solves that between them log every kind of event: booth's rounds,
    the double well's DC2 check, and a polish after a budget cut."""
    box = BoxDomain(np.array([-5]), np.array([5]))
    well = lambda cfg=None: solve(
        ObjectiveFunction(double_well, box, EvalCounter()), np.array([-3]), cfg
    )
    full = well()
    # A budget that ends right after the improving escape, as in
    # test_budget_cut_between_an_escape_and_its_anchor_reports_the_landing.
    landing = next(e for e in full.events if e["kind"] == "escape" and e["improved"])
    budget = landing["n_fu"] + landing["n_fill"] + 1
    return [
        solve_problem(get_problem("booth")),
        solve_problem(get_problem("schaffer-n1"), x0=(8, 2)),
        full,
        well(SolverConfig(max_evaluations=budget)),
    ]


def test_every_event_kind_is_logged_by_some_solve():
    reps = _solves_of_every_kind()
    assert reps[-1].events[-1]["kind"] == "finalize_descent"
    assert {e["kind"] for rep in reps for e in rep.events} == set(EVENT_KINDS)
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)


def test_each_phase_2_logs_one_d1_check_after_its_anchor():
    # The D1 check opens phase 2: it follows its anchor and that anchor's
    # DC2 check, if it owes one, and so precedes every escape from it.
    reps = _solves_of_every_kind()[:-1]  # the last is cut before its phase 2
    assert any(e["kind"] == "dc2" for rep in reps for e in rep.events)
    for rep in reps:
        kinds = [e["kind"] for e in rep.events]
        anchors = [i for i, k in enumerate(kinds) if k == "anchor"]
        assert anchors and kinds.count("d1") == len(anchors)
        for i in anchors:
            assert kinds[i + 1] == "d1" or kinds[i + 1 : i + 3] == ["dc2", "d1"]
        assert all(kinds[i - 1] == "anchor" for i, k in enumerate(kinds) if k == "dc2")


@pytest.mark.parametrize("options", [{}, {"filled_minimizer": "quasi-newton"}])
def test_escape_events_carry_their_rounding_error_check(monkeypatch, options):
    # Each escape event holds what rounding_error_check gives at the walk's
    # endpoint and the filled value there, against the anchor's 2.0.
    endpoints = []
    check = intfill.solver.rounding_error_check

    def recording(anchor_filled, point_filled, x):
        endpoints.append(np.array(x, dtype=float))
        return check(anchor_filled, point_filled, x)

    monkeypatch.setattr(intfill.solver, "rounding_error_check", recording)
    rep = solve_problem(get_problem("booth"), cfg=SolverConfig(**options))
    escapes = [e for e in rep.events if e["kind"] == "escape"]
    assert escapes and len(escapes) == len(endpoints)
    for e, x in zip(escapes, endpoints):
        expected = rounding_error_check(ANCHOR_FILLED, e["point_filled"], x)
        assert (e["bound"], e["offset_sq"], e["bound_limit"]) == (
            expected.status, expected.offset_sq, expected.limit
        )


def test_outer_results_never_worsen_the_incumbent():
    rep = solve_problem(get_problem("rastrigin", 2), x0=(-5, 5))
    best = np.inf
    for ev in rep.events:
        if ev["kind"] == "outer_result":
            best = min(best, ev["value"])
    assert rep.f_best <= best


def test_bound_checks_logged_with_valid_statuses():
    rep = solve_problem(get_problem("booth"))
    escapes = [e for e in rep.events if e["kind"] == "escape"]
    assert escapes
    for check in escapes:
        assert check["bound"] in {"passed", "failed", "skipped"}
        assert check["offset_sq"] >= 0.0


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize("name,n,start", [
    ("booth", None, None),
    ("rastrigin", 5, None),
    ("three-hump-camel", None, (2, 2)),
])
def test_repeated_solves_are_bitwise_identical(name, n, start):
    a = solve_problem(get_problem(name, n), x0=start)
    b = solve_problem(get_problem(name, n), x0=start)
    assert a.columns() == b.columns()
    assert a.x_best == b.x_best
    assert a.termination == b.termination
    assert a.events == b.events


def _hexed(v):
    """``v`` with every float written as ``float.hex``, for a stable dump."""
    if isinstance(v, float):
        return float(v).hex()
    if isinstance(v, dict):
        return {k: _hexed(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_hexed(x) for x in v]
    if dataclasses.is_dataclass(v):
        return _hexed(dataclasses.astuple(v))
    return v


# The bound check's fields on an escape event, once kept in a list of their own.
BOUND_FIELDS = ("offset_sq", "bound_limit", "point_filled")


def four_lists(rep: SolveReport) -> list:
    """The report's events as the four lists a report kept before its
    events were its one record: the other events, the bound checks, the
    D1 checks and the DC2 checks, each field in its old place."""
    events, bound_checks, d1_checks, dc2_checks = [], [], [], []
    anchor = None
    for e in rep.events:
        if e["kind"] == "d1":
            d1_checks.append({
                "anchor": anchor["point"],
                "passed": e["passed"],
                "anchor_filled": ANCHOR_FILLED,
                "max_neighbor_filled": e["max_neighbor_filled"],
            })
        elif e["kind"] == "dc2":
            dc2_checks.append({
                "status": e["status"],
                "previous_anchor_value": e["previous_anchor_value"],
                "new_anchor_value": anchor["value"],
            })
        else:
            anchor = e if e["kind"] == "anchor" else anchor
            if e["kind"] == "escape":
                bound_checks.append(BoundCheck(
                    e["bound"], e["offset_sq"], e["bound_limit"], ANCHOR_FILLED,
                    e["point_filled"],
                ))
                e = {k: v for k, v in e.items() if k not in BOUND_FIELDS}
            events.append(e)
    return [events, bound_checks, d1_checks, dc2_checks]


def report_digest(rep: SolveReport, drop: tuple[str, ...] = ()) -> str:
    """Digest of everything a solve reports except its wall time, and
    except the event fields and report columns named in ``drop``. It
    hashes the four lists of ``four_lists``, so the digests pinned before
    the D1, DC2 and bound checks joined the events still hold."""
    summary = {"x_best": rep.x_best, "f_best": rep.f_best, "n_fu": rep.n_fu,
               "n_fill": rep.n_fill, "termination": rep.termination}
    events, *checks = four_lists(rep)
    body = [
        [{k: v for k, v in e.items() if k not in drop} for e in events],
        *checks,
        [v for k, v in summary.items() if k not in drop],
    ]
    return hashlib.sha256(json.dumps(_hexed(body)).encode()).hexdigest()[:16]


@pytest.fixture
def memo_off(monkeypatch):
    """Solves remember no filled value, and so evaluate every one again."""
    monkeypatch.setattr(intfill.filled, "_MEMO_SIZE", 0)


@pytest.mark.parametrize("name,start,options,digest", [
    ("booth", (0, 0), {}, "f75ac24c2de018c3"),
    ("leon", (10, 10), {}, "28c28681d8c5ea96"),
    ("three-hump-camel", (2, 2), {}, "2289856da41312c7"),
    ("booth", (0, 0), {"max_evaluations": 200}, "a68d474b2b2c7c71"),
    ("booth", (0, 0), {"filled_minimizer": "quasi-newton"}, "4e1c9c97f74bd42a"),
])
def test_solve_output_with_the_filled_memo_is_pinned_bit_for_bit(
    name, start, options, digest
):
    # A refactor of the solver that keeps the order of evaluations keeps
    # every event, check record and column, and so these digests. The
    # quasi-newton escape asks no memo itself, but the lattice values and
    # the D1, bound and DC2 checks around it are recalled as for a compass.
    rep = solve_problem(get_problem(name), x0=start, cfg=SolverConfig(**options))
    assert report_digest(rep) == digest


def test_a_solve_whose_filled_memo_drops_values_is_pinned_bit_for_bit(monkeypatch):
    # The solves above never fill a memo, so they cannot see which value a
    # full memo drops. rosenbrock at n = 10 stores more filled values than
    # the memo keeps, so its counters pin the eviction order: a change
    # that drops other values recalls fewer and charges more.
    stores = collections.Counter()
    call = AugmentedFilled.__call__

    def recording(fn, x):
        value = call(fn, x)
        if fn.memo is not None:
            stores[id(fn.memo)] += 1
        return value

    monkeypatch.setattr(AugmentedFilled, "__call__", recording)
    rep = solve_problem(get_problem("rosenbrock", 10))
    assert max(stores.values()) > intfill.filled._MEMO_SIZE
    assert (rep.n_fu, rep.n_fill) == (19_360, 17_181)
    assert report_digest(rep) == "5b61c94ddcdfe6d2"
    # Summed with np.sum, as it was before math.fsum, the same solve stores
    # as many filled values: only the last bit of a sum moved, not the memo.
    def np_sum_rosenbrock(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    monkeypatch.setattr(intfill.benchmarks, "rosenbrock_value", np_sum_rosenbrock)
    rep = solve_problem(get_problem("rosenbrock", 10))
    assert (rep.n_fu, rep.n_fill) == (19_383, 17_181)
    assert report_digest(rep) == "10f5651d54d8aeef"


@pytest.mark.parametrize("name,start,options,digest", [
    ("booth", (0, 0), {}, "a0142cea93e5ad77"),
    ("leon", (10, 10), {}, "e885f230679955aa"),
    ("three-hump-camel", (2, 2), {}, "941b24b00bab2f34"),
    ("booth", (0, 0), {"max_evaluations": 200}, "d3e5cdf5533ea756"),
    ("booth", (0, 0), {"filled_minimizer": "quasi-newton"}, "a68fd691d9c6d1c5"),
])
def test_solve_output_is_pinned_bit_for_bit(name, start, options, digest, memo_off):
    # With the memo off, each solve evaluates every filled value it
    # reaches, as the solver did before it remembered them. The last two
    # digests are still that solver's; the first three moved when escape
    # walks began to end at their first fractional step.
    rep = solve_problem(get_problem(name), x0=start, cfg=SolverConfig(**options))
    assert report_digest(rep) == digest


COUNTERS = ("n_fu", "n_fill", "escape_evaluations")


@pytest.mark.parametrize("name,n,start,options,digest", [
    ("booth", None, (0, 0), {}, "02f8af79f4633d13"),
    ("leon", None, (10, 10), {}, "024973dcba6df027"),
    ("three-hump-camel", None, (2, 2), {}, "e37b5e9ad1e5cde5"),
    ("booth", None, (0, 0), {"max_evaluations": 200}, "f5616849bb010739"),
    ("booth", None, (0, 0), {"filled_minimizer": "quasi-newton"}, "59c20a8f9a61883c"),
    ("rosenbrock", 10, None, {}, "afcec4c8c0853fd0"),
    ("schaffer-n1", None, (51, 91), {}, "04267b62432690fe"),
    ("beale", None, None, {}, "f84cd179cb9677e3"),  # a wide box, from its paper start
])
def test_solve_trajectory_is_pinned_without_its_counters(
    name, n, start, options, digest
):
    # Every event, check record, x_best and f_best, with the evaluation
    # counts left out: a change to what a solve charges, and not to where
    # it goes, keeps these digests.
    rep = solve_problem(get_problem(name, n), x0=start, cfg=SolverConfig(**options))
    assert report_digest(rep, drop=COUNTERS) == digest


WALK_FIELDS = ("escape_termination", "escape_evaluations")


@pytest.fixture
def fine_walk(monkeypatch):
    """Compass escapes refine their endpoints down to a step of 1e-6."""
    monkeypatch.setattr(intfill.solver, "_ESCAPE_STEP_TOL", 1e-6)


@pytest.mark.parametrize("name,start,options,digest", [
    ("booth", (0, 0), {}, "0e65f23b4406157c"),
    ("leon", (10, 10), {}, "e69bac83d1c2b3ea"),
    ("three-hump-camel", (2, 2), {}, "c08a1671a3219913"),
    ("booth", (0, 0), {"max_evaluations": 200}, "dc1a1efbdc94c025"),
    ("booth", (0, 0), {"filled_minimizer": "quasi-newton"}, "89c13e51181ffaf8"),
])
def test_a_walk_to_step_tol_1e_6_replays_the_sub_unit_escapes(
    name, start, options, digest, memo_off, fine_walk
):
    # The digests of the solver whose compass escape refined its endpoint
    # down to a step of 1e-6, before escape events recorded how each walk
    # ended and before solves remembered filled values. The quasi-newton
    # escape, which takes no step_tol, is unchanged.
    rep = solve_problem(get_problem(name), x0=start, cfg=SolverConfig(**options))
    assert report_digest(rep, drop=WALK_FIELDS) == digest


@pytest.mark.parametrize("name,start,options,digest", [
    ("booth", (0, 0), {}, "b0816e1bfd818380"),
    ("leon", (10, 10), {}, "76a953ac052d7c71"),
    ("three-hump-camel", (2, 2), {}, "5abad3ccbaf4743a"),
    ("booth", (0, 0), {"max_evaluations": 200}, "092153e488396031"),
    ("booth", (0, 0), {"filled_minimizer": "quasi-newton"}, "c31c6081a07dc7c7"),
])
def test_a_walk_to_step_tol_1e_6_with_the_filled_memo_is_pinned(
    name, start, options, digest, fine_walk
):
    # The same solves as above with the memos on: lattice values and
    # filled values are each computed once while remembered.
    rep = solve_problem(get_problem(name), x0=start, cfg=SolverConfig(**options))
    assert report_digest(rep, drop=WALK_FIELDS) == digest


# ---------------------------------------------------------------- budgets


def test_budget_cut_still_reports_local_minimizer():
    obj = booth_objective()
    rep = solve(obj, np.array([0, 0]), SolverConfig(max_evaluations=200))
    assert rep.termination == "budget"
    assert rep.f_best == booth_fn(np.array(rep.x_best))
    assert is_discrete_local_min(booth_fn, np.array(rep.x_best), obj.box)
    # The final polish may charge past the cut, but not before it.
    assert rep.n_fu + rep.n_fill >= 200


def test_budget_cut_between_an_escape_and_its_anchor_reports_the_landing():
    # The escape from the anchor -3 (f = 3) lands in the better well; a
    # budget that ends right after it cuts the descent to the next anchor.
    # The landing beats every anchor reached, so it is polished and reported.
    box = BoxDomain(np.array([-5]), np.array([5]))
    full = solve(ObjectiveFunction(double_well, box, EvalCounter()), np.array([-3]))
    landing = next(e for e in full.events if e["kind"] == "escape" and e["improved"])
    budget = landing["n_fu"] + landing["n_fill"] + 1
    rep = solve(
        ObjectiveFunction(double_well, box, EvalCounter()),
        np.array([-3]),
        SolverConfig(max_evaluations=budget),
    )
    assert rep.termination == "budget"
    anchors = [e["value"] for e in rep.events if e["kind"] == "anchor"]
    assert anchors == [3.0] and landing["value"] < 3.0
    assert rep.events[-1]["kind"] == "finalize_descent"
    assert rep.x_best == (3,) and rep.f_best == -3.0


def test_budget_of_one_is_survivable():
    rep = solve(booth_objective(), np.array([0, 0]), SolverConfig(max_evaluations=1))
    assert rep.termination == "budget"
    assert is_discrete_local_min(booth_fn, np.array(rep.x_best),
                                 booth_objective().box)


def test_budget_spent_before_the_start_value_still_reports_a_minimizer():
    # The counter allows no evaluation at all: f(start) is taken with the
    # limit lifted and polished, and the limit comes back afterwards.
    counter = EvalCounter(limit=0)
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    obj = ObjectiveFunction(lambda x: float(x @ x), box, counter)
    rep = solve(obj, np.array([3, 3]))
    assert (rep.x_best, rep.f_best, rep.termination) == ((0, 0), 0.0, "budget")
    assert (rep.n_fu, rep.n_fill) == (18, 0)
    assert counter.limit == 0
    assert [ev["kind"] for ev in rep.events] == ["finalize_descent"]


def test_budget_cut_deterministic():
    r1 = solve(booth_objective(), np.array([0, 0]), SolverConfig(max_evaluations=350))
    r2 = solve(booth_objective(), np.array([0, 0]), SolverConfig(max_evaluations=350))
    assert r1.columns() == r2.columns()
    assert r1.x_best == r2.x_best


def test_external_counter_limit_respected_and_restored():
    counter = EvalCounter(limit=100)
    box = BoxDomain(np.array([-5, -5]), np.array([5, 5]))
    obj = ObjectiveFunction(lambda x: float(x @ x), box, counter)
    rep = solve(obj, np.array([3, 3]))
    assert rep.termination == "budget"
    assert counter.limit == 100
    assert rep.x_best == (0, 0)


# ---------------------------------------------------------------- degenerate boxes


@pytest.mark.parametrize("minimizer", [None, "compass", "quasi-newton"])
def test_solve_on_a_box_flat_in_one_axis(minimizer):
    # lower == upper on axis 2: its gradient probes have no spread and are
    # skipped, and no point evaluated leaves x1 = 2.
    box = BoxDomain(np.array([-5, 2]), np.array([5, 2]))
    seen = []

    def fn(x):
        seen.append(float(x[1]))
        return float((x[0] - 1) ** 2 + x[1] ** 2)

    cfg = SolverConfig()
    if minimizer is not None:
        cfg = SolverConfig(objective_minimizer=minimizer, filled_minimizer=minimizer)
    rep = solve(ObjectiveFunction(fn, box, EvalCounter()), np.array([4, 2]), cfg)
    assert rep.x_best == (1, 2) and rep.f_best == 4.0
    assert set(seen) == {2.0}


def test_solve_on_a_single_point_box():
    box = BoxDomain(np.array([3, 3]), np.array([3, 3]))
    obj = ObjectiveFunction(lambda x: float(x @ x), box, EvalCounter())
    rep = solve(obj, np.array([3, 3]))
    assert rep.x_best == (3, 3) and rep.f_best == 18.0
    assert rep.n_fill == 0
    # No neighbor: the D1 check passes vacuously in every round.
    d1 = [(a["point"], c["passed"], c["max_neighbor_filled"])
          for c, a in checks_with_their_anchors(rep, "d1")]
    assert d1 == [((3, 3), True, -np.inf)] * 3


@pytest.mark.parametrize("minimizer", ["quasi-newton", "compass"])
def test_solve_on_a_zero_coordinate_box(minimizer):
    # The quasi-newton gradient test once took the max of no coordinates
    # and ended the solve with a bare ValueError.
    empty = np.zeros(0, dtype=np.int64)
    obj = ObjectiveFunction(lambda x: 1.0, BoxDomain(empty, empty), EvalCounter())
    rep = solve(obj, empty, SolverConfig(objective_minimizer=minimizer))
    assert rep.x_best == () and rep.f_best == 1.0
    assert rep.termination == "max_iterations"


def test_solve_at_the_top_int64_bound_keeps_its_endpoint():
    # Phase 1 ends at 2.0**63, the float64 image of the top bound. Rounded
    # by a wrapping cast it would land at -2**63, be clamped to 0, and the
    # lattice descent would walk back one unit per evaluation until the
    # budget ran out.
    rep = _solve_at_the_top_int64_bound()
    assert rep.termination == "max_iterations"
    assert rep.x_best == (2**63 - 1,)
    assert (rep.n_fu, rep.n_fill) == (36, 1)


def _solve_at_the_top_int64_bound():
    top = 2**63 - 1
    box = BoxDomain(np.array([0]), np.array([top]))
    obj = ObjectiveFunction(lambda x: -float(x[0]), box, EvalCounter())
    return solve(obj, np.array([top]), SolverConfig(max_evaluations=20_000))


# ---------------------------------------------------------------- counting rule


def test_n_fu_less_n_fill_counts_the_evaluations_outside_filled_values():
    # Every objective evaluation charges n_fu, and each filled value
    # charges n_fill and one embedded objective evaluation besides; so
    # n_fu - n_fill is the lattice calls plus phase 1's relaxed calls.
    class Counted(ObjectiveFunction):
        lattice_calls = relaxed_calls = 0

        def __call__(self, x):
            value = super().__call__(x)
            self.lattice_calls += 1
            return value

        def relaxed(self, x):
            value = super().relaxed(x)
            self.relaxed_calls += 1
            return value

    p = get_problem("booth")
    obj = Counted(p.func, p.box, EvalCounter())
    rep = solve(obj, np.array(p.default_start))
    assert rep.f_best == 0.0 and rep.n_fill > 0 and obj.relaxed_calls > 0
    assert rep.n_fu - rep.n_fill == obj.lattice_calls + obj.relaxed_calls


# ---------------------------------------------------------------- other minimizers


@pytest.mark.parametrize(
    "name,minimum,columns",
    [("booth", (1, 3), (0.0, 393, 316)), ("three-hump-camel", (0, 0), (0.0, 397, 316))],
)
def test_quasi_newton_escapes_over_three_rounds(name, minimum, columns):
    # Round k >= 2 widens only a compass escape: QuasiNewton has no
    # ``expand`` setting, and is built with none.
    cfg = SolverConfig(filled_minimizer="quasi-newton")
    rep = solve_problem(get_problem(name), cfg=cfg)
    assert rep.x_best == minimum and rep.outer_iterations == 3
    assert rep.columns() == columns
    assert rep.termination == "max_iterations"


def test_compass_escape_expand_is_the_outer_round(monkeypatch):
    built = []

    class Recording(CompassSearch):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setitem(MINIMIZERS, "compass", Recording)
    solve_problem(get_problem("booth"))
    # The descent is quasi-newton: every compass built is an escape.
    escapes = [(m.step_tol, m.expand) for m in built]
    assert escapes == [(0.75, float(k)) for k in (1, 2, 3)]


def test_compass_descent_solves_booth():
    cfg = SolverConfig(objective_minimizer="compass")
    rep = solve_problem(get_problem("booth"), cfg=cfg)
    assert rep.x_best == (1, 3) and rep.f_best == 0.0
    assert rep.outer_iterations == 3


@pytest.mark.parametrize("name", ["booth", "leon", "three-hump-camel", "rastrigin"])
def test_default_round_1_escapes_stay_on_the_lattice(monkeypatch, name):
    # Round 1 walks unit steps, and each walk ends at its first step below
    # one unit. Rounds 2 and 3 multiply the step by 2 and 3, capped at the
    # box width, so a shrink can halve it to a fraction (booth: 16, 20, 10,
    # 5, then 2.5), and each walk ends at its first fractional step. In all
    # three rounds every point the filled function sees is integral, so the
    # lattice penalty never runs. With round 1's walk refined to a step of
    # 1e-6 it does.
    calls = []

    def counted(x):
        calls.append(x)
        return lattice_penalty(x)

    monkeypatch.setattr(intfill.filled, "lattice_penalty", counted)
    problem = get_problem(name)
    rep = solve_problem(problem)
    assert rep.outer_iterations == 3
    assert calls == []
    monkeypatch.setattr(intfill.solver, "_ESCAPE_STEP_TOL", 1e-6)
    solve_problem(problem, cfg=SolverConfig(max_outer_iterations=1))
    assert calls


def test_schaffer_n1_from_51_91_does_not_cycle_between_two_anchors():
    # The walk that refined each endpoint below one unit took this solve
    # into a cycle between the anchors (-6, -8) and (-8, -6), equal by
    # symmetry, that only the 10 M evaluation budget ended.
    rep = solve_problem(get_problem("schaffer-n1"), x0=(51, 91))
    assert rep.termination == "max_iterations"
    assert rep.x_best == (0, 0) and rep.f_best == 0.0
    assert rep.n_fu + rep.n_fill == 18_241


def test_filled_minimizer_is_built_once_per_inner_search():
    built, runs = [], []

    class Counting(CompassSearch):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

        def minimize(self, fn, x0, box):
            runs.append(self)
            return super().minimize(fn, x0, box)

    MINIMIZERS["counting"] = Counting
    try:
        cfg = SolverConfig(filled_minimizer="counting")
        rep = solve_problem(get_problem("booth"), cfg=cfg)
    finally:
        del MINIMIZERS["counting"]
    assert rep.x_best == (1, 3)
    inner_searches = sum(ev["kind"] == "outer_result" for ev in rep.events)
    assert len(built) == inner_searches == 3
    escapes = sum(ev["kind"] == "escape" for ev in rep.events)
    assert len(runs) == escapes > len(built)
    assert {id(m) for m in runs} == {id(m) for m in built}


# ---------------------------------------------------------------- filled memo


def test_the_run_record_keeps_one_memo_per_anchor_and_value():
    rec = intfill.solver._RunRecord()
    memo = rec.filled_memo(np.array([1, 3]), 0.0)
    assert rec.filled_memo(np.array([1, 3]), 0.0) is memo
    assert rec.filled_memo(np.array([1, 4]), 0.0) is not memo
    memo = rec.filled_memo(np.array([1, 4]), 0.0)
    assert rec.filled_memo(np.array([1, 4]), 0.5) is not memo


def test_only_the_d1_check_and_first_passes_share_the_memo(monkeypatch):
    # schaffer-n1 from (8, 2) retries one candidate at a margin below
    # r_max. The D1 check and every first pass, all at r_max, hold the
    # escape's memo; the retry holds none, and no value its walk computes
    # enters the memo.
    r_max = FilledParams().r_max
    built, calling, stored_at = [], [], []

    class Memo(collections.OrderedDict):
        def __setitem__(self, key, value):
            stored_at.append(calling[-1].base.r)
            super().__setitem__(key, value)

    init, call = AugmentedFilled.__init__, AugmentedFilled.__call__

    def recording_init(fn, base, memo=None):
        init(fn, base, memo)
        built.append(fn)

    def recording_call(fn, x):
        calling.append(fn)
        return call(fn, x)

    monkeypatch.setattr(AugmentedFilled, "__init__", recording_init)
    monkeypatch.setattr(AugmentedFilled, "__call__", recording_call)
    monkeypatch.setattr(intfill.solver._RunRecord, "filled_memo", lambda *_: Memo())
    solve_problem(get_problem("schaffer-n1"), x0=(8, 2))
    retries = [fn for fn in built if fn.base.r < r_max]
    assert retries and any(fn in retries for fn in calling)
    assert all((fn.memo is not None) == (fn.base.r == r_max) for fn in built)
    assert stored_at and set(stored_at) == {r_max}


@pytest.mark.parametrize("size", [0, 1, 64])
def test_the_memo_size_moves_only_the_counters(monkeypatch, size):
    # A remembered value is the one the function would compute again, so
    # however many values a solve keeps, it goes the same way; and the
    # memo never holds more than its bound.
    monkeypatch.setattr(intfill.filled, "_MEMO_SIZE", size)
    largest = []
    call = AugmentedFilled.__call__

    def recording(fn, x):
        value = call(fn, x)
        if fn.memo is not None:
            largest.append(len(fn.memo))
        return value

    monkeypatch.setattr(AugmentedFilled, "__call__", recording)
    rep = solve_problem(get_problem("schaffer-n1"), x0=(51, 91))
    assert report_digest(rep, drop=COUNTERS) == "04267b62432690fe"
    assert max(largest) == size


@pytest.mark.parametrize("run,counts", [
    pytest.param(
        lambda: solve_problem(get_problem("booth"), cfg=SolverConfig(max_outer_iterations=2)),
        (418, 320), id="booth-two-rounds",
    ),
    pytest.param(lambda: solve_problem(get_problem("booth")), (540, 416), id="booth"),
    pytest.param(
        lambda: solve(
            ObjectiveFunction(
                _nan_at_4_4, BoxDomain(np.array([-5, -5]), np.array([5, 5])), EvalCounter()
            ),
            np.array([4, 4]),
        ),
        (642, 268), id="nan-anchor",
    ),
    pytest.param(
        lambda: solve_problem(get_problem("booth"), x0=(1, 3)), (495, 416),
        id="booth-from-its-minimum",
    ),
    pytest.param(_solve_at_the_top_int64_bound, (58, 9), id="top-int64-bound"),
    pytest.param(
        lambda: solve_problem(get_problem("schaffer-n1"), x0=(51, 91)), (10_588, 8_539),
        id="schaffer-n1-from-51-91",
    ),
])
def test_memo_off_replays_the_counts_of_every_filled_value_evaluated(
    run, counts, memo_off
):
    # The counts of these solves when every filled value they reach is
    # evaluated, as before filled values were remembered; the tests above
    # pin them with the memo on.
    rep = run()
    assert (rep.n_fu, rep.n_fill) == counts


# ---------------------------------------------------------------- lattice memo


@pytest.mark.parametrize("name,n", [("booth", None), ("rastrigin", 5)])
def test_each_lattice_point_reaches_the_objective_once(monkeypatch, name, n):
    # f(start), phase 1's lattice descent, candidate ordering, the landing's
    # neighborhood argmin and the polish all read the run record's values.
    points = []
    call = ObjectiveFunction.__call__

    def recording(obj, x):
        points.append(x.tobytes())
        return call(obj, x)

    monkeypatch.setattr(ObjectiveFunction, "__call__", recording)
    solve_problem(get_problem(name, n))
    assert points and len(points) == len(set(points))


def _solve_recording_charges(monkeypatch):
    """schaffer-n1 from (51, 91), with the filled values charged by each
    D1, DC2 and bound-check evaluation, in order."""
    charged = {"d1": [], "dc2": [], "bound": []}
    in_dc2 = []
    filled_at, raw_at = intfill.solver._filled_at, intfill.solver._raw_at
    dc2_check = intfill.solver.is_discrete_local_min

    def counted(kind, fn, counter, *args):
        before = (counter.n_fu, counter.n_fill)
        value = fn(*args)
        charged[kind].append((counter.n_fu - before[0], counter.n_fill - before[1]))
        return value

    def recording_filled_at(fn, x):
        kind = "dc2" if in_dc2 else "d1"
        return counted(kind, filled_at, fn.base.objective.counter, fn, x)

    def recording_raw_at(fn, x):
        return counted("bound", raw_at, fn.base.objective.counter, fn, x)

    def recording_dc2(f, x, box):
        in_dc2.append(True)
        try:
            return dc2_check(f, x, box)
        finally:
            in_dc2.pop()

    monkeypatch.setattr(intfill.solver, "_filled_at", recording_filled_at)
    monkeypatch.setattr(intfill.solver, "_raw_at", recording_raw_at)
    monkeypatch.setattr(intfill.solver, "is_discrete_local_min", recording_dc2)
    return solve_problem(get_problem("schaffer-n1"), x0=(51, 91)), charged


def test_recalled_condition_checks_charge_nothing_and_change_no_record(monkeypatch):
    # The D1 and DC2 checks and the bound check recall the filled values
    # the memo holds. Every check record matches the same solve with the
    # memos off, where each of those values is evaluated and charged.
    rep, charged = _solve_recording_charges(monkeypatch)
    for kind, charges in charged.items():
        assert set(charges) == {(0, 0), (1, 1)}, kind
    monkeypatch.undo()
    monkeypatch.setattr(intfill.filled, "_MEMO_SIZE", 0)
    off, charged_off = _solve_recording_charges(monkeypatch)
    for kind, charges in charged_off.items():
        assert len(charges) == len(charged[kind]) and set(charges) == {(1, 1)}, kind

    def checks(r):
        return [
            {k: v for k, v in e.items() if k not in COUNTERS}
            for e in r.events
            if e["kind"] in ("d1", "dc2", "escape")
        ]

    assert json.dumps(_hexed(checks(rep))) == json.dumps(_hexed(checks(off)))


def test_an_evaluation_cut_by_the_budget_is_not_remembered():
    obj = booth_objective(limit=0)
    rec = intfill.solver._RunRecord(obj)
    with pytest.raises(BudgetExhausted):
        rec.value(np.array([0, 0]))
    assert not rec.values
    memo = rec.filled_memo(np.array([1, 3]), 0.0)
    fn = AugmentedFilled(InverseSquareFilled(obj, np.array([1, 3]), 0.0, 1.0), memo)
    with pytest.raises(BudgetExhausted):
        intfill.solver._filled_at(fn, np.array([0, 0]))
    assert not memo


def test_the_lattice_memo_keeps_its_bound(monkeypatch):
    # A full memo drops its least recently used value: the hit on [0, 1]
    # keeps it over [0, 2], so [0, 3] evicts [0, 2], and [0, 1] is still
    # recalled without a charge.
    monkeypatch.setattr(intfill.filled, "_MEMO_SIZE", 2)
    rec = intfill.solver._RunRecord(booth_objective())
    for x in ([0, 0], [0, 1], [0, 2], [0, 1]):
        rec.value(np.array(x))
    assert list(rec.values) == [np.array(x).tobytes() for x in ([0, 2], [0, 1])]
    assert rec.obj.counter.n_fu == 3
    for x in ([0, 3], [0, 1]):
        rec.value(np.array(x))
    assert list(rec.values) == [np.array(x).tobytes() for x in ([0, 3], [0, 1])]
    assert rec.obj.counter.n_fu == 4
