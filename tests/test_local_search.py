"""Tests for the continuous minimizers and discrete descent."""
import dataclasses
import itertools

import numpy as np
import pytest

from intfill.benchmarks import get_problem
from intfill.core import (
    BoxDomain,
    EvalCounter,
    ObjectiveFunction,
    ParameterError,
    axis_directions,
)
from intfill.filled import AugmentedFilled, InverseSquareFilled
from intfill.local_search import (
    _ARMIJO_C1,
    _BACKTRACK_FACTOR,
    _FTOL,
    _GRAD_TOL,
    _INITIAL_STEP,
    _MAX_BACKTRACKS,
    _MAX_LINE_FAILURES,
    _SHRINK,
    MINIMIZERS,
    CompassSearch,
    QuasiNewton,
    SearchTrace,
    _projected_step,
    make_minimizer,
    minimize_continuous,
    steepest_descent_discrete,
    verify_descent_contract,
)


def box2(lo=-5, hi=5):
    return BoxDomain(np.array([lo, lo]), np.array([hi, hi]))


def sphere(x):
    return float(np.asarray(x) @ np.asarray(x))


def booth(x):
    return float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2)


def in_box(box, points):
    return all(np.all((box.lower <= p) & (p <= box.upper)) for p in points)


def recorded(fn):
    """``fn`` and the list of ``(point copy, value)`` pairs it was called with."""
    calls = []

    def wrapper(x):
        v = fn(x)
        calls.append((np.array(x), v))
        return v

    return wrapper, calls


def accepted_iterates(minimizer, fn, x0, box, rounds):
    """``(point, value)`` of each iterate accepted in the first ``rounds`` rounds.

    Runs are deterministic, so the run capped at ``k`` iterations ends at
    the iterate accepted last by round ``k``; a round accepts at most one.
    """
    iterates = []
    for k in range(rounds):
        capped = dataclasses.replace(minimizer, max_iterations=k)
        x, trace = capped.minimize(fn, x0, box)
        if trace.accepted_steps == len(iterates):
            iterates.append((x, trace.final_value))
    return iterates


# ---------------------------------------------------------------- compass


def test_compass_sphere_converges():
    x, trace = CompassSearch().minimize(sphere, np.array([3.2, -4.7]), box2())
    assert trace.termination == "converged"
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-5)
    assert trace.final_value <= 1e-9


def test_compass_trace_counts_every_evaluation():
    fn, calls = recorded(sphere)
    x, trace = CompassSearch().minimize(fn, np.array([2.0, 2.0]), box2())
    assert trace.n_evaluations == len(calls)
    assert calls[0][1] == trace.start_value
    assert trace.final_value == min(v for _, v in calls) == sphere(x)


def test_compass_values_strictly_decrease():
    iterates = accepted_iterates(
        CompassSearch(), booth, np.array([-8.0, -8.0]), box2(-10, 10), 40
    )
    diffs = np.diff([v for _, v in iterates])
    assert len(diffs) > 5 and np.all(diffs < 0)


def test_compass_respects_box():
    shifted, calls = recorded(lambda x: float((x[0] - 10.0) ** 2 + x[1] ** 2))
    x, trace = CompassSearch().minimize(shifted, np.array([0.0, 0.0]), box2())
    assert x[0] == pytest.approx(5.0, abs=1e-6)
    assert in_box(box2(), [p for p, _ in calls])


def test_compass_iteration_cap_reports_budget():
    _, trace = CompassSearch(max_iterations=3).minimize(
        sphere, np.array([4.0, 4.0]), box2()
    )
    assert trace.termination == "budget"


def test_compass_skips_projected_identity_polls():
    # From a corner with an interior minimum, the two outward polls
    # project back onto the corner and must not be evaluated.
    fn, calls = recorded(sphere)
    CompassSearch(max_iterations=1).minimize(fn, np.array([5.0, 5.0]), box2())
    assert len(calls) == 3  # start + two inward polls


def test_compass_option_validation():
    with pytest.raises(ParameterError):
        CompassSearch(step_tol=0.0)
    with pytest.raises(ParameterError):
        CompassSearch(expand=0.5)


def test_compass_expanding_step_stays_on_lattice_until_first_shrink():
    # Moving away from the origin succeeds every round, so the step
    # doubles: 1, 2, 4, 8 from x0 = 1 gives 2, 4, 8, 16, then the cap.
    away, calls = recorded(lambda x: -float(np.asarray(x) @ np.asarray(x)))
    box = BoxDomain(np.array([-100, -100]), np.array([100, 100]))
    compass = CompassSearch(expand=2.0)
    iterates = accepted_iterates(compass, away, np.array([1.0, 0.0]), box, 5)
    assert [p[0] for p, _ in iterates] == [1.0, 2.0, 4.0, 8.0, 16.0]
    calls.clear()
    x, _ = dataclasses.replace(compass, max_iterations=5).minimize(
        away, np.array([1.0, 0.0]), box
    )
    assert x.dtype == np.float64
    assert all(float(v).is_integer() for p, _ in calls for v in p)


def test_compass_expanding_step_capped_at_box_width():
    # Uncapped, two successes would take the step to inf and the polls
    # to inf * 0 = nan coordinates.
    polled = []

    def fn(x):
        polled.append(np.array(x))
        return -float(x[0])

    x, trace = CompassSearch(expand=1e200, max_iterations=200).minimize(
        fn, np.array([0.0, 0.0]), box2()
    )
    assert x[0] == 5.0
    assert trace.termination == "converged"
    assert in_box(box2(), polled)


def test_compass_default_step_does_not_expand():
    x0, box = np.array([-8.0, -8.0]), box2(-10, 10)
    fixed_fn, fixed = recorded(booth)
    unit_fn, unit = recorded(booth)
    CompassSearch().minimize(fixed_fn, x0, box)
    CompassSearch(expand=1.0).minimize(unit_fn, x0, box)
    assert [(p.tolist(), v) for p, v in fixed] == [(p.tolist(), v) for p, v in unit]
    iterates = accepted_iterates(CompassSearch(), booth, x0, box, 40)
    steps = np.abs(np.diff([p for p, _ in iterates], axis=0)).sum(axis=1)
    assert len(steps) > 5 and np.all(steps <= 1.0)


def test_compass_expands_in_a_box_wider_than_int64():
    # upper - lower = 2**64 - 2 wraps in int64; the step must still double.
    box = BoxDomain(np.array([-(2**63) + 1]), np.array([2**63 - 1]))
    compass = CompassSearch(expand=2.0, max_iterations=70)
    x, trace = compass.minimize(lambda x: -float(x[0]), np.array([0.0]), box)
    assert x[0] == 2.0**63 and trace.accepted_steps == 63


# ------------------------------------------------- compass reference trajectory


def reference_compass(compass, fn, x0, box):
    """Compass search with whole-array polls, the reference for ``minimize``.

    Each poll is ``np.clip(x + step * d)`` over the float axis directions
    in scan order, and a poll equal to ``x`` is skipped. Every other poll
    is evaluated, even at a point evaluated before.
    """
    x = np.clip(np.asarray(x0, dtype=float), box.lower, box.upper)
    fx = start = float(fn(x))
    nev, steps = 1, 0
    step = _INITIAL_STEP
    widest = float(max(int(u) - int(l) for l, u in zip(box.lower, box.upper)))
    dirs = [d.astype(float) for d in axis_directions(box.dimension)]
    termination = "budget"
    for _ in range(compass.max_iterations):
        if step < compass.step_tol:
            termination = "converged"
            break
        best, best_val = None, fx
        for d in dirs:
            y = np.clip(x + step * d, box.lower, box.upper)
            if np.array_equal(y, x):
                continue
            v = float(fn(y))
            nev += 1
            if v < best_val:
                best, best_val = y, v
        if best is None:
            step *= _SHRINK
        else:
            x, fx = best, best_val
            steps += 1
            if compass.expand > 1:
                step = min(step * compass.expand, max(step, widest))
    return x, SearchTrace(start, fx, steps, termination, nev)


def first_occurrences(calls):
    """The ``(point, value)`` calls whose point's float64 bits are new."""
    seen, firsts = set(), []
    for p, v in calls:
        key = np.asarray(p, dtype=float).tobytes()
        if key not in seen:
            seen.add(key)
            firsts.append((p, v))
    return firsts


def filled_target(box):
    """Augmented filled function of a bowl objective, anchored in the box."""
    centre = np.linspace(-2.6, 1.3, box.dimension)
    obj = ObjectiveFunction(
        lambda x: float(np.sum((x - centre) ** 2)), box, EvalCounter()
    )
    anchor = box.clamp(np.round(centre).astype(np.int64) + 1)
    filled = InverseSquareFilled(obj, anchor, obj(anchor) - 0.5, 0.75)
    return AugmentedFilled(filled), obj.counter


_CENTRES = {n: np.linspace(0.37, -1.61, n) for n in (1, 2, 10)}


def _bowl(x):
    return float(np.sum((x - _CENTRES[len(x)]) ** 2))


def _holes(x):
    # NaN and +inf regions exercise every comparison with a non-number.
    x = np.asarray(x, dtype=float)
    return np.nan if x[0] > 2.5 else np.inf if x[0] < -3.5 else _bowl(x) - x[-1]


REFERENCE_FUNCTIONS = {
    "bowl": _bowl,
    "away": lambda x: -float(np.sum(np.asarray(x, dtype=float) ** 2)),
    "wavy": lambda x: float(
        np.sum(np.asarray(x, dtype=float) ** 2 / 10 - np.cos(2 * np.pi * x))
    ),
    "holes": _holes,
    "filled": None,  # built per run by filled_target
}


def _box(lower, upper):
    return BoxDomain(np.array(lower), np.array(upper))


# n = 1; n = 1 at the int64 limits; n = 2; n = 2 with lower == upper on
# axis 2; n = 2 with bounds beyond 2**53, where float64 polls round;
# n = 10 with one flat axis.
REFERENCE_BOXES = {
    "n1": _box([-6], [6]),
    "n1-int64": _box([-(2**63) + 1], [2**63 - 1]),
    "n2": _box([-5, -3], [5, 4]),
    "n2-flat": _box([-5, 2], [5, 2]),
    "n2-huge": _box([-(2**60) - 1, -5], [2**60 + 1, 2**54 + 1]),
    "n10": _box([-2] * 7 + [1] + [-2] * 2, [2] * 7 + [1] + [2] * 2),
}


def reference_starts(box):
    lo, hi = box.lower.astype(float), box.upper.astype(float)
    mid = np.floor((lo + hi) / 2)
    face = mid.copy()
    face[0] = hi[0]
    fractional_face = mid + 0.3
    fractional_face[0] = lo[0]
    corner = np.where(np.arange(box.dimension) % 2 == 0, lo, hi)
    # A -0.0 lattice start keys apart from the point 0.0, as in
    # first_occurrences; polls hold 0.0 there, as in x + step * d.
    negative_zero = mid.copy()
    negative_zero[0] = -0.0  # mid[0] is 0 in every reference box
    return {
        "interior": mid,
        "fractional": mid + np.linspace(0.25, -0.4, box.dimension),
        "face": face,
        "fractional-face": fractional_face,
        "corner": corner,
        "outside": hi + 2.5,
        "negative-zero": negative_zero,
    }


@pytest.mark.parametrize("fn_name", sorted(REFERENCE_FUNCTIONS))
@pytest.mark.parametrize("box_name", sorted(REFERENCE_BOXES))
def test_compass_matches_reference_trajectory(box_name, fn_name):
    box = REFERENCE_BOXES[box_name]
    for start_name, x0 in reference_starts(box).items():
        for expand, cap in itertools.product((1, 2, 3), (25, 7)):
            compass = CompassSearch(expand=expand, step_tol=1e-3, max_iterations=cap)
            runs = []
            for minimize in (reference_compass, CompassSearch.minimize):
                fn, counter = REFERENCE_FUNCTIONS[fn_name], None
                if fn is None:
                    fn, counter = filled_target(box)
                fn, calls = recorded(fn)
                x, trace = minimize(compass, fn, x0.copy(), box)
                counts = (counter.n_fu, counter.n_fill) if counter else None
                runs.append((x, trace, calls, counts))
            (x_ref, t_ref, ref_calls, ref_counts), (x, t, calls, counts) = runs
            case = (start_name, expand, cap)
            firsts = first_occurrences(ref_calls)
            assert [(np.asarray(p, dtype=float).tobytes(), repr(v)) for p, v in calls] == [
                (p.tobytes(), repr(v)) for p, v in firsts
            ], case
            assert x.dtype == x_ref.dtype == np.float64, case
            assert x.tobytes() == x_ref.tobytes(), case
            once = dataclasses.replace(t_ref, n_evaluations=len(firsts))
            assert repr(t) == repr(once), case
            if counter is not None:  # filled_target charged one n_fu for the anchor
                assert ref_counts == (1 + len(ref_calls), len(ref_calls)), case
                assert counts == (1 + len(firsts), len(firsts)), case
            assert all(p.dtype == np.float64 for p, _ in calls), case


@pytest.mark.parametrize("target", ["booth", "filled"])
def test_compass_evaluates_each_point_once(target):
    box, x0 = box2(-10, 10), np.array([-8.0, -8.0])
    fn = booth if target == "booth" else filled_target(box)[0]
    reference_fn, reference_calls = recorded(fn)
    reference_compass(CompassSearch(), reference_fn, x0, box)
    # the every-poll loop repeats points here
    assert len(first_occurrences(reference_calls)) < len(reference_calls)
    fn, calls = recorded(fn)
    CompassSearch().minimize(fn, x0, box)
    assert len(first_occurrences(calls)) == len(calls)


# ---------------------------------------------------------------- quasi-newton


def test_quasi_newton_quadratic_converges():
    fn = lambda x: (x[0] - 1.0) ** 2 + 4.0 * (x[1] + 2.0) ** 2
    x, trace = QuasiNewton().minimize(fn, np.array([4.0, 4.0]), box2())
    assert trace.termination == "converged"
    np.testing.assert_allclose(x, [1.0, -2.0], atol=1e-5)


def test_quasi_newton_booth_reaches_global():
    x, trace = QuasiNewton().minimize(booth, np.array([0.0, 0.0]), box2(-10, 10))
    np.testing.assert_allclose(x, [1.0, 3.0], atol=1e-4)
    assert trace.final_value <= 1e-7


def test_quasi_newton_linear_objective_stops_at_bound():
    # On f(x) = x1 the projected step at the lower face cannot decrease
    # f, so the line search gives up after its failure allowance.
    fn = lambda x: float(x[0])
    x, trace = QuasiNewton().minimize(fn, np.array([0.0, 0.0]), box2())
    assert x[0] == -5.0
    assert trace.termination == "line_search_failure"
    assert trace.final_value <= trace.start_value


def test_quasi_newton_trace_counts_every_evaluation():
    fn, calls = recorded(booth)
    _, trace = QuasiNewton().minimize(fn, np.array([-3.0, 7.0]), box2(-10, 10))
    assert trace.n_evaluations == len(calls)


def test_quasi_newton_iterates_stay_feasible():
    fn, calls = recorded(booth)
    QuasiNewton().minimize(fn, np.array([10.0, 10.0]), box2(-10, 10))
    assert in_box(box2(-10, 10), [p for p, _ in calls])


def test_quasi_newton_stops_on_non_finite_gradient():
    # f = +inf left of x0 = 0: the first gradient probe at x0 = -1e-6
    # returns inf. Stepping on would turn every direction into NaN.
    seen = []

    def fn(x):
        seen.append(x.copy())
        return float("inf") if x[0] < 0 else float(x @ x)

    x, trace = QuasiNewton().minimize(fn, np.array([0.0, 0.0]), box2())
    assert trace.termination == "non_finite"
    assert trace.n_evaluations == len(seen) == 5
    assert all(np.all(np.isfinite(p)) for p in seen)
    assert tuple(x) == (0.0, 0.0) and trace.final_value == 0.0


def test_quasi_newton_stops_when_steps_stop_lowering_f():
    # schaffer-n1's relaxation never gives a small gradient: from (8, 2)
    # the descent used to creep on for 7,144 evaluations until its line
    # searches failed. The relative-reduction test ends it after 4 steps.
    p = get_problem("schaffer-n1")
    x, trace = QuasiNewton().minimize(p.func, np.array([8.0, 2.0]), p.box)
    assert trace.termination == "converged"
    assert trace.n_evaluations < 100
    assert trace.final_value < trace.start_value


def test_quasi_newton_step_off_an_infinite_start_is_no_stall():
    # f = x.x except +inf at (4, 4): the first accepted step lowers f by
    # inf, which is no relative reduction to stop on. The descent goes on
    # to the minimum and ends on the gradient test.
    def fn(x):
        return float("inf") if tuple(x) == (4.0, 4.0) else float(x @ x)

    x, trace = QuasiNewton().minimize(fn, np.array([4.0, 4.0]), box2())
    assert trace.start_value == float("inf") and trace.accepted_steps > 1
    assert trace.termination == "converged"
    assert np.allclose(x, 0.0, atol=1e-6) and trace.final_value < 1e-12


def test_quasi_newton_values_never_increase():
    iterates = accepted_iterates(
        QuasiNewton(), booth, np.array([10.0, -10.0]), box2(-10, 10), 12
    )
    diffs = np.diff([v for _, v in iterates])
    assert len(diffs) > 2 and np.all(diffs <= 0)


# --------------------------------------------- quasi-newton reference trajectory


def reference_quasi_newton(qn, fn, x0, box):
    """BFGS with whole-array line-search points, the reference for ``minimize``.

    Each backtrack evaluates ``box.clamp(x + t * d)`` and gives up when
    that point does not move; the curvature test uses ``np.linalg.norm``.
    An accepted step between finite values that lowers f by at most
    ``_FTOL`` relative to ``max(|f_old|, |f_new|, 1)`` ends the run
    ``"converged"``.
    """
    x = box.clamp(np.asarray(x0, dtype=float))
    fx = start = float(fn(x))
    nev, steps = 1, 0
    lo = box.lower.astype(float).tolist()
    hi = box.upper.astype(float).tolist()
    ident = np.eye(x.shape[0])
    hess_inv = ident.copy()
    prev_g = prev_s = None
    scaled = False
    line_failures = 0
    termination = "budget"
    for _ in range(qn.max_iterations):
        g, k = qn._gradient(fn, x, lo, hi)
        nev += k
        if not np.all(np.isfinite(g)):
            termination = "non_finite"
            break
        if prev_g is not None:
            yk = g - prev_g
            sy = float(prev_s @ yk)
            if sy > 1e-12 * np.linalg.norm(prev_s) * np.linalg.norm(yk):
                if not scaled:
                    hess_inv = (sy / float(yk @ yk)) * ident
                    scaled = True
                rho = 1.0 / sy
                left = ident - rho * np.outer(prev_s, yk)
                hess_inv = left @ hess_inv @ left.T + rho * np.outer(prev_s, prev_s)
            prev_g = prev_s = None
        if float(np.max(np.abs(g))) <= _GRAD_TOL:
            termination = "converged"
            break
        d = -hess_inv @ g
        if float(g @ d) >= 0.0:
            hess_inv = ident.copy()
            scaled = False
            d = -g
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            y = box.clamp(x + t * d)
            move = y - x
            if not move.any():
                break
            v = float(fn(y))
            nev += 1
            if v <= fx + _ARMIJO_C1 * float(g @ move):
                prev_s, prev_g = move, g
                stalled = np.isfinite([fx, v]).all() and (
                    fx - v <= _FTOL * max(abs(fx), abs(v), 1.0)
                )
                x, fx = y, v
                steps += 1
                accepted = True
                break
            t *= _BACKTRACK_FACTOR
        if accepted and stalled:
            termination = "converged"
            break
        if accepted:
            line_failures = 0
        else:
            line_failures += 1
            hess_inv = ident.copy()
            scaled = False
            if line_failures >= _MAX_LINE_FAILURES:
                termination = "line_search_failure"
                break
    return x, SearchTrace(start, fx, steps, termination, nev)


_SCHAFFER = get_problem("schaffer-n1")
_ROSENBROCK = get_problem("rosenbrock", 10)

# (objective, box, start): a bowl, booth, schaffer-n1 with its many
# backtracks, a linear objective whose iterates end on a face of the box
# and whose last line searches cannot move, and rosenbrock at n = 10.
QUASI_NEWTON_CASES = {
    "quadratic": (
        lambda x: (x[0] - 1.0) ** 2 + 4.0 * (x[1] + 2.0) ** 2, box2(), [4.0, 4.0]
    ),
    "booth": (booth, box2(-10, 10), [10.0, -10.0]),
    "schaffer-n1": (_SCHAFFER.func, _SCHAFFER.box, [8.0, 2.0]),
    "linear-to-bound": (lambda x: float(x[0] - 0.25 * x[1]), box2(), [0.3, -1.7]),
    "rosenbrock-n10": (
        _ROSENBROCK.func, _ROSENBROCK.box, np.linspace(-1.9, 1.7, 10)
    ),
}


@pytest.mark.parametrize("case", sorted(QUASI_NEWTON_CASES))
def test_quasi_newton_matches_reference_trajectory(case):
    objective, box, x0 = QUASI_NEWTON_CASES[case]
    runs = []
    for minimize in (reference_quasi_newton, QuasiNewton.minimize):
        fn, calls = recorded(objective)
        x, trace = minimize(QuasiNewton(), fn, np.array(x0, dtype=float), box)
        points = [(p.dtype.str, p.tobytes(), repr(v)) for p, v in calls]
        runs.append((x.dtype.str, x.tobytes(), repr(trace), points))
    assert runs[1] == runs[0]
    assert len(runs[0][3]) > 30


def test_projected_step_is_box_clamp_bit_for_bit():
    # The vectors hold +-0.0 against a 0 bound, NaN, +-inf and values
    # around bounds of +-(2**53 + 1), which round to +-2**53 in float64.
    big = 2.0**53
    values = [0.0, -0.0, 1.5, -2.0, np.nan, np.inf, -np.inf, big, big + 2, -big - 2]
    boxes = [(0, 0), (0, 3), (-3, 0), (-(2**53) - 1, 2**53 + 1), (2**53 + 1, 2**53 + 1)]
    for lower, upper in boxes:
        box = BoxDomain(np.array([lower]), np.array([upper]))
        lo, hi = box.lower.astype(float).tolist(), box.upper.astype(float).tolist()
        for xi, di, t in itertools.product(values, values, (1.0, 0.5, 2.0**-60)):
            with np.errstate(invalid="ignore"):  # inf - inf is NaN here too
                want = box.clamp(np.array([xi]) + t * np.array([di]))
            got = np.array(_projected_step([xi], t, [di], lo, hi))
            assert got.tobytes() == want.tobytes(), (lower, upper, xi, di, t)


# ---------------------------------------------------------------- registry


def test_make_minimizer_dispatch_and_options():
    m = make_minimizer("compass", {"step_tol": 2.0})
    assert isinstance(m, CompassSearch) and m.step_tol == 2.0
    assert isinstance(make_minimizer("quasi-newton"), QuasiNewton)
    # Option names are cached per class; instances are not.
    assert make_minimizer("compass") is not make_minimizer("compass")
    with pytest.raises(ParameterError):
        make_minimizer("annealing")


def test_make_minimizer_rejects_unknown_option_names():
    with pytest.raises(ParameterError, match=r"compass options \['foo'\]; valid"):
        make_minimizer("compass", {"foo": 1})


def test_non_numeric_grad_step_is_a_parameter_error():
    # The difference step is a fixed constant: any value is an unknown option.
    message = r"unknown quasi-newton options \['grad_step'\]"
    with pytest.raises(ParameterError, match=message):
        make_minimizer("quasi-newton", {"grad_step": "x"})


def test_non_numeric_compass_step_is_a_parameter_error():
    with pytest.raises(ParameterError, match="compass option step_tol"):
        CompassSearch(step_tol="x")


def test_string_count_is_rejected_when_the_minimizer_is_built():
    with pytest.raises(ParameterError, match="quasi-newton option max_iterations"):
        make_minimizer("quasi-newton", {"max_iterations": "5"})


# Settings that were options once and are module constants now.
FIXED_SETTINGS = {"shrink", "initial_step", "grad_tol", "max_backtracks", "max_line_failures"}


@pytest.mark.parametrize(
    "cls,option,value",
    [
        (CompassSearch, "shrink", True),
        (CompassSearch, "step_tol", True),
        (CompassSearch, "step_tol", float("nan")),
        (CompassSearch, "expand", float("inf")),
        (CompassSearch, "expand", 10**400),
        (CompassSearch, "max_iterations", 5.0),
        (CompassSearch, "initial_step", 10**400),
        (QuasiNewton, "grad_tol", float("nan")),
        (QuasiNewton, "max_backtracks", 2.5),
        (QuasiNewton, "max_line_failures", False),
        (QuasiNewton, "max_iterations", float("nan")),
        (QuasiNewton, "max_iterations", 2.5),
        (QuasiNewton, "max_iterations", False),
    ],
)
def test_malformed_option_values_name_minimizer_and_option(cls, option, value):
    method = next(name for name, c in MINIMIZERS.items() if c is cls)
    if option in FIXED_SETTINGS:
        # A fixed constant is no option: any value given for it is malformed.
        message = rf"unknown {method} options \['{option}'\]"
    else:
        message = f"{method} option {option} must be"
    with pytest.raises(ParameterError, match=message):
        make_minimizer(method, {option: value})


def test_integer_and_numpy_option_values_are_accepted():
    assert CompassSearch(step_tol=2, expand=np.float64(3.0)).step_tol == 2
    assert QuasiNewton(max_iterations=np.int64(7)).max_iterations == 7


def test_count_beyond_the_float_range_is_accepted():
    m = make_minimizer("compass", {"max_iterations": 10**400})
    x, trace = m.minimize(sphere, np.array([3.0, 3.0]), box2())
    assert trace.termination == "converged"


def test_minimize_continuous_matches_direct_call():
    x1, t1 = minimize_continuous(sphere, np.array([3.0, 3.0]), box2(), "compass")
    x2, t2 = CompassSearch().minimize(sphere, np.array([3.0, 3.0]), box2())
    np.testing.assert_array_equal(x1, x2)
    assert t1.final_value == t2.final_value


# ---------------------------------------------------------------- contracts


@pytest.mark.parametrize("method", sorted(MINIMIZERS))
def test_contracts_hold_for_shipped_minimizers(method):
    report = verify_descent_contract(booth, np.array([-7.0, 4.0]), box2(-10, 10), method)
    assert report.deterministic
    assert report.descent
    assert bool(report)


def test_contract_catches_randomized_minimizer():
    class Jitter:
        """Nondeterministic fake: violates the repeatability contract."""

        def __init__(self):
            self.rng = np.random.default_rng()

        def minimize(self, fn, x0, box):
            x = box.clamp(np.asarray(x0, dtype=float) + self.rng.normal(size=2))
            start, final = float(fn(np.asarray(x0, dtype=float))), float(fn(x))
            return x, SearchTrace(start, final, 1, "converged", 2)

    MINIMIZERS["jitter"] = Jitter
    try:
        report = verify_descent_contract(sphere, np.array([2.0, 2.0]), box2(), "jitter")
        assert not report.deterministic
        assert not bool(report)
    finally:
        del MINIMIZERS["jitter"]


def test_custom_minimizer_rejects_unknown_option_names():
    class Fixed:
        def __init__(self, step=1.0):
            self.step = step

    MINIMIZERS["fixed"] = Fixed
    try:
        assert make_minimizer("fixed", {"step": 2.0}).step == 2.0
        message = r"fixed options \['foo'\]; valid: step"
        with pytest.raises(ParameterError, match=message):
            make_minimizer("fixed", {"foo": 1})
    finally:
        del MINIMIZERS["fixed"]


# ---------------------------------------------------------------- discrete descent


def test_discrete_descent_booth():
    fn, calls = recorded(booth)
    x, fx = steepest_descent_discrete(fn, np.array([0, 0]), box2(-10, 10))
    assert tuple(x) == (1, 3)
    assert fx == 0.0
    assert len(calls) > 0


def test_discrete_descent_fixed_point():
    x, fx = steepest_descent_discrete(booth, np.array([1, 3]), box2(-10, 10))
    assert tuple(x) == (1, 3) and fx == 0.0


def test_discrete_descent_integer_rastrigin_path():
    # On integers the cosine term cancels and the surface is a sphere.
    rast = lambda x: float(10 * len(x) + sum(v * v - 10 * np.cos(2 * np.pi * v)
                                             for v in np.asarray(x, dtype=float)))
    x, fx = steepest_descent_discrete(rast, np.array([-1, -1]), box2())
    assert tuple(x) == (0, 0)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_discrete_descent_plateau_terminates():
    x, fx = steepest_descent_discrete(lambda p: 1.0, np.array([2, -1]), box2())
    assert tuple(x) == (2, -1) and fx == 1.0
