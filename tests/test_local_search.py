"""Tests for the continuous minimizers and discrete descent."""
import numpy as np
import pytest

from intfill.core import BoxDomain, ParameterError
from intfill.local_search import (
    MINIMIZERS,
    CompassSearch,
    QuasiNewton,
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


def counted(fn):
    calls = {"n": 0}

    def wrapper(x):
        calls["n"] += 1
        return fn(x)

    return wrapper, calls


# ---------------------------------------------------------------- compass


def test_compass_sphere_converges():
    x, trace = CompassSearch().minimize(sphere, np.array([3.2, -4.7]), box2())
    assert trace.termination == "converged"
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-5)
    assert trace.final_value <= 1e-9


def test_compass_trace_counts_every_evaluation():
    fn, calls = counted(sphere)
    _, trace = CompassSearch().minimize(fn, np.array([2.0, 2.0]), box2())
    assert trace.n_evaluations == calls["n"]
    assert trace.values[0] == trace.start_value
    assert trace.values[-1] == trace.final_value


def test_compass_values_strictly_decrease():
    _, trace = CompassSearch().minimize(booth, np.array([-8.0, -8.0]), box2(-10, 10))
    diffs = np.diff(np.array(trace.values))
    assert np.all(diffs < 0)


def test_compass_respects_box():
    shifted = lambda x: float((x[0] - 10.0) ** 2 + x[1] ** 2)
    x, trace = CompassSearch().minimize(shifted, np.array([0.0, 0.0]), box2())
    assert x[0] == pytest.approx(5.0, abs=1e-6)
    assert in_box(box2(), trace.points)


def test_compass_iteration_cap_reports_budget():
    _, trace = CompassSearch(max_iterations=3).minimize(
        sphere, np.array([4.0, 4.0]), box2()
    )
    assert trace.termination == "budget"


def test_compass_skips_projected_identity_polls():
    # From a corner with an interior minimum, the two outward polls
    # project back onto the corner and must not be evaluated.
    fn, calls = counted(sphere)
    CompassSearch(max_iterations=1).minimize(fn, np.array([5.0, 5.0]), box2())
    assert calls["n"] == 3  # start + two inward polls


def test_compass_option_validation():
    with pytest.raises(ParameterError):
        CompassSearch(initial_step=0.0)
    with pytest.raises(ParameterError):
        CompassSearch(shrink=1.0)
    with pytest.raises(ParameterError):
        CompassSearch(expand=0.5)


def test_compass_expanding_step_stays_on_lattice_until_first_shrink():
    # Moving away from the origin succeeds every round, so the step
    # doubles: 1, 2, 4, 8 from x0 = 1 gives 2, 4, 8, 16, then the cap.
    away = lambda x: -float(np.asarray(x) @ np.asarray(x))
    box = BoxDomain(np.array([-100, -100]), np.array([100, 100]))
    _, trace = CompassSearch(expand=2.0, max_iterations=5).minimize(
        away, np.array([1.0, 0.0]), box
    )
    assert [p[0] for p in trace.points[:5]] == [1.0, 2.0, 4.0, 8.0, 16.0]
    for p in trace.points:
        assert np.array_equal(p, np.rint(p))


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
    _, fixed = CompassSearch().minimize(booth, np.array([-8.0, -8.0]), box2(-10, 10))
    _, unit = CompassSearch(expand=1.0).minimize(
        booth, np.array([-8.0, -8.0]), box2(-10, 10)
    )
    assert fixed.values == unit.values
    steps = np.abs(np.diff(np.array(fixed.points), axis=0)).sum(axis=1)
    assert np.all(steps <= 1.0)


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
    fn, calls = counted(booth)
    _, trace = QuasiNewton().minimize(fn, np.array([-3.0, 7.0]), box2(-10, 10))
    assert trace.n_evaluations == calls["n"]


def test_quasi_newton_iterates_stay_feasible():
    _, trace = QuasiNewton().minimize(booth, np.array([10.0, 10.0]), box2(-10, 10))
    assert in_box(box2(-10, 10), trace.points)


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


def test_quasi_newton_values_never_increase():
    _, trace = QuasiNewton().minimize(booth, np.array([10.0, -10.0]), box2(-10, 10))
    diffs = np.diff(np.array(trace.values))
    assert np.all(diffs <= 0)


# ---------------------------------------------------------------- registry


def test_make_minimizer_dispatch_and_options():
    m = make_minimizer("compass", {"initial_step": 2.0})
    assert isinstance(m, CompassSearch) and m.initial_step == 2.0
    assert isinstance(make_minimizer("quasi-newton"), QuasiNewton)
    with pytest.raises(ParameterError):
        make_minimizer("annealing")


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
            from intfill.local_search import SearchTrace

            x = box.clamp(np.asarray(x0, dtype=float) + self.rng.normal(size=2))
            vals = [float(fn(np.asarray(x0, dtype=float))), float(fn(x))]
            return x, SearchTrace([np.asarray(x0, float), x], vals, "converged", 2)

    MINIMIZERS["jitter"] = Jitter
    try:
        report = verify_descent_contract(sphere, np.array([2.0, 2.0]), box2(), "jitter")
        assert not report.deterministic
        assert not bool(report)
    finally:
        del MINIMIZERS["jitter"]


# ---------------------------------------------------------------- discrete descent


def test_discrete_descent_booth():
    fn, calls = counted(booth)
    x, fx = steepest_descent_discrete(fn, np.array([0, 0]), box2(-10, 10))
    assert tuple(x) == (1, 3)
    assert fx == 0.0
    assert calls["n"] > 0


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
