"""Tests for the benchmark registry and the enumeration oracle."""
import numpy as np
import pytest

from intfill.benchmarks import (
    APPENDIX_RUNS,
    BRUTE_FORCE_GUARD,
    PROBLEM_FACTORIES,
    brute_force_min,
    expand_start_pattern,
    get_problem,
    registry,
)
from intfill.core import BoxDomain, ParameterError

CANONICAL_NAMES = [
    "rosenbrock",
    "rastrigin",
    "colville",
    "goldstein-price",
    "beale",
    "powell-singular",
    "booth",
    "quadratic-chain",
    "three-hump-camel",
    "schaffer-n1",
    "leon",
    "salomon",
]


def test_registry_names_and_order():
    probs = registry()
    assert [p.name for p in probs] == CANONICAL_NAMES
    assert list(PROBLEM_FACTORIES) == CANONICAL_NAMES


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_known_minimum_is_attained_exactly(name):
    p = get_problem(name)
    x = np.array(p.known_minimizer, dtype=np.int64)
    assert p.box.contains(x)
    assert p.func(x) == p.known_value


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_default_start_feasible(name):
    p = get_problem(name)
    assert p.box.contains(np.array(p.default_start, dtype=np.int64))


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_lattice_and_real_evaluations_agree_bitwise(name):
    p = get_problem(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = p.box.random_point(rng)
        assert p.func(x) == p.func(x.astype(float))


# Frozen point values, each computed by hand from the formula.
POINT_VALUES = [
    ("rosenbrock", 2, (3, 3), 3604.0),
    ("rosenbrock", 3, (3, 3, 3), 7208.0),
    ("rastrigin", 2, (-1, -1), 2.0),
    ("colville", None, (0, 0, 0, 0), 42.0),
    ("goldstein-price", None, (0, -1000), 3.0),
    ("beale", None, (0, 0), 14.203125),
    ("powell-singular", None, (10, -10, 10, -10), 0.01010241),
    ("booth", None, (0, 0), 74.0),
    ("quadratic-chain", None, (2,) * 25, 30002.0),
    ("three-hump-camel", None, (2, -1), 13.0 / 15.0),
    ("schaffer-n1", None, (0, 0), 0.0),
    ("leon", None, (10, 10), 98010081.0),
    ("salomon", None, (0, 0), 0.0),
]


@pytest.mark.parametrize("name,n,point,expected", POINT_VALUES)
def test_point_values(name, n, point, expected):
    p = get_problem(name, n)
    got = p.func(np.array(point, dtype=np.int64))
    assert got == pytest.approx(expected, abs=1e-9)


def test_goldstein_price_shifted_local_minimum_value():
    # The off-axis stationary value the relaxation drains to from the
    # appendix start; a regression anchor for the scaled formula.
    p = get_problem("goldstein-price")
    assert p.func(np.array([-600, -400])) == pytest.approx(30.0, abs=1e-12)
    assert p.divisor == 1000.0


def test_scaled_problems_declare_divisor():
    for name in ("goldstein-price", "beale", "powell-singular"):
        assert get_problem(name).divisor == 1000.0
    assert get_problem("booth").divisor == 1.0


# ---------------------------------------------------------------- dimensioning


def test_variable_dimension_problems():
    assert get_problem("rosenbrock").dimension == 2
    assert get_problem("rosenbrock", 7).dimension == 7
    assert get_problem("salomon", 5).dimension == 5
    assert get_problem("rastrigin", 10).dimension == 10
    with pytest.raises(ParameterError):
        get_problem("rosenbrock", 1)


def test_fixed_dimension_problems_reject_override():
    assert get_problem("colville", 4).dimension == 4
    with pytest.raises(ParameterError):
        get_problem("colville", 7)
    with pytest.raises(ParameterError):
        get_problem("quadratic-chain", 10)


def test_unknown_problem():
    with pytest.raises(ParameterError):
        get_problem("sphere")


def test_expand_start_pattern():
    assert expand_start_pattern((-5, 5), 5) == (-5, 5, -5, 5, -5)
    assert expand_start_pattern((3,), 4) == (3, 3, 3, 3)
    assert expand_start_pattern((1, 2, 3), 2) == (1, 2)
    with pytest.raises(ParameterError):
        expand_start_pattern((), 3)


# ---------------------------------------------------------------- oracle


def test_brute_force_booth():
    x, v = brute_force_min(get_problem("booth"))
    assert (tuple(x), v) == ((1, 3), 0.0)


def test_brute_force_three_hump():
    x, v = brute_force_min(get_problem("three-hump-camel"))
    assert (tuple(x), v) == ((0, 0), 0.0)


def test_brute_force_rosenbrock_2d():
    x, v = brute_force_min(get_problem("rosenbrock"))
    assert (tuple(x), v) == ((1, 1), 0.0)


def test_brute_force_box_override():
    # On [0, 2]^2 the Booth values enumerate by hand to a minimum of 2
    # at (2, 2).
    box = BoxDomain(np.array([0, 0]), np.array([2, 2]))
    x, v = brute_force_min(get_problem("booth"), box_override=box)
    assert (tuple(x), v) == ((2, 2), 2.0)


def test_brute_force_tie_takes_lexicographic_first():
    p = get_problem("booth")
    flat = p.__class__(
        name="flat",
        box=BoxDomain(np.array([-1, -1]), np.array([1, 1])),
        func=lambda x: 0.0,
        known_minimizer=(0, 0),
        known_value=0.0,
        default_start=(0, 0),
    )
    x, v = brute_force_min(flat)
    assert (tuple(x), v) == ((-1, -1), 0.0)


def test_brute_force_guard_refuses_large_boxes():
    beale = get_problem("beale")
    assert beale.box.feasible_size() > BRUTE_FORCE_GUARD
    with pytest.raises(ParameterError):
        brute_force_min(beale)


# ---------------------------------------------------------------- appendix rows


def test_appendix_rows_are_well_formed():
    assert len(APPENDIX_RUNS) == 10
    for name, n, start in APPENDIX_RUNS:
        p = get_problem(name, n)
        assert len(start) == p.dimension
        assert p.box.contains(np.array(start, dtype=np.int64))
