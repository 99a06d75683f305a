"""Tests for the benchmark registry and the enumeration oracle."""
import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from intfill import benchmarks
from intfill.benchmarks import (
    APPENDIX_RUNS,
    BRUTE_FORCE_GUARD,
    BenchmarkProblem,
    PROBLEM_FACTORIES,
    brute_force_min,
    expand_start_pattern,
    get_problem,
    registry,
)
from intfill.cli import main
from intfill.core import BoxDomain, DomainError, ParameterError
from intfill.solver import SolverConfig, solve_problem

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


# The sums as written with np.sum, which the formulas call as np.add.reduce.
SUM_FORMULAS = {
    "rosenbrock_value": lambda x: float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    ),
    "rastrigin_value": lambda x: float(
        10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x))
    ),
    "quadratic_chain_value": lambda x: float(
        (x[0] - 1.0) ** 2
        + (x[1] - 1.0) ** 2
        + x.size * np.sum((x.size - np.arange(1, x.size)) * (x[:-1] ** 2 - x[1:]) ** 2)
    ),
}


@pytest.mark.parametrize("name", sorted(SUM_FORMULAS))
def test_summed_formulas_match_np_sum_bit_for_bit(name):
    # n > 8 reaches numpy's pairwise-summation blocks.
    func, reference = getattr(benchmarks, name), SUM_FORMULAS[name]
    rng = np.random.default_rng(11)
    for n in range(2, 31):
        for _ in range(40):
            x = rng.normal(scale=rng.choice([1e-3, 1.0, 7.0, 1e4]), size=n)
            assert func(x).hex() == reference(x).hex(), (n, x)
            z = rng.integers(-10, 11, size=n)
            assert func(z).hex() == reference(z.astype(float)).hex(), (n, z)


# The numpy-scalar form of each formula that computes on Python floats. The
# two agree bit for bit because only IEEE basic operations, C pow and sqrt
# run on floats; the dot products and np.sin/np.cos stay in numpy.
def _scalar_goldstein_price(z):
    x, y = np.asarray(z, dtype=float) / 1000.0
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x**2 - 14.0 * y + 6.0 * x * y + 3.0 * y**2
    )
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x**2 + 48.0 * y - 36.0 * x * y + 27.0 * y**2
    )
    return float(a * b)


def _scalar_beale(z):
    x, y = np.asarray(z, dtype=float) / 1000.0
    return float(
        (1.5 - x + x * y) ** 2
        + (2.25 - x + x * y**2) ** 2
        + (2.625 - x + x * y**3) ** 2
    )


def _scalar_powell_singular(z):
    x1, x2, x3, x4 = np.asarray(z, dtype=float) / 1000.0
    return float(
        (x1 + 10.0 * x2) ** 2
        + 5.0 * (x3 - x4) ** 2
        + (x2 - 2.0 * x3) ** 4
        + 10.0 * (x1 - x4) ** 4
    )


def _scalar_colville(x):
    x1, x2, x3, x4 = np.asarray(x, dtype=float)
    return float(
        100.0 * (x2 - x1**2) ** 2
        + (1.0 - x1) ** 2
        + 90.0 * (x4 - x3**2) ** 2
        + (1.0 - x3) ** 2
        + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
        + 19.8 * (x2 - 1.0) * (x4 - 1.0)
    )


def _scalar_booth(x):
    x1, x2 = np.asarray(x, dtype=float)
    return float((x1 + 2.0 * x2 - 7.0) ** 2 + (2.0 * x1 + x2 - 5.0) ** 2)


def _scalar_three_hump_camel(x):
    x1, x2 = np.asarray(x, dtype=float)
    return float(2.0 * x1**2 - 1.05 * x1**4 + x1**6 / 6.0 + x1 * x2 + x2**2)


def _scalar_schaffer_n1(x):
    x = np.asarray(x, dtype=float)
    s = float(x.dot(x))
    return float(0.5 + (np.sin(s * s) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2)


def _scalar_leon(x):
    x1, x2 = np.asarray(x, dtype=float)
    return float(100.0 * (x2 - x1**3) ** 2 + (1.0 - x1) ** 2)


def _scalar_salomon(x):
    x = np.asarray(x, dtype=float)
    root = float(np.sqrt(x.dot(x)))
    return float(1.0 - np.cos(2.0 * np.pi * root) + 0.1 * root)


SCALAR_FORMULAS = {
    "colville": _scalar_colville,
    "goldstein-price": _scalar_goldstein_price,
    "beale": _scalar_beale,
    "powell-singular": _scalar_powell_singular,
    "booth": _scalar_booth,
    "three-hump-camel": _scalar_three_hump_camel,
    "schaffer-n1": _scalar_schaffer_n1,
    "leon": _scalar_leon,
    "salomon": _scalar_salomon,
}


@pytest.mark.parametrize("name", sorted(SCALAR_FORMULAS))
def test_float_formulas_match_their_numpy_scalar_form_bit_for_bit(name):
    p, reference = get_problem(name), SCALAR_FORMULAS[name]
    n = p.dimension
    rng = np.random.default_rng(17)
    points = [
        rng.normal(scale=scale, size=n)
        for scale in (1e-3, 1e-2, 0.1, 1.0, 7.0, 1e2, 1e3, 1e4, 1e5, 1e6)
        for _ in range(60)
    ]
    points += [rng.integers(-(10**6), 10**6, size=n, endpoint=True) for _ in range(300)]
    points += [p.box.random_point(rng) for _ in range(300)]
    points += [np.array(c) for c in itertools.product(*zip(p.box.lower, p.box.upper))]
    for x in points:
        forms = [x, x.astype(float)] if x.dtype == np.int64 else [x]
        for point in forms:
            got = p.func(point)
            assert type(got) is float, (point, type(got))
            assert got.hex() == reference(point).hex(), point


INT64_EDGES = (-(2**63), -1, 0, 1, 2**63 - 1)


@pytest.mark.parametrize("name", sorted(SCALAR_FORMULAS))
def test_float_formulas_are_finite_over_the_int64_range(name):
    # Every int64 lattice point, and every real point in an int64 box, lies
    # between these corners, where each formula's terms peak in size: no
    # value within that range overflows.
    p = get_problem(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for corner in itertools.product(INT64_EDGES, repeat=p.dimension):
            for dtype in (np.int64, np.float64):
                assert math.isfinite(p.func(np.array(corner, dtype=dtype))), corner


def test_a_formula_beyond_the_float_range_raises_overflow_error():
    # Python float ** raises where numpy's scalar ** returned inf with a
    # RuntimeWarning; no point of an int64 box gets this far.
    with pytest.raises(OverflowError):
        benchmarks.booth_value([1e200, 0.0])


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


# ---------------------------------------------------------------- dimensioning


def test_variable_dimension_problems():
    assert get_problem("rosenbrock").dimension == 2
    assert get_problem("rosenbrock", 7).dimension == 7
    assert get_problem("salomon", 5).dimension == 5
    assert get_problem("rastrigin", 10).dimension == 10
    with pytest.raises(ParameterError):
        get_problem("rosenbrock", 1)


# Recorded from the per-problem factories the table replaced:
# (dimension, lower, upper, known_minimizer, known_value, default_start,
# formula name) at each problem's default dimension.
REGISTRY_PIN = {
    "rosenbrock": (2, (-5, -5), (5, 5), (1, 1), 0.0, (3, 3), "rosenbrock_value"),
    "rastrigin": (2, (-5, -5), (5, 5), (0, 0), 0.0, (-1, -1), "rastrigin_value"),
    "colville": (
        4, (-10,) * 4, (10,) * 4, (1, 1, 1, 1), 0.0, (0, 0, 0, 0), "colville_value"
    ),
    "goldstein-price": (
        2, (-2000, -2000), (2000, 2000), (0, -1000), 3.0, (1, -1),
        "goldstein_price_value",
    ),
    "beale": (
        2, (-10000,) * 2, (10000,) * 2, (3000, 500), 0.0, (0, 0), "beale_value"
    ),
    "powell-singular": (
        4, (-10000,) * 4, (10000,) * 4, (0, 0, 0, 0), 0.0, (10, -10, 10, -10),
        "powell_singular_value",
    ),
    "booth": (2, (-10, -10), (10, 10), (1, 3), 0.0, (0, 0), "booth_value"),
    "quadratic-chain": (
        25, (-5,) * 25, (5,) * 25, (1,) * 25, 0.0, (2,) * 25,
        "quadratic_chain_value",
    ),
    "three-hump-camel": (
        2, (-5, -5), (5, 5), (0, 0), 0.0, (2, 2), "three_hump_camel_value"
    ),
    "schaffer-n1": (
        2, (-100, -100), (100, 100), (0, 0), 0.0, (-50, 50), "schaffer_n1_value"
    ),
    "leon": (2, (0, 0), (10, 10), (1, 1), 0.0, (10, 10), "leon_value"),
    "salomon": (
        2, (-100, -100), (100, 100), (0, 0), 0.0, (-100, 100), "salomon_value"
    ),
}


def _pin(p):
    return (
        p.dimension,
        tuple(p.box.lower.tolist()),
        tuple(p.box.upper.tolist()),
        p.known_minimizer,
        p.known_value,
        p.default_start,
        p.func.__name__,
    )


def test_registry_pins_every_problem_at_its_default_dimension():
    assert {p.name: _pin(p) for p in registry()} == REGISTRY_PIN
    for name, factory in PROBLEM_FACTORIES.items():
        assert _pin(factory(None)) == REGISTRY_PIN[name]


# Scalable problems: bound, smallest n, minimizer coordinate, start pattern.
# Only n = None selects the default dimension 2; n = 0 is below every least.
SCALABLE_PIN = [
    ("rosenbrock", 5, 2, 1, (3,)),
    ("rastrigin", 5, 1, 0, (-1,)),
    ("salomon", 100, 1, 0, (-100, 100)),
]


@pytest.mark.parametrize("name,bound,least,coord,pattern", SCALABLE_PIN)
def test_scalable_problems_pin_every_dimension_up_to_ten(
    name, bound, least, coord, pattern
):
    for n in range(11):
        if n < least:
            with pytest.raises(ParameterError, match=f"needs n >= {least}"):
                get_problem(name, n)
            continue
        expected = (
            n,
            (-bound,) * n,
            (bound,) * n,
            (coord,) * n,
            0.0,
            (pattern * 10)[:n],
            name + "_value",
        )
        assert _pin(get_problem(name, n)) == expected
        assert _pin(PROBLEM_FACTORIES[name](n)) == expected


@pytest.mark.parametrize(
    "name,least", [("rosenbrock", 2), ("rastrigin", 1), ("salomon", 1)]
)
def test_dimension_zero_of_a_scalable_problem_is_a_parameter_error(
    name, least, capsys
):
    # n = 0 once selected the default n = 2, so `--n 0` solved at n = 2.
    with pytest.raises(ParameterError, match=f"{name} needs n >= {least}"):
        get_problem(name, 0)
    assert main(["run", "--problem", name, "--n", "0"]) == 2
    assert f"error: {name} needs n >= {least}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["rosenbrock", "colville"])
@pytest.mark.parametrize("n", ["x", "4", 2.5, 4.0])
def test_non_integer_dimension_is_a_parameter_error(name, n):
    with pytest.raises(ParameterError):
        get_problem(name, n)


def test_bool_dimension_is_a_parameter_error():
    # A bool passes numbers.Integral, and True would build a 1-d rastrigin.
    with pytest.raises(ParameterError, match="rastrigin: dimension must be an int"):
        get_problem("rastrigin", True)


def test_fixed_dimension_problems_reject_override():
    assert get_problem("colville", 4).dimension == 4
    for n in (0, 7):
        with pytest.raises(ParameterError, match="colville is defined only for n=4"):
            get_problem("colville", n)
    with pytest.raises(ParameterError):
        get_problem("quadratic-chain", 10)


def test_unknown_problem():
    with pytest.raises(ParameterError, match="unknown problem 'sphere'"):
        get_problem("sphere")


def test_tracer_sees_every_formula_call_of_a_problem_built_after_install(
    monkeypatch,
):
    # The benchmark tracer replaces each formula's module attribute with a
    # counting wrapper, then builds its problems; a problem must pick its
    # formula up at build time for the tracer's evaluation-closure check.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        problem = get_problem("booth")
        solve_problem(problem, problem.default_start, SolverConfig())
    finally:
        t.uninstall()
    assert t.violations == []
    assert t.stat("benchmarks.formula").calls > 0
    # Every compass escape ends by shrinking its step off the lattice, where
    # the penalty is computed; lattice polls skip it. A fused evaluation
    # that bypassed the traced call chain would break one of these counts.
    penalties = t.stat("filled.lattice_penalty").calls
    assert 0 < penalties < t.stat("filled.augmented").calls


def test_expand_start_pattern():
    assert expand_start_pattern((-5, 5), 5) == (-5, 5, -5, 5, -5)
    assert expand_start_pattern((3,), 4) == (3, 3, 3, 3)
    assert expand_start_pattern((1, 2, 3), 2) == (1, 2)
    with pytest.raises(ParameterError):
        expand_start_pattern((), 3)
    # The pattern follows the start-point rule of as_int_point.
    assert expand_start_pattern([2.0, -1.0], 3) == (2, -1, 2)
    for bad in ([1.7], [True], ["3"], 5):
        with pytest.raises(DomainError):
            expand_start_pattern(bad, 2)


def test_benchmark_problem_rejects_points_of_the_wrong_dimension():
    booth = get_problem("booth")
    fields = {"name": "t", "box": booth.box, "func": booth.func, "known_value": 0.0}
    with pytest.raises(ParameterError, match="t: minimizer dimension mismatch"):
        BenchmarkProblem(known_minimizer=(1,), default_start=(0, 0), **fields)
    with pytest.raises(ParameterError, match="t: start dimension mismatch"):
        BenchmarkProblem(known_minimizer=(1, 3), default_start=(0, 0, 0), **fields)


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
    # The oracle enumerates the problem's own box. On [0, 2]^2 the Booth
    # values enumerate by hand to a minimum of 2 at (2, 2).
    box = BoxDomain(np.array([0, 0]), np.array([2, 2]))
    x, v = brute_force_min(dataclasses.replace(get_problem("booth"), box=box))
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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_brute_force_over_no_finite_value_is_a_domain_error(value, monkeypatch, capsys):
    monkeypatch.setattr(benchmarks, "booth_value", lambda x: value)
    with pytest.raises(DomainError, match="booth: every value in the box is NaN or"):
        brute_force_min(get_problem("booth"))
    assert main(["oracle", "--problem", "booth"]) == 2
    err = capsys.readouterr().err
    assert err == "error: booth: every value in the box is NaN or +inf\n"


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
