"""Tests for lattice primitives: rounding, neighborhoods, counting."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intfill.core import (
    BoxDomain,
    BudgetExhausted,
    DomainError,
    EvalCounter,
    ObjectiveFunction,
    ParameterError,
    as_int_point,
    as_real_point,
    is_discrete_local_min,
    neighborhood,
    neighborhood_argmin,
    point_key,
    round_point,
)

derandomized = settings(derandomize=True, max_examples=200, deadline=None)


def box2(lo=-5, hi=5):
    return BoxDomain(np.array([lo, lo]), np.array([hi, hi]))


# ---------------------------------------------------------------- rounding

# Hand-computed from floor(t + t / (2|t|)) with integral t passing
# through. Positive halves round away from zero; negative values always
# floor down one extra, so -0.4 lands on -1 and -2.6 on -4.
ROUNDING_CASES = [
    (0.0, 0),
    (7.0, 7),
    (-3.0, -3),
    (0.4, 0),
    (0.5, 1),
    (1.4, 1),
    (1.5, 2),
    (2.6, 3),
    (-0.4, -1),
    (-0.5, -1),
    (-0.9, -2),
    (-1.5, -2),
    (-2.4, -3),
    (-2.6, -4),
]


@pytest.mark.parametrize("value,expected", ROUNDING_CASES)
def test_round_point_cases(value, expected):
    out = round_point(np.array([value]))
    assert out.dtype == np.int64
    assert out[0] == expected


def test_round_point_vector_mixes_rules():
    out = round_point(np.array([1.0, -4.0, 3.4, -2.6]))
    np.testing.assert_array_equal(out, [1, -4, 3, -4])


def test_round_point_rejects_non_finite():
    with pytest.raises(DomainError):
        round_point(np.array([np.nan, 0.0]))
    with pytest.raises(DomainError):
        round_point(np.array([np.inf]))


finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@derandomized
@given(st.lists(finite_coords, min_size=1, max_size=6))
def test_round_point_idempotent(coords):
    once = round_point(np.array(coords))
    twice = round_point(once.astype(float))
    np.testing.assert_array_equal(once, twice)


@derandomized
@given(finite_coords.filter(lambda t: t > 0 and t != np.floor(t)))
def test_round_point_positive_offset_at_most_half(t):
    r = int(round_point(np.array([t]))[0])
    assert abs(r - t) <= 0.5


@derandomized
@given(finite_coords.filter(lambda t: t < 0 and t != np.floor(t)))
def test_round_point_negative_floors_down(t):
    # The negative branch is not nearest-integer rounding: the offset
    # magnitude lands in [0.5, 1.5), always stepping downward.
    r = int(round_point(np.array([t]))[0])
    assert r < t
    assert 0.5 <= t - r < 1.5


@derandomized
@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=6))
def test_round_point_fixes_integers(ints):
    arr = np.array(ints, dtype=float)
    np.testing.assert_array_equal(round_point(arr), ints)


def test_round_point_saturates_at_the_int64_bounds():
    # 2.0**63 is the float64 image of 2**63 - 1; a plain cast wraps it.
    out = round_point(np.array([2.0**63, 1e19, -(2.0**63), -1e19, -2.6]))
    assert out.dtype == np.int64
    assert out.tolist() == [2**63 - 1, 2**63 - 1, -(2**63), -(2**63), -4]


def reference_round_point(x):
    """``round_point`` as numpy ufuncs over the whole vector; the Python-scalar
    form must match it bit for bit."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"cannot round non-finite vector {arr!r}")
    shifted = np.floor(arr + np.where(arr > 0.0, 0.5, -0.5))
    out = np.where(arr == np.floor(arr), arr, shifted)
    top = out >= 2.0**63
    ints = np.maximum(np.where(top, 0.0, out), -(2.0**63)).astype(np.int64)
    return np.where(top, 2**63 - 1, ints)


# Signed zeros, exact halves, the largest floats below 1/2 (t + 0.5 rounds up to
# 1.0), the smallest subnormal, the last non-integral floats below 2**52, and
# values at and beyond +-2**63.
EDGE_FLOATS = [
    0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
    -0.49999999999999994, 5e-324, -5e-324, 2.2e-308,
    4503599627370495.5, -4503599627370495.5, 2.0**52, 2.0**63, -(2.0**63),
    9.223372036854775e18, 1e19, -1e19, 1.7976931348623157e308, -1.7976931348623157e308,
]
any_finite = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    finite_coords,
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(any_finite, min_size=0, max_size=6))
def test_round_point_matches_the_numpy_form(coords):
    arr = np.array(coords, dtype=float)
    out, ref = round_point(arr), reference_round_point(arr)
    assert out.dtype == ref.dtype == np.int64
    assert out.shape == ref.shape
    assert out.tolist() == ref.tolist()


@pytest.mark.parametrize("value", EDGE_FLOATS)
def test_round_point_matches_the_numpy_form_at_each_edge_value(value):
    arr = np.array([value, -value, value / 3.0])
    assert round_point(arr).tolist() == reference_round_point(arr).tolist()


@derandomized
@given(
    st.lists(any_finite, min_size=0, max_size=4),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(min_value=0, max_value=4),
)
def test_round_point_non_finite_is_a_domain_error_as_in_the_numpy_form(
    coords, bad, at
):
    arr = np.array(coords[:at] + [bad] + coords[at:], dtype=float)
    with pytest.raises(DomainError, match="cannot round non-finite") as got:
        round_point(arr)
    with pytest.raises(DomainError) as want:
        reference_round_point(arr)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "x", [np.array([[1.5, -0.4]]), np.float64(2.5), 2.5, [[1.0], [2.0]]]
)
def test_round_point_takes_only_a_1d_point(x):
    # The numpy form broadcast these to a 2-d or 0-d result.
    with pytest.raises(DomainError, match="expected a 1-d point"):
        round_point(x)


def test_round_point_takes_lists_and_int_arrays():
    assert round_point([1.5, -0.4]).tolist() == [2, -1]
    out = round_point(np.array([2**62, -3], dtype=np.int64))
    assert out.dtype == np.int64 and out.tolist() == [2**62, -3]


# ---------------------------------------------------------------- box


def test_box_validation():
    with pytest.raises(ParameterError):
        BoxDomain(np.array([0, 0]), np.array([1]))
    with pytest.raises(ParameterError):
        BoxDomain(np.array([2]), np.array([1]))


def test_box_contains_is_exact_lattice():
    box = box2()
    assert box.contains(np.array([0, 0]))
    assert box.contains(np.array([5.0, -5.0]))
    assert not box.contains(np.array([6, 0]))
    assert not box.contains(np.array([0.5, 0.0]))
    assert not box.contains(np.array([np.nan, 0.0]))
    assert not box.contains(np.array([0, 0, 0]))


def reference_contains(box, x):
    """The numpy body ``BoxDomain.contains`` had before it moved to scalars."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.shape != box.lower.shape:
        return False
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or not np.all(arr == np.floor(arr)):
            return False
    return bool(np.all(arr >= box.lower) and np.all(arr <= box.upper))


_BIG = 2**53 + 1
_FLOATS = [0.0, -0.0, 1.5, -1.5, 5.0, -6.0, np.nan, np.inf, -np.inf,
           2.0**53, 2.0**53 + 2, 2.0**63, -(2.0**63), 1e300]
_CONTAINS_VALUES = {
    np.int64: [0, 1, -1, 5, -6, 2**53, _BIG, -_BIG, 2**63 - 1, -(2**63)],
    np.uint64: [0, 1, 5, 6, 2**53, _BIG, 2**63 - 1, 2**63, 2**64 - 1],
    np.float64: _FLOATS,
    np.float32: [v for v in _FLOATS if v != 1e300],
    np.bool_: [False, True],
}
_CONTAINS_BOUNDS = [
    (-5, 5), (0, 0), (1, 1), (-_BIG, _BIG), (_BIG, _BIG),
    (-(2**63 - 1), 2**63 - 1), (-(2**63), 2**63 - 1),
]


@pytest.mark.parametrize("dtype", list(_CONTAINS_VALUES), ids=lambda t: t.__name__)
def test_box_contains_matches_reference_on_numeric_grid(dtype):
    values = _CONTAINS_VALUES[dtype]
    cases = 0
    for lo, hi in _CONTAINS_BOUNDS:
        box = BoxDomain(np.array([lo, lo]), np.array([hi, hi]))
        for a in values:
            for b in values:
                x = np.array([a, b], dtype=dtype)
                assert box.contains(x) is reference_contains(box, x), (lo, hi, x)
                cases += 1
        for x in (np.array([values[0]], dtype=dtype), np.zeros((2, 1), dtype=dtype)):
            assert box.contains(x) is reference_contains(box, x) is False
    assert cases == len(_CONTAINS_BOUNDS) * len(values) ** 2


def test_box_contains_object_arrays_need_integral_entries():
    box = BoxDomain(np.array([0, 0]), np.array([3, 3]))
    assert box.contains(np.array([1, 3], dtype=object))
    assert box.contains(np.array([1.0, 2], dtype=object))
    numpy_inf = (np.float64(np.inf), np.float32(-np.inf), np.float64(np.nan))
    for bad in ([1.5, 1], [np.nan, 1.0], [np.inf, 1], [1, -np.inf], [2**70, 1], [-1, 0],
                *([v, 1] for v in numpy_inf)):
        assert not box.contains(np.array(bad, dtype=object)), bad
    obj = ObjectiveFunction(lambda x: float(x @ x), box, EvalCounter())
    with pytest.raises(DomainError):
        obj(np.array([1.5, 1], dtype=object))
    assert obj.counter.n_fu == 0


def test_box_clamp_preserves_dtype():
    box = box2()
    out_i = box.clamp(np.array([7, -9]))
    np.testing.assert_array_equal(out_i, [5, -5])
    assert out_i.dtype == np.int64
    out_f = box.clamp(np.array([5.5, -0.25]))
    np.testing.assert_array_equal(out_f, [5.0, -0.25])
    assert out_f.dtype.kind == "f"


def test_box_feasible_size_uses_python_ints():
    box = BoxDomain(np.array([-5] * 10), np.array([5] * 10))
    assert box.feasible_size() == 11**10
    wide = BoxDomain(np.array([0] * 8), np.array([10**6] * 8))
    # Would overflow int64; must still be exact.
    assert wide.feasible_size() == (10**6 + 1) ** 8


def test_box_iter_points_lexicographic():
    box = BoxDomain(np.array([0, -1]), np.array([1, 0]))
    pts = [tuple(p) for p in box.iter_points()]
    assert pts == [(0, -1), (0, 0), (1, -1), (1, 0)]
    assert len(pts) == box.feasible_size()


def test_box_random_point_feasible_and_seeded():
    box = box2()
    rng = np.random.default_rng(7)
    pts = [box.random_point(rng) for _ in range(50)]
    assert all(box.contains(p) for p in pts)
    rng2 = np.random.default_rng(7)
    pts2 = [box.random_point(rng2) for _ in range(50)]
    np.testing.assert_array_equal(np.array(pts), np.array(pts2))
    # Upper bound must be reachable (inclusive sampling).
    flat = np.array(pts).ravel()
    assert flat.max() == 5 and flat.min() == -5


# ---------------------------------------------------------------- neighborhoods


def test_neighborhood_interior_order_center_last():
    box = box2()
    pts = [tuple(p) for p in neighborhood(np.array([1, -2]), box)]
    assert pts == [(0, -2), (2, -2), (1, -3), (1, -1), (1, -2)]


def test_neighborhood_corner_and_edge():
    box = box2()
    corner = [tuple(p) for p in neighborhood(np.array([5, 5]), box)]
    assert corner == [(4, 5), (5, 4), (5, 5)]
    edge = [tuple(p) for p in neighborhood(np.array([5, 0]), box)]
    assert edge == [(4, 0), (5, -1), (5, 1), (5, 0)]


def test_neighborhood_points_feasible_unit_distance():
    box = box2()
    center = np.array([5, -5])
    pts = neighborhood(center, box)
    assert all(box.contains(p) for p in pts)
    assert all(np.abs(p - center).sum() <= 1 for p in pts)


def test_neighborhood_does_not_wrap_at_the_int64_edges():
    top, bottom = 2**63 - 1, -(2**63)
    box = BoxDomain(np.array([bottom, 0]), np.array([top, 0]))
    at_top = [tuple(p) for p in neighborhood(np.array([top, 0]), box)]
    assert at_top == [(top - 1, 0), (top, 0)]
    at_bottom = [tuple(p) for p in neighborhood(np.array([bottom, 0]), box)]
    assert at_bottom == [(bottom + 1, 0), (bottom, 0)]
    assert all(p.dtype == np.int64 for p in neighborhood(np.array([top, 0]), box))


def booth(x):
    return float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2)


def test_neighborhood_argmin_booth_origin():
    # Values by hand: center 74, (-1,0) 113, (1,0) 45, (0,-1) 117, (0,1) 41.
    box = BoxDomain(np.array([-10, -10]), np.array([10, 10]))
    point, value = neighborhood_argmin(booth, np.array([0, 0]), box)
    assert tuple(point) == (0, 1)
    assert value == 41.0


def test_neighborhood_argmin_constant_takes_first_scan_point():
    box = box2()
    point, value = neighborhood_argmin(lambda p: 3.0, np.array([2, 2]), box)
    assert tuple(point) == (1, 2)
    assert value == 3.0


def test_neighborhood_argmin_strict_center_win():
    box = box2()
    point, value = neighborhood_argmin(
        lambda p: float(p @ p), np.array([0, 0]), box
    )
    assert tuple(point) == (0, 0)
    assert value == 0.0


def test_neighborhood_argmin_skips_nan_and_raises_on_all_nan_or_inf():
    box = box2()
    nan_off_axis = lambda p: float("nan") if p[1] != 0 else float(p[0])
    point, value = neighborhood_argmin(nan_off_axis, np.array([0, 0]), box)
    assert tuple(point) == (-1, 0)
    assert value == -1.0
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match=r"\(2, 2\)"):
            neighborhood_argmin(lambda p: bad, np.array([2, 2]), box)


def test_is_discrete_local_min():
    box = box2()
    sphere = lambda p: float(p @ p)
    assert is_discrete_local_min(sphere, np.array([0, 0]), box)
    assert not is_discrete_local_min(sphere, np.array([1, 0]), box)
    # Plateaus count: no strict improvement available.
    assert is_discrete_local_min(lambda p: 1.0, np.array([1, 0]), box)


# ---------------------------------------------------------------- counting


def test_counter_totals_and_budget():
    c = EvalCounter(limit=3)
    c.charge_objective()
    c.charge_filled()
    c.charge_objective()
    assert (c.n_fu, c.n_fill, c.total()) == (2, 1, 3)
    with pytest.raises(BudgetExhausted):
        c.charge_objective()
    with pytest.raises(BudgetExhausted):
        c.charge_filled()
    # The refused evaluation must not be counted.
    assert (c.n_fu, c.n_fill) == (2, 1)


def test_counter_unlimited_by_default():
    c = EvalCounter()
    for _ in range(1000):
        c.charge_filled()
    assert c.total() == 1000


def test_objective_function_charges_and_validates():
    box = box2()
    c = EvalCounter()
    obj = ObjectiveFunction(lambda x: float(x @ x), box, c)
    assert obj(np.array([2, 1])) == 5.0
    assert c.n_fu == 1
    with pytest.raises(DomainError):
        obj(np.array([9, 0]))
    assert c.n_fu == 1
    assert obj.relaxed(np.array([0.5, 0.0])) == 0.25
    assert c.n_fu == 2


# ---------------------------------------------------------------- conversions


def test_as_int_point_rejects_fractional():
    np.testing.assert_array_equal(as_int_point([3, -2]), np.array([3, -2]))
    np.testing.assert_array_equal(as_int_point(np.array([3.0, -2.0])), [3, -2])
    with pytest.raises(DomainError):
        as_int_point(np.array([0.5, 1.0]))


def test_as_int_point_rejects_values_outside_int64():
    with pytest.raises(DomainError, match="18446744073709551615"):
        as_int_point(np.array([2**64 - 1], dtype=np.uint64))
    with pytest.raises(DomainError, match="does not fit in int64"):
        BoxDomain(np.array([-1e19]), np.array([1e19]))
    for bad in ([2.0**63], [0.0, -(2.0**64)], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(DomainError, match="does not fit in int64"):
            as_int_point(bad)
    # Python ints are checked before numpy turns the list into float64
    # or object entries, so the error names the entry outside int64.
    for bad, named in (([2**63 - 1, 2**64 - 1], 2**64 - 1), ([1, 2**70], 2**70)):
        with pytest.raises(DomainError, match=f"coordinate {named} of .* does not fit in int64"):
            as_int_point(bad)
    # The extremes of int64 itself still pass, from ints and from floats.
    edges = as_int_point(np.array([2**63 - 1, -(2**63)], dtype=np.int64))
    np.testing.assert_array_equal(edges, [2**63 - 1, -(2**63)])
    np.testing.assert_array_equal(as_int_point([-(2.0**63)]), [-(2**63)])


def test_as_int_point_and_as_real_point_reject_non_points():
    for bad in ([[1, 2], [3, 4]], np.zeros((2, 2)), 5):
        with pytest.raises(DomainError, match="expected a 1-d point"):
            as_int_point(bad)
    for bad in (["3", "1"], np.array(["3", "1"]), [True, False]):
        with pytest.raises(DomainError, match="cannot interpret dtype"):
            as_int_point(bad)
    with pytest.raises(DomainError, match="expected a 1-d point"):
        as_real_point(np.zeros((1, 2)))


def test_point_key_round_trip():
    key = point_key(np.array([4, -7], dtype=np.int64))
    assert key == (4, -7)
    assert all(isinstance(v, int) for v in key)


int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@derandomized
@given(st.lists(int64s, min_size=0, max_size=6))
def test_point_key_matches_the_numpy_form(coords):
    for x in (np.array(coords, dtype=np.int64), np.array(coords, dtype=float)):
        key = point_key(x)
        assert key == tuple(int(v) for v in x)
        assert all(type(v) is int for v in key)
