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
    axis_directions,
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


def test_box_contains_real_is_bounds_only():
    box = box2()
    assert box.contains_real(np.array([0.5, -4.9]))
    assert not box.contains_real(np.array([5.1, 0.0]))
    assert not box.contains_real(np.array([np.nan, 0.0]))


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


def test_axis_directions_order():
    dirs = [tuple(d) for d in axis_directions(2)]
    assert dirs == [(-1, 0), (1, 0), (0, -1), (0, 1)]


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


def test_objective_embedded_charge_follows_flag():
    box = box2()
    c = EvalCounter()
    obj = ObjectiveFunction(lambda x: float(x.sum()), box, c, count_in_filled=True)
    obj.embedded(np.array([0.5, 0.5]))
    assert c.n_fu == 1
    obj.count_in_filled = False
    obj.embedded(np.array([0.5, 0.5]))
    assert c.n_fu == 1


# ---------------------------------------------------------------- conversions


def test_as_int_point_rejects_fractional():
    np.testing.assert_array_equal(as_int_point([3, -2]), np.array([3, -2]))
    np.testing.assert_array_equal(as_int_point(np.array([3.0, -2.0])), [3, -2])
    with pytest.raises(DomainError):
        as_int_point(np.array([0.5, 1.0]))


def test_point_key_round_trip():
    key = point_key(np.array([4, -7], dtype=np.int64))
    assert key == (4, -7)
    assert all(isinstance(v, int) for v in key)
