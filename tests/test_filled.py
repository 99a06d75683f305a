"""Tests for the filled-function construction and its safeguards."""
import collections
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import intfill.filled
from intfill.core import (
    BoxDomain,
    BudgetExhausted,
    EvalCounter,
    ObjectiveFunction,
    ParameterError,
)
from intfill.filled import (
    ANCHOR_FILLED,
    AugmentedFilled,
    FilledParams,
    InverseSquareFilled,
    filled_value,
    lattice_penalty,
    rounding_error_check,
    smoothed_ramp,
    smoothed_step,
)

R_VALUES = [1e-4, 0.1, 1.0, 10.0]
EPS = 1e-9


# ---------------------------------------------------------------- ramp


@pytest.mark.parametrize("r", R_VALUES)
def test_ramp_seam_values_exact(r):
    assert smoothed_ramp(-r, r) == 0.0
    assert smoothed_ramp(0.0, r) == 1.0


@pytest.mark.parametrize("r", R_VALUES)
def test_ramp_outer_pieces(r):
    assert smoothed_ramp(-r - 1.0, r) == 0.0
    assert smoothed_ramp(-5 * r, r) == 0.0
    assert smoothed_ramp(2.0, r) == 3.0
    assert smoothed_ramp(0.25, r) == 1.25


@pytest.mark.parametrize("r", R_VALUES)
def test_ramp_continuity_at_seams(r):
    for seam in (-r, 0.0):
        at = smoothed_ramp(seam, r)
        assert abs(smoothed_ramp(seam - EPS, r) - at) <= 1e-8
        assert abs(smoothed_ramp(seam + EPS, r) - at) <= 1e-8


@pytest.mark.parametrize("r", [1e-102, 1e-110, 1e-200])
def test_ramp_finite_where_cube_of_margin_underflows(r):
    assert smoothed_ramp(-r, r) == 0.0
    assert smoothed_ramp(0.0, r) == 1.0
    assert smoothed_ramp(-r / 2, r) == 0.5
    vals = [smoothed_ramp(-r * k / 16, r) for k in range(16, -1, -1)]
    assert np.all(np.diff(vals) >= 0.0)


def test_ramp_rejects_bad_margin():
    # A NaN or +inf margin once passed the ``r <= 0`` test, and the ramp
    # returned NaN.
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            smoothed_ramp(0.0, r)
        with pytest.raises(ParameterError):
            smoothed_ramp(-0.5, r)


@pytest.mark.parametrize("r", [1e-4, 0.1, 1.0, 3.0])
def test_ramp_monotone_for_small_margins(r):
    # The cubic bridge is nondecreasing only while r <= 3.
    ts = np.linspace(-r - 0.5, 0.5, 2001)
    vals = np.array([smoothed_ramp(t, r) for t in ts])
    assert np.all(np.diff(vals) >= 0.0)


def test_ramp_not_monotone_for_large_margin():
    # For r = 10 the bridge has an interior critical point at
    # t = -r^2 / (3 (r - 2)) = -25/6 and dips below the left limit 0,
    # so monotonicity genuinely fails for large margins.
    r = 10.0
    t_dip = -(r**2) / (3.0 * (r - 2.0))
    assert smoothed_ramp(t_dip, r) < smoothed_ramp(-r, r)
    assert smoothed_ramp(t_dip, r) < 0.0


# ---------------------------------------------------------------- step


def test_step_seam_and_outer_values():
    assert smoothed_step(0.5) == 0.0
    assert smoothed_step(1.0) == 1.0
    assert smoothed_step(0.0) == 0.0
    assert smoothed_step(-3.0) == 0.0
    assert smoothed_step(5.0) == 1.0


def test_step_interior_value():
    # -16 t^3 + 36 t^2 - 24 t + 5 at t = 3/4 is 1/2 by hand.
    assert smoothed_step(0.75) == pytest.approx(0.5, abs=1e-15)


def test_step_continuity_at_seams():
    for seam in (0.5, 1.0):
        at = smoothed_step(seam)
        assert abs(smoothed_step(seam - EPS) - at) <= 1e-8
        assert abs(smoothed_step(seam + EPS) - at) <= 1e-8


def test_step_monotone():
    ts = np.linspace(0.0, 1.5, 3001)
    vals = np.array([smoothed_step(t) for t in ts])
    assert np.all(np.diff(vals) >= 0.0)


# ---------------------------------------------------------------- penalty


def test_lattice_penalty_exact_zero_on_integers():
    for pt in ([0, 0], [3, -7], [100], [-5, 5, 12, -1]):
        assert lattice_penalty(np.array(pt, dtype=float)) == 0.0


@pytest.mark.parametrize(
    "point", [[np.inf, 0.5], [1.0, -np.inf], [np.inf, -np.inf], [np.nan, 0.5]]
)
def test_lattice_penalty_is_nan_without_a_warning_off_the_reals(point):
    # The suite turns a RuntimeWarning into an error, so this also checks
    # that inf - rint(inf) is never computed.
    assert np.isnan(lattice_penalty(np.array(point)))


def test_lattice_penalty_half_offsets():
    assert lattice_penalty(np.array([0.5])) == 1.0
    assert lattice_penalty(np.array([2.5, -3.5])) == 2.0
    assert lattice_penalty(np.array([0.25, -0.25])) == pytest.approx(1.0, abs=1e-15)


def test_lattice_penalty_matches_the_plain_expression():
    # n up to 12 crosses numpy's 8-element pairwise-sum block; dyadic
    # offsets hit exact sines and ties of rint.
    rng = np.random.default_rng(20)
    for n in range(1, 13):
        for scale in (0.5, 3.0, 1e6):
            for _ in range(200):
                x = rng.normal(scale=scale, size=n)
                if rng.random() < 0.3:
                    x = np.round(x * 8) / 8
                frac = x - np.rint(x)
                s = np.sin(np.pi * frac)
                assert lattice_penalty(x) == float(np.sum(s * s)), x.tolist()


def test_lattice_penalty_invariant_to_integer_shift():
    x = np.array([0.3, -0.8])
    shifted = x + np.array([4.0, -9.0])
    assert lattice_penalty(x) == pytest.approx(lattice_penalty(shifted), abs=1e-12)


# ---------------------------------------------------------------- filled value


def test_filled_value_at_anchor_is_two():
    anchor = np.array([2, -1])
    for r in R_VALUES:
        assert filled_value(anchor.astype(float), anchor, 5.0, 5.0, r) == 2.0


def test_filled_value_distant_worse_point():
    # Distance^2 = 99 and a worse value saturate the gate at 1:
    # F = 1/(99+1) + 1 = 1.01 exactly.
    anchor = np.zeros(2)
    x = np.array([np.sqrt(99.0), 0.0])
    assert filled_value(x, anchor, 0.0, 5.0, 1.0) == 1.01


def test_filled_value_unit_neighbor_envelope():
    anchor = np.zeros(2)
    x = np.array([1.0, 0.0])
    assert filled_value(x, anchor, 0.0, 7.0, 1.0) == 1.5


def test_filled_value_vanishes_once_improvement_exceeds_margin():
    anchor = np.zeros(2)
    x = np.array([3.0, 4.0])
    for r in R_VALUES:
        assert filled_value(x, anchor, 10.0, 10.0 - 2 * r, r) == 0.0
    # Halfway down the ramp the step still clips to zero:
    # ramp(-1/2, 1) = 0.375 <= 1/2.
    assert filled_value(x, anchor, 10.0, 9.5, 1.0) == 0.0


def test_filled_value_between_gate_levels():
    anchor = np.zeros(2)
    x = np.array([1.0, 1.0])
    envelope = 1.0 / 3.0 + 1.0
    v = filled_value(x, anchor, 10.0, 9.9, 1.0)
    assert 0.0 < v < envelope


# ---------------------------------------------------------------- counted wrappers


def make_objective(func=None, lo=-5, hi=5, n=2):
    func = func or (lambda x: float(x @ x))
    box = BoxDomain(np.array([lo] * n), np.array([hi] * n))
    return ObjectiveFunction(func, box, EvalCounter())


def test_raw_at_the_anchor_is_the_anchor_filled_constant():
    # The D1 and bound checks read ANCHOR_FILLED instead of evaluating the
    # anchor; evaluating it gives the same value, charged as any point is.
    anchor = np.array([1, -2])
    for r in R_VALUES:
        obj = make_objective()
        ff = InverseSquareFilled(obj, anchor, obj(anchor), r)
        assert ff.raw(anchor) == ANCHOR_FILLED
        assert (obj.counter.n_fu, obj.counter.n_fill) == (2, 1)


def test_inverse_square_raw_charges_both_counters():
    obj = make_objective()
    ff = InverseSquareFilled(obj, np.array([0, 0]), 0.0, 1.0)
    v = ff.raw(np.array([1.0, 0.0]))
    assert v == 1.5
    assert (obj.counter.n_fu, obj.counter.n_fill) == (1, 1)


def test_inverse_square_rejects_bad_margin():
    obj = make_objective()
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            InverseSquareFilled(obj, np.array([0, 0]), 0.0, r)


def test_min_excess_tracking():
    obj = make_objective()
    ff = InverseSquareFilled(obj, np.array([1, 1]), 2.0, 1.0)
    assert ff.min_excess == np.inf
    ff.raw(np.array([2.0, 1.0]))  # f = 5, excess 3
    assert ff.min_excess == 3.0
    ff.raw(np.array([0.0, 0.0]))  # f = 0, excess -2
    assert ff.min_excess == -2.0


def test_augmented_equals_raw_on_lattice():
    obj = make_objective()
    ff = InverseSquareFilled(obj, np.array([0, 0]), 0.0, 1.0)
    wrapped = AugmentedFilled(ff)
    for pt in ([2, 3], [-5, 5], [1, 0], [-4, -4]):
        x = np.array(pt, dtype=float)
        assert wrapped(x) == ff.raw(x)


def _fast_and_float_paths(point, value, anchor_value, r):
    """Bits of the augmented value, counters and ``min_excess``: int64
    array, float64 array, and a list of Python ints."""
    box = BoxDomain(np.full(len(point), -5), np.full(len(point), 5))
    out = []
    for arg in (np.array(point), np.array(point, dtype=float), list(point)):
        obj = ObjectiveFunction(lambda x: value, box, EvalCounter())
        ff = InverseSquareFilled(obj, np.zeros(len(point), dtype=np.int64), anchor_value, r)
        v = AugmentedFilled(ff)(arg)
        bits = struct.pack("<dd", v, ff.min_excess)
        out.append((bits, obj.counter.n_fu, obj.counter.n_fill))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-10.0, 10.0),
    st.sampled_from([1e-4, 0.5, 1.0, 10.0]),
)
@example([1, 2], float("nan"), 0.0, 1.0)
@example([0, -3], float("inf"), 0.0, 1.0)
@example([4], float("-inf"), 0.0, 1.0)
@example([2, 2], -1.0, 0.0, 1.0)  # improvement beyond the margin: value 0.0
def test_augmented_lattice_fast_path_is_bit_identical(point, value, anchor_value, r):
    # The three arguments are one float64 lattice point, which skips the penalty.
    fast, slow, listed = _fast_and_float_paths(point, value, anchor_value, r)
    assert fast == slow == listed
    assert (fast[1], fast[2]) == (1, 1)


@pytest.mark.parametrize(
    "point, penalties",
    [
        ([2.0, -3.0], 0),
        ([-0.0, 4.0], 0),
        ([2.0**60, -(2.0**60)], 0),
        ([0.5, 0.0], 1),
        ([np.nan, 1.0], 1),
        ([np.inf, 1.0], 1),
        ([1.0, -np.inf], 1),
    ],
)
def test_augmented_skips_the_penalty_only_where_every_coordinate_is_integral(
    monkeypatch, point, penalties
):
    calls = []

    def counted(x):
        calls.append(x)
        return lattice_penalty(x)

    monkeypatch.setattr(intfill.filled, "lattice_penalty", counted)
    obj = make_objective(lambda x: 1.0)
    wrapped = AugmentedFilled(InverseSquareFilled(obj, np.array([0, 0]), 0.0, 1.0))
    wrapped(np.array(point))
    assert len(calls) == penalties


def test_augmented_fast_path_covers_zero_filled_value():
    (bits, _, _), _, _ = _fast_and_float_paths([2, 2], -1.0, 0.0, 1.0)
    assert struct.unpack("<dd", bits)[0] == 0.0


def test_augmented_half_offset_doubles_value():
    # At (0.5, 0) the penalty is exactly 1, the envelope is
    # 1/(1/4 + 1) + 1 = 1.8 and the gate is saturated, so the
    # augmented value is exactly twice the raw one.
    obj = make_objective()
    ff = InverseSquareFilled(obj, np.array([0, 0]), 0.0, 1.0)
    wrapped = AugmentedFilled(ff)
    x = np.array([0.5, 0.0])
    assert ff.raw(x) == 1.8
    assert wrapped(x) == 2 * 1.8


# ---------------------------------------------------------------- memo


def test_recall_folds_a_negative_stored_excess_into_min_excess():
    # Another pass at the same margin reads the value the first pass
    # computed, charges nothing, and sees the same improvement, so
    # FilledParams.next_margin gets the same min_excess from it.
    obj = make_objective()
    anchor = np.array([2, 2])
    memo = collections.OrderedDict()
    first = AugmentedFilled(InverseSquareFilled(obj, anchor, 2.0, 1.0), memo)
    x = np.array([0.5, 1.0])  # f = 1.25, excess -0.75
    value = first(x)
    assert first.base.min_excess == -0.75
    charged = obj.counter.total()
    second = AugmentedFilled(InverseSquareFilled(obj, anchor, 2.0, 1.0), memo)
    assert second.recall(x.tobytes()) == value
    assert second.base.min_excess == -0.75
    assert obj.counter.total() == charged
    # A pass without a memo remembers nothing.
    assert AugmentedFilled(second.base).recall(x.tobytes()) is None


def test_the_memo_keeps_its_newest_entries_up_to_its_bound(monkeypatch):
    monkeypatch.setattr(intfill.filled, "_MEMO_SIZE", 3)
    obj = make_objective()
    memo = collections.OrderedDict()
    wrapped = AugmentedFilled(InverseSquareFilled(obj, np.array([0, 0]), 0.0, 1.0), memo)
    points = [np.array([float(k), 0.5]) for k in range(5)]
    for k, x in enumerate(points):
        wrapped(x)
        assert len(memo) == min(k + 1, 3)
    assert [wrapped.recall(x.tobytes()) is None for x in points] == [
        True, True, False, False, False
    ]


@pytest.mark.parametrize("limit", [0, 1])
def test_an_evaluation_cut_by_the_budget_stores_nothing(limit):
    # limit 0 stops the filled charge, limit 1 the embedded objective's.
    obj = make_objective()
    obj.counter.limit = limit
    memo = collections.OrderedDict()
    wrapped = AugmentedFilled(InverseSquareFilled(obj, np.array([0, 0]), 0.0, 1.0), memo)
    with pytest.raises(BudgetExhausted):
        wrapped(np.array([1.5, 0.0]))
    assert not memo


# ---------------------------------------------------------------- params


def test_filled_params_defaults_and_validation():
    p = FilledParams()
    assert (p.r_max, p.r_min, p.shrink_factor) == (1.0, 1e-4, 0.1)
    with pytest.raises(ParameterError):
        FilledParams(r_max=0.0)
    with pytest.raises(ParameterError):
        FilledParams(r_min=2.0, r_max=1.0)
    with pytest.raises(ParameterError):
        FilledParams(shrink_factor=1.0)
    with pytest.raises(ParameterError):
        FilledParams(shrink_factor=0.0)


@pytest.mark.parametrize("field", ["r_max", "r_min", "shrink_factor"])
@pytest.mark.parametrize(
    "value", ["0.5", True, float("inf"), None, pytest.param(10**400, id="10**400")]
)
def test_filled_params_rejects_values_that_are_not_finite_numbers(field, value):
    message = f"filled_params {field} must be a finite number"
    with pytest.raises(ParameterError, match=message):
        FilledParams(**{field: value})


@pytest.mark.parametrize("min_excess", [0.0, 2.5, np.inf])
def test_next_margin_gives_up_after_a_saturated_pass(min_excess):
    # No point of the pass beat the anchor, so any margin replays it.
    assert FilledParams().next_margin(1.0, min_excess) is None


@pytest.mark.parametrize("min_excess,margin", [(-0.05, 0.05), (-1e-7, 1e-7)])
def test_next_margin_closes_the_gate_at_a_seen_improvement(min_excess, margin):
    # Smaller than 1.0 * shrink_factor, so the gate closes at that point;
    # 1e-7 runs even though it is below r_min.
    assert FilledParams().next_margin(1.0, min_excess) == margin


def test_next_margin_gives_up_when_the_shrink_drops_below_r_min():
    assert FilledParams().next_margin(1e-4, -0.5) is None


def test_next_margin_plain_shrink():
    params = FilledParams()
    assert params.next_margin(1.0, -0.5) == 0.1
    assert params.next_margin(0.1, -0.1) == 0.1 * 0.1
    assert FilledParams(shrink_factor=0.5).next_margin(1.0, -3.0) == 0.5


def test_next_margin_treats_nan_excess_as_no_seen_improvement():
    # NaN compares false both ways: the pass is not taken as saturated,
    # and the geometric shrink applies, bounded by r_min as usual.
    params = FilledParams()
    assert params.next_margin(1.0, np.nan) == 0.1
    assert params.next_margin(1e-4, np.nan) is None


# ---------------------------------------------------------------- bound check


def test_bound_check_zero_anchor_case():
    # With F(anchor) = 0 and F(x) = -1 the limit specializes to 1/4.
    check = rounding_error_check(0.0, -1.0, np.array([0.1, 0.2]))
    assert check.limit == 0.25
    assert check.offset_sq == pytest.approx(0.05, abs=1e-15)
    assert check.status == "passed"
    bad = rounding_error_check(0.0, -1.0, np.array([0.4, 0.4]))
    assert bad.status == "failed"


def test_bound_check_general_case():
    check = rounding_error_check(2.0, -1.0, np.array([0.3, -0.2]))
    assert check.limit == 0.75
    assert check.status == "passed"


def test_bound_check_skipped_at_zero_filled_value():
    check = rounding_error_check(2.0, 0.0, np.array([0.9, 0.9]))
    assert check.status == "skipped"
    assert check.limit == np.inf


def test_bound_check_offsets_are_nearest_integer():
    # 0.6 is 0.4 away from its nearest integer 1, not 0.6 from 0.
    check = rounding_error_check(2.0, 1.0, np.array([0.6]))
    assert check.offset_sq == pytest.approx(0.16, abs=1e-15)


# ---------------------------------------------------------------- dot products


@pytest.mark.parametrize("n", range(1, 31))
def test_envelope_and_bound_check_dots_are_the_matmul_bit_for_bit(n):
    # filled_value and rounding_error_check take their squared norms with
    # ndarray.dot, the BLAS routine @ calls, without matmul's dispatch. Each
    # must still give the value the @ form gives, to the last bit.
    rng = np.random.default_rng(n)
    scales = 10.0 ** rng.uniform(-6, 6, (200, 1))
    points = rng.standard_normal((200, n)) * scales
    anchors = rng.integers(-50, 51, (200, n)).astype(float)
    for x, anchor, fx in zip(points, anchors, rng.standard_normal(200)):
        diff = x - anchor
        assert float(diff.dot(diff)).hex() == float(diff @ diff).hex(), "envelope dot"
        gate = smoothed_step(smoothed_ramp(fx - 0.5, 1.0))
        want = (1.0 / (float(diff @ diff) + 1.0) + 1.0) * gate
        assert filled_value(x, anchor, 0.5, fx, 1.0).hex() == want.hex(), "envelope"
        for y in (x, anchor + x / scales.max()):  # far from and near the lattice
            delta = y - np.rint(y)
            got = rounding_error_check(2.0, 1.0, y).offset_sq
            assert got.hex() == float(delta @ delta).hex(), "bound check"
