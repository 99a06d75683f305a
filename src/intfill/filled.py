"""Filled-function construction over integer boxes.

A filled function reshapes the landscape around the best lattice point
found so far (the *anchor*) so that a continuous local minimizer walks
away from the anchor's basin and into a region where the original
objective is lower. The construction here multiplies two ingredients:

* an inverse-square distance envelope ``1/(||x - anchor||^2 + 1) + 1``,
  which peaks at the anchor and decays toward 1, and
* a gate ``smoothed_step(smoothed_ramp(f(x) - f(anchor), r))`` that is
  1 where the objective is no better than the anchor, fades through a
  cubic blend as the objective drops below the anchor's value, and cuts
  to 0 once the improvement reaches the margin ``r``.

The product is 2 at the anchor, at most 1.5 at lattice neighbors of the
anchor, and 0 anywhere the objective improves on the anchor by ``r`` or
more, so minimizing it drains trajectories into improving regions.

For searches run in the continuous relaxation, ``AugmentedFilled`` adds
``|F(x)| * sum_i sin^2(pi x_i)``, a penalty that vanishes exactly on
the lattice and pushes minimizers toward integer coordinates; at a
lattice point it is not computed at all. Given a memo, ``AugmentedFilled``
remembers the values it computes, and a compass walk over the same memo
and the solver's D1, DC2 and bound checks reuse them without evaluating
the point again. The escape pass hands its
memo to the D1 check and to each candidate's first pass, none to a retry.
"""
from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from .core import IntPoint, ObjectiveFunction, ParameterError
from .core import as_real_point, check_numbers


_TINY = float(np.finfo(float).tiny)
ANCHOR_FILLED = 2.0  # the filled value at the anchor: envelope 2, gate 1
# Entries a memo keeps, the oldest dropped first. A solve keeps two memos
# under this bound, of filled values and of lattice objective values, so it
# bounds the memory that remembered values take.
_MEMO_SIZE = 4096


def smoothed_ramp(t: float, r: float) -> float:
    """Cubic blend from 0 (at and below ``-r``) into the line ``t + 1``.

    Zero for ``t <= -r``; equal to ``t + 1`` for ``t > 0``; in between a
    cubic with value/slope 0 at ``-r`` and value 1, slope 1 at 0, so the
    whole map is continuously differentiable. The blend is monotone only
    for ``r <= 3``: beyond that the cubic overshoots and dips below zero
    inside ``(-r, 0)``, with an interior critical point at
    ``-r^2 / (3 (r - 2))``.
    """
    if not 0.0 < r < math.inf:  # False for NaN too
        raise ParameterError(f"ramp margin must be positive and finite, got {r}")
    if t <= -r:
        return 0.0
    if t > 0.0:
        return t + 1.0
    r3 = r**3
    if r3 < _TINY:
        # Below r ~ 3e-103 the coefficients overflow or divide by zero;
        # the same cubic in t / r stays finite.
        s = t / r
        return (((r - 2.0) * s + 2.0 * r - 3.0) * s + r) * s + 1.0
    a = (r - 2.0) / r3
    b = (2.0 * r - 3.0) / r**2
    return ((a * t + b) * t + 1.0) * t + 1.0


def smoothed_step(t: float) -> float:
    """Cubic step: 0 for ``t <= 1/2``, 1 for ``t > 1``, C^1 blend between.

    The interior cubic ``-16 t^3 + 36 t^2 - 24 t + 5`` hits 0 at 1/2 and
    1 at 1 exactly (in floats too, via Horner evaluation) with zero slope
    at both seams.
    """
    if t <= 0.5:
        return 0.0
    if t > 1.0:
        return 1.0
    return ((-16.0 * t + 36.0) * t - 24.0) * t + 5.0


def lattice_penalty(x: np.ndarray) -> float:
    """``sum_i sin^2(pi x_i)``, computed to vanish exactly at integers.

    Evaluating ``sin(pi * (x - nearest integer))`` instead of
    ``sin(pi * x)`` gives the same value (the square kills the sign) but
    returns exact 0.0 on lattice points instead of float dust like
    ``sin(pi * 3) ~ 4e-16``. A NaN or +-inf coordinate gives NaN.
    """
    arr = as_real_point(x)
    if any(map(math.isinf, arr.tolist())):
        return math.nan  # what inf - rint(inf) gives, without its warning
    frac = arr - np.rint(arr)
    np.multiply(frac, np.pi, out=frac)
    np.sin(frac, out=frac)
    np.multiply(frac, frac, out=frac)
    return float(np.add.reduce(frac))  # np.sum without its Python dispatch


def filled_value(
    x: np.ndarray, anchor: np.ndarray, anchor_value: float, value_at_x: float, r: float
) -> float:
    """Envelope-times-gate filled value; pure function of its inputs."""
    diff = as_real_point(x) - anchor
    envelope = 1.0 / (float(diff.dot(diff)) + 1.0) + 1.0
    gate = smoothed_step(smoothed_ramp(value_at_x - anchor_value, r))
    return envelope * gate


@dataclasses.dataclass(frozen=True)
class FilledParams:
    """Margin schedule for the gate, one filled function per escape pass.

    Each candidate's first pass runs at ``r_max``; ``next_margin`` gives
    the margin of the next pass after one that fails to improve.
    """

    r_max: float = 1.0
    r_min: float = 1e-4
    shrink_factor: float = 0.1

    def __post_init__(self) -> None:
        check_numbers(self, "filled_params ")
        if not (0.0 < self.r_min <= self.r_max):
            raise ParameterError(
                f"need 0 < r_min <= r_max, got r_min={self.r_min} r_max={self.r_max}"
            )
        if not (0.0 < self.shrink_factor < 1.0):
            raise ParameterError(
                f"shrink factor must lie in (0, 1), got {self.shrink_factor}"
            )

    def next_margin(self, r: float, min_excess: float) -> float | None:
        """Margin for the retry after a failed pass at ``r``; None gives up.

        ``min_excess`` is the lowest ``f(x) - f(anchor)`` the pass saw. At
        or above 0 the gate was saturated at 1 along the whole pass, and
        any margin would replay it, so the candidate is given up. Otherwise
        the next margin is ``r * shrink_factor``, or the improvement the
        pass saw if that is smaller, so that the gate closes at that point;
        such a margin runs even below ``r_min``, which bounds only the blind
        geometric shrink.
        """
        if min_excess >= 0.0:
            return None
        seen = -min_excess
        r *= self.shrink_factor
        if seen < r:
            return seen
        return None if r < self.r_min else r


class InverseSquareFilled:
    """Counted filled function around a fixed anchor, at a fixed margin.

    ``raw`` charges one filled evaluation plus the embedded objective
    evaluation it performs, and keeps ``min_excess`` (``inf`` at first),
    the lowest ``f(x) - f(anchor)`` seen, for ``FilledParams.next_margin``,
    and ``excess``, that difference at the last point it evaluated.
    Its value at the anchor is ``ANCHOR_FILLED``.
    """

    def __init__(
        self,
        objective: ObjectiveFunction,
        anchor: IntPoint,
        anchor_value: float,
        r: float,
    ) -> None:
        if not 0.0 < r < math.inf:  # False for NaN too
            raise ParameterError(f"ramp margin must be positive and finite, got {r}")
        self.objective = objective
        self.anchor = np.asarray(anchor, dtype=np.int64)
        self._anchor_real = self.anchor.astype(float)
        self.anchor_value = float(anchor_value)
        self.r = float(r)
        self.min_excess = np.inf
        self.excess = math.nan  # no point evaluated yet

    def raw(self, x: np.ndarray) -> float:
        self.objective.counter.charge_filled()
        x = np.asarray(x, dtype=float)  # once, for the objective and the envelope
        fx = self.objective.embedded(x)
        self.excess = excess = fx - self.anchor_value
        if excess < self.min_excess:
            self.min_excess = excess
        return filled_value(x, self._anchor_real, self.anchor_value, fx, self.r)


class AugmentedFilled:
    """Filled value plus the lattice-attracting penalty.

    On lattice points the penalty term is exactly 0.0, so augmented and
    raw values agree bit for bit there. At a ``float64`` point with every
    coordinate integral, the raw value is returned without computing the
    penalty: ``raw + abs(raw) * 0.0 == raw`` for every value ``raw`` can
    take (finite or NaN), so skipping it changes no bit. Given a ``memo``,
    it stores each value with its excess ``f(x) - f(anchor)`` under the
    point's ``float64`` bytes, keeping the newest ``_MEMO_SIZE``, and
    ``recall`` reads them back. Only filled functions of one anchor, anchor
    value and margin may share a memo, and only if the objective gives the
    same value at the same point every time.
    """

    def __init__(
        self, base: InverseSquareFilled, memo: collections.OrderedDict | None = None
    ) -> None:
        self.base = base
        self.memo = memo

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)  # once, for the raw value and the penalty
        base = self.base
        value = base.raw(x)
        if not all(map(float.is_integer, x.tolist())):  # False for NaN and +-inf
            value += abs(value) * lattice_penalty(x)
        if (memo := self.memo) is not None:
            memo[x.tobytes()] = (value, base.excess)
            if len(memo) > _MEMO_SIZE:
                memo.popitem(last=False)
        return value

    def recall(self, key: bytes) -> float | None:
        """The value remembered at the ``float64`` point whose bytes are
        ``key``, or None. A hit charges nothing, and its excess counts
        toward ``min_excess`` as a new evaluation's would."""
        if self.memo is None or (hit := self.memo.get(key)) is None:
            return None
        value, excess = hit
        base = self.base
        if excess < base.min_excess:
            base.min_excess = excess
        return value


@dataclasses.dataclass(frozen=True)
class BoundCheck:
    """Outcome of the rounding-error safeguard after a continuous descent.

    When the filled value at the continuous minimizer ``x_c`` is
    nonzero, the squared distance from ``x_c`` to its nearest lattice
    point must stay below ``(F(anchor) - F(x_c)) / (4 |F(x_c)|)`` for
    rounding to be trustworthy. A zero filled value makes the bound
    vacuous and the check is skipped.
    """

    status: str  # "passed" | "failed" | "skipped"
    offset_sq: float
    limit: float
    anchor_filled: float
    point_filled: float


def rounding_error_check(
    anchor_filled: float, point_filled: float, x: np.ndarray
) -> BoundCheck:
    arr = as_real_point(x)
    delta = arr - np.rint(arr)
    offset_sq = float(delta.dot(delta))
    if point_filled == 0.0:
        return BoundCheck("skipped", offset_sq, np.inf, anchor_filled, point_filled)
    limit = (anchor_filled - point_filled) / (4.0 * abs(point_filled))
    status = "passed" if offset_sq < limit else "failed"
    return BoundCheck(status, offset_sq, limit, anchor_filled, point_filled)
