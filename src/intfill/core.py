"""Primitives for optimization over integer boxes.

This module owns everything the rest of the package assumes about the
search space: the box domain, the rounding map from real vectors to
lattice points, unit-step neighborhoods, and the evaluation accounting
used to enforce budgets.

Conventions:

* Lattice points are 1-d ``numpy`` arrays of dtype ``int64``.
* A box is the set of integer vectors ``x`` with
  ``lower[i] <= x[i] <= upper[i]`` in every coordinate.
* The neighborhood of ``x`` is ``x`` plus/minus one unit vector per
  axis, intersected with the box, together with ``x`` itself. It is
  scanned in the order -e1, +e1, -e2, +e2, ..., then ``x``, and every
  deterministic tie-break in the package follows that order.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from typing import Callable, Iterator, Sequence

import numpy as np

IntPoint = np.ndarray
RealPoint = np.ndarray


class DomainError(ValueError):
    """A point lies outside the domain (off-lattice or out of bounds)."""


class ParameterError(ValueError):
    """A configuration value is malformed or out of range."""


class BudgetExhausted(RuntimeError):
    """Raised before an evaluation that would exceed the budget."""


def as_int_point(x: Sequence[int] | np.ndarray) -> IntPoint:
    """Coerce ``x`` to an int64 lattice point.

    Float entries must be integral, and every entry must fit in int64.
    """
    # Python ints first: numpy turns a list holding one outside int64
    # into float64 or object entries and loses which one it was.
    for v in x if isinstance(x, (list, tuple)) else ():
        if isinstance(v, int) and not -(2**63) <= v < 2**63:
            raise DomainError(f"coordinate {v!r} of {x!r} does not fit in int64")
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-d point, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or not np.all(arr == np.floor(arr)):
            raise DomainError(f"non-integral coordinates in {arr!r}")
    elif arr.dtype.kind not in "iu":
        raise DomainError(f"cannot interpret dtype {arr.dtype} as lattice point")
    for v in arr.tolist():
        if not -(2**63) <= v < 2**63:
            raise DomainError(f"coordinate {v!r} of {x!r} does not fit in int64")
    return arr.astype(np.int64)


def as_real_point(x: Sequence[float] | np.ndarray) -> RealPoint:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-d point, got shape {arr.shape}")
    return arr


def check_number(value: object, name: str, count: bool = False) -> None:
    """``ParameterError`` unless ``value`` is an int (``count``) or a finite number."""
    ok = isinstance(value, numbers.Integral if count else numbers.Real)
    # A bool is neither; a count may exceed the float range, a number may not.
    ok = ok and (count or abs(value) <= 1.7976931348623157e308)  # the float max
    if not ok or isinstance(value, bool):
        want = "an int" if count else "a finite number"
        raise ParameterError(f"{name} must be {want}, got {value!r}")


def check_numbers(settings: object, prefix: str = "") -> None:
    """``check_number`` on each ``int`` and ``float`` field of a dataclass."""
    for f in dataclasses.fields(settings):
        if f.type in ("int", "float"):  # annotations are strings here
            check_number(getattr(settings, f.name), prefix + f.name, f.type == "int")


def point_key(x: np.ndarray) -> tuple[int, ...]:
    """Hashable identity of a lattice point, for visit sets and dicts."""
    return tuple(map(int, np.asarray(x).tolist()))


@dataclasses.dataclass(frozen=True)
class BoxDomain:
    """Integer box ``{x in Z^n : lower <= x <= upper}``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = as_int_point(self.lower)
        hi = as_int_point(self.upper)
        if lo.shape != hi.shape:
            raise ParameterError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ParameterError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return int(self.lower.shape[0])

    def contains(self, x: np.ndarray) -> bool:
        """Exact lattice membership; any non-integral entry (NaN, +-inf) gives
        False, and so does an array that is not bool, numeric or object, such
        as a complex or str one."""
        arr = np.asarray(x)
        if arr.shape != self.lower.shape or arr.dtype.kind not in "biufO":
            return False
        xs = arr.tolist()
        lo, hi = self.lower, self.upper
        if arr.dtype.kind == "f":
            if not all(v.is_integer() for v in xs):
                return False
            lo, hi = lo.astype(float), hi.astype(float)  # as numpy compares them
        elif arr.dtype.kind == "O":
            with np.errstate(invalid="ignore"):  # a numpy scalar's inf // 1 warns
                if not all(v == v // 1 for v in xs):  # NaN for NaN and +-inf
                    return False
        return all(a <= v <= b for a, v, b in zip(lo.tolist(), xs, hi.tolist()))

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project onto the box, preserving integer or float dtype.

        Bit for bit ``np.clip(x, lower, upper)``: NaN passes through and
        a signed zero tied with a bound becomes the bound; two ufunc
        calls skip ``np.clip``'s Python-level dispatch.
        """
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def feasible_size(self) -> int:
        # Python ints: side products overflow int64 already at n ~ 10.
        sides = (int(hi) - int(lo) + 1 for lo, hi in zip(self.lower, self.upper))
        return math.prod(sides)

    def random_point(self, rng: np.random.Generator) -> IntPoint:
        return rng.integers(self.lower, self.upper, endpoint=True, dtype=np.int64)

    def iter_points(self) -> Iterator[IntPoint]:
        """Lexicographic enumeration of every lattice point in the box."""
        ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(self.lower, self.upper)]
        return (np.array(p, dtype=np.int64) for p in itertools.product(*ranges))


def round_point(x: np.ndarray) -> IntPoint:
    """Round a real vector to the lattice, coordinate by coordinate.

    Integral coordinates pass through. A non-integral coordinate ``t``
    maps to ``floor(t + t / (2|t|))``. For positive ``t`` this is
    round-half-away-from-zero; for negative ``t`` the floor always
    steps down, so magnitudes grow: -0.4 -> -1 and -2.6 -> -4.

    The result can leave a box even when ``x`` was inside it: with
    lower bound -5, the in-bounds value -4.6 rounds to -6. Clamping is
    the caller's responsibility and is deliberately a separate
    operation. A coordinate outside int64 saturates at its bound: the
    float64 image of ``2**63 - 1``, ``2.0**63``, gives ``2**63 - 1``.
    The input must be a 1-d point: a 0-d or 2-d one is a ``DomainError``.
    """
    arr = as_real_point(x)
    if not all(map(math.isfinite, xs := arr.tolist())):
        raise DomainError(f"cannot round non-finite vector {arr!r}")
    ints = (
        int(t) if t.is_integer() else math.floor(t + (0.5 if t > 0.0 else -0.5))
        for t in xs
    )
    return np.array([min(max(v, -(2**63)), 2**63 - 1) for v in ints], dtype=np.int64)


def neighborhood(x: IntPoint, box: BoxDomain) -> list[IntPoint]:
    """Feasible unit-step neighbors of ``x``, a point of the box, in scan
    order, then ``x``. Bounds are tested in Python ints: no step wraps."""
    center = np.array(x, dtype=np.int64, copy=True)
    bounds = zip(center.tolist(), box.lower.tolist(), box.upper.tolist())
    pts: list[IntPoint] = []
    for i, (v, lo, hi) in enumerate(bounds):
        for w in (v - 1, v + 1):
            if lo <= w <= hi:
                y = center.copy()
                y[i] = w
                pts.append(y)
    pts.append(center)
    return pts


def neighborhood_argmin(
    f: Callable[[IntPoint], float], x: IntPoint, box: BoxDomain
) -> tuple[IntPoint, float]:
    """Minimizer of ``f`` over the neighborhood of ``x`` (including ``x``).

    Ties keep the earliest point in scan order; the center is scanned
    last, so a neighbor matching the center's value wins the tie. Raises
    ``DomainError`` when every value in the neighborhood is NaN or +inf.
    """
    best: IntPoint | None = None
    best_val = np.inf
    for p in neighborhood(x, box):
        v = float(f(p))
        if v < best_val:
            best, best_val = p, v
    if best is None:
        raise DomainError(f"every value around {point_key(x)} is NaN or +inf")
    return best, best_val


def is_discrete_local_min(
    f: Callable[[IntPoint], float], x: IntPoint, box: BoxDomain
) -> bool:
    """True when no feasible unit step strictly improves ``f``."""
    fx = float(f(x))
    for p in neighborhood(x, box)[:-1]:
        if float(f(p)) < fx:
            return False
    return True


@dataclasses.dataclass
class EvalCounter:
    """Tallies objective and filled-function evaluations against a budget.

    ``limit`` bounds the *total* count. The check runs before the
    increment: an evaluation that would start at or past the limit
    raises ``BudgetExhausted`` and is not performed, which keeps runs
    deterministic under any budget.
    """

    n_fu: int = 0
    n_fill: int = 0
    limit: int | None = None

    def total(self) -> int:
        return self.n_fu + self.n_fill

    def _exhausted(self) -> BudgetExhausted:
        return BudgetExhausted(
            f"evaluation budget of {self.limit} reached "
            f"(n_fu={self.n_fu}, n_fill={self.n_fill})"
        )

    def charge_objective(self) -> None:
        if self.limit is not None and self.n_fu + self.n_fill >= self.limit:
            raise self._exhausted()
        self.n_fu += 1

    def charge_filled(self) -> None:
        if self.limit is not None and self.n_fu + self.n_fill >= self.limit:
            raise self._exhausted()
        self.n_fill += 1


class ObjectiveFunction:
    """Counted, domain-checked view of a raw objective.

    Calling it evaluates the objective at a lattice point, validating
    membership. ``relaxed`` takes a real vector and skips domain checks
    (callers keep iterates inside the box). ``embedded``, the evaluation
    inside each filled value, is ``relaxed`` under a second name, so a
    profiler can count the two apart. Each charges ``counter.n_fu``,
    the rule the constant ``count_in_filled`` states.
    """

    count_in_filled = True

    def __init__(
        self,
        func: Callable[[np.ndarray], float],
        box: BoxDomain,
        counter: EvalCounter,
    ) -> None:
        self.func = func
        self.box = box
        self.counter = counter

    def __call__(self, x: IntPoint) -> float:
        if not self.box.contains(x):
            raise DomainError(f"{np.asarray(x)!r} is not a feasible lattice point")
        self.counter.charge_objective()
        return float(self.func(np.asarray(x, dtype=np.int64)))

    def relaxed(self, x: np.ndarray) -> float:
        """Continuous-relaxation evaluation; always charged."""
        self.counter.charge_objective()
        return float(self.func(np.asarray(x, dtype=float)))

    embedded = relaxed
