"""Local search drivers, continuous and discrete.

The continuous minimizers work on real vectors inside the box and never
step outside it: candidate points are projected before evaluation, and
finite-difference probes are clamped with the actual spread in the
denominator. Both are deterministic: same function, same start, same
settings, same result. That determinism is a contract the solver relies
on and `verify_descent_contract` spot-checks. Both are frozen dataclasses,
checked once when built, and end ``"budget"`` after ``_MAX_ITERATIONS``.

The discrete driver is plain steepest descent on the unit-step
neighborhood with a fixed scan order for ties.
"""
from __future__ import annotations

import collections
import dataclasses
import math
from typing import Callable

import numpy as np

from .core import (
    BoxDomain,
    IntPoint,
    ParameterError,
    as_real_point,
    check_numbers,
    neighborhood,
)
from .filled import _MEMO_SIZE

Objective = Callable[[np.ndarray], float]

# L-BFGS-B's relative-reduction tolerance: factr = 1e7 times machine epsilon.
_FTOL = 2.220446049250313e-09
# Fixed QuasiNewton settings: central-difference step relative to
# max(1, |x_i|), projected-gradient tolerance, Armijo constant, backtracking
# factor and count, and the failed line searches in a row that end a run.
_GRAD_STEP = 1e-6
_GRAD_TOL = 1e-6
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 50
_MAX_LINE_FAILURES = 5
# Fixed CompassSearch settings: the first step length and each shrink's factor.
_INITIAL_STEP = 1.0
_SHRINK = 0.5
# Rounds of either minimizer before a run ends "budget".
_MAX_ITERATIONS = 10_000


@dataclasses.dataclass
class SearchTrace:
    """Outcome of one minimizer run: start and final values, accepted steps."""

    start_value: float
    final_value: float
    accepted_steps: int
    termination: str
    n_evaluations: int


def _projected_step(xs: list, t: float, ds: list, lo: list, hi: list) -> list:
    """``BoxDomain.clamp(x + t * d)`` in Python floats, bit for bit: NaN
    passes through and a signed zero tied with a bound becomes the bound."""
    return [
        l if (yi := xi + t * di) <= l else h if yi >= h else yi
        for xi, di, l, h in zip(xs, ds, lo, hi)
    ]


def _no_recall(key: bytes) -> None:
    """``recall`` of a function that remembers nothing."""
    return None


@dataclasses.dataclass(frozen=True)
class CompassSearch:
    """Pattern search polling the 2n axis directions.

    Each round evaluates every axis poll at the current step length,
    first ``_INITIAL_STEP``, and moves to the best strictly improving
    one; if none improves, the step shrinks by ``_SHRINK``. A successful
    round multiplies the step by ``expand``, capped at the widest extent
    of the box; the default 1 keeps the step fixed, and an integer factor
    keeps every poll of a lattice start on the lattice until the first
    shrink. A walk whose ``step_tol`` exceeds ``_SHRINK`` would end at
    the first shrink of a unit step anyway: it is a walk on the lattice,
    and it ends ``"converged"`` at any shrink to a step that is not a
    whole number, so from a lattice start with an integer ``expand`` it
    polls lattice points only. The iterate, each point passed to ``fn``
    and the returned point are ``float64``. A poll at a point the call
    already evaluated, such as one that projects back onto the current
    point at a face of the box, is skipped while the call remembers it:
    each distinct point among the last 8,192 (``filled._MEMO_SIZE``)
    reaches ``fn`` at most once, and older ones are forgotten, first in,
    first out. If ``fn`` has a ``recall`` method, as the solver's filled
    functions do, the start and each poll first ask
    ``fn.recall(x.tobytes())`` for a value ``fn`` already computed. A
    value it returns is used without calling ``fn`` and is not counted
    in ``n_evaluations``.
    """

    expand: float = 1.0
    step_tol: float = 1e-6

    def __post_init__(self) -> None:
        check_numbers(self, "compass option ")
        if self.step_tol <= 0 or self.expand < 1:
            raise ParameterError(f"bad compass options: {self}")

    def minimize(
        self, fn: Objective, x0: np.ndarray, box: BoxDomain
    ) -> tuple[np.ndarray, SearchTrace]:
        x = box.clamp(as_real_point(x0))
        step = _INITIAL_STEP
        lo = box.lower.astype(float).tolist()
        hi = box.upper.astype(float).tolist()
        recall = getattr(fn, "recall", _no_recall)
        key = x.tobytes()
        nev, steps = 0, 0
        if (fx := recall(key)) is None:
            fx, nev = float(fn(x)), 1
        start_value = fx
        xs = x.tolist()
        # fx only falls, so every value seen is >= fx or NaN: a repeated
        # point cannot improve. Only the last _MEMO_SIZE keys are kept, the
        # oldest dropped first through the deque in O(1), so a walk of any
        # length holds bounded memory; a forgotten point is evaluated again.
        seen, order = {key}, collections.deque((key,))
        # A poll is base with one coordinate moved and clamped in Python
        # floats: bit for bit the clamp of x + step * d, which also turns a
        # -0.0 of the start into 0.0. An accepted poll holds no -0.0.
        base = x + 0.0
        # Python ints: an int64 difference wraps for boxes wider than 2**63.
        extents = (u - l for l, u in zip(box.lower.tolist(), box.upper.tolist()))
        widest = float(max(extents, default=0))
        termination = "budget"
        for _ in range(_MAX_ITERATIONS):
            if step < self.step_tol:
                termination = "converged"
                break
            best: np.ndarray | None = None
            best_val = fx
            for i, (xi, l, h) in enumerate(zip(xs, lo, hi)):
                for yi in (xi - step, xi + step):
                    yi = l if yi < l else h if yi > h else yi
                    if yi == xi:  # projected back onto x: skip before keying
                        continue
                    y = base.copy()
                    y[i] = yi
                    key = y.tobytes()
                    if key in seen:
                        continue
                    seen.add(key)
                    order.append(key)
                    if len(order) > _MEMO_SIZE:
                        seen.remove(order.popleft())
                    if (v := recall(key)) is None:
                        v = float(fn(y))
                        nev += 1
                    if v < best_val:
                        best, best_val = y, v
            if best is None:
                step *= _SHRINK
                if self.step_tol > _SHRINK and not step.is_integer():
                    termination = "converged"  # the next polls leave the lattice
                    break
            else:
                x = base = best
                fx, xs = best_val, x.tolist()
                steps += 1
                step = min(step * self.expand, max(step, widest))
        return x, SearchTrace(start_value, fx, steps, termination, nev)


@dataclasses.dataclass(frozen=True)
class QuasiNewton:
    """BFGS with projected iterates and finite-difference gradients.

    Gradients use central differences with per-coordinate step
    ``_GRAD_STEP * max(1, |x_i|)``; probe points are clamped to the box
    and the actual probe spread divides the difference. The inverse
    Hessian is rescaled once after the first accepted step, updated only
    when curvature is positive, and reset whenever the model direction
    fails to descend. A run ends ``"converged"`` when one of two tests
    passes, as in L-BFGS-B: the projected gradient is at most
    ``_GRAD_TOL`` in every coordinate, or an accepted step between finite
    values lowers f by at most ``_FTOL * max(|f_old|, |f_new|, 1)``
    (relative reduction, L-BFGS-B's ``factr = 1e7`` test).
    It ends ``"non_finite"`` at a gradient that is not finite, or whose
    slope ``g . d`` along the search direction is not,
    ``"line_search_failure"`` after ``_MAX_LINE_FAILURES`` consecutive
    failed line searches, and ``"budget"`` after ``_MAX_ITERATIONS``.
    """

    def _gradient(
        self, fn: Objective, x: np.ndarray, lo: list[float], hi: list[float]
    ) -> tuple[np.ndarray, int]:
        g = np.zeros(x.shape[0])
        nev = 0
        for i, xi in enumerate(x.tolist()):
            h = _GRAD_STEP * max(1.0, abs(xi))
            up = min(xi + h, hi[i])
            dn = max(xi - h, lo[i])
            spread = up - dn
            if spread == 0.0:
                continue
            xp = x.copy()
            xp[i] = up
            xm = x.copy()
            xm[i] = dn
            g[i] = (float(fn(xp)) - float(fn(xm))) / spread
            nev += 2
        return g, nev

    def minimize(
        self, fn: Objective, x0: np.ndarray, box: BoxDomain
    ) -> tuple[np.ndarray, SearchTrace]:
        x = box.clamp(as_real_point(x0))
        fx = start_value = float(fn(x))
        nev, steps = 1, 0
        lo = box.lower.astype(float).tolist()
        hi = box.upper.astype(float).tolist()
        ident = np.eye(x.shape[0])
        hess_inv = ident.copy()
        prev_g: np.ndarray | None = None
        prev_s: np.ndarray | None = None
        scaled = False
        line_failures = 0
        stalled = False
        termination = "budget"
        for _ in range(_MAX_ITERATIONS):
            g, k = self._gradient(fn, x, lo, hi)
            nev += k
            gs = g.tolist()
            if not all(map(math.isfinite, gs)):
                # A probe hit NaN or +inf: every direction built from g
                # would be NaN, and stepping on would only evaluate there.
                termination = "non_finite"
                break
            if prev_g is not None and prev_s is not None:
                yk = g - prev_g
                sy = float(prev_s.dot(yk))
                ss, yy = float(prev_s.dot(prev_s)), float(yk.dot(yk))
                if sy > 1e-12 * math.sqrt(ss) * math.sqrt(yy):
                    if not scaled:
                        hess_inv = (sy / yy) * ident
                        scaled = True
                    rho = 1.0 / sy
                    col = prev_s[:, None]  # np.outer's multiply, without its dispatch
                    left = ident - rho * (col * yk)
                    hess_inv = left.dot(hess_inv).dot(left.T) + rho * (col * prev_s)
                prev_g = prev_s = None
            if max(map(abs, gs), default=0.0) <= _GRAD_TOL:
                termination = "converged"
                break
            with np.errstate(over="ignore", invalid="ignore"):  # fn is not called here
                d = (-hess_inv).dot(g)
                gd = float(g.dot(d))
                if gd >= 0.0:
                    hess_inv = ident.copy()
                    scaled = False
                    d = -g
                    gd = float(g.dot(d))
            if not math.isfinite(gd):
                # g is finite but its slope along d overflowed, and a line
                # search would compare values against inf or NaN.
                termination = "non_finite"
                break
            t = 1.0
            line_failures += 1  # until a step is accepted
            xs, ds = x.tolist(), d.tolist()
            for _ in range(_MAX_BACKTRACKS):
                ys = _projected_step(xs, t, ds, lo, hi)
                if ys == xs:
                    break
                y = np.array(ys)
                move = y - x
                v = float(fn(y))
                nev += 1
                if v <= fx + _ARMIJO_C1 * float(g.dot(move)):
                    prev_s, prev_g = move, g
                    stalled = (
                        math.isfinite(fx)
                        and math.isfinite(v)
                        and fx - v <= _FTOL * max(abs(fx), abs(v), 1.0)
                    )
                    x, fx = y, v
                    steps += 1
                    line_failures = 0
                    break
                t *= _BACKTRACK_FACTOR
            if stalled:
                termination = "converged"
                break
            if line_failures:
                hess_inv = ident.copy()
                scaled = False
                if line_failures >= _MAX_LINE_FAILURES:
                    termination = "line_search_failure"
                    break
        return x, SearchTrace(start_value, fx, steps, termination, nev)


MINIMIZERS: dict[str, Callable] = {  # each called with no arguments
    "compass": CompassSearch,
    "quasi-newton": QuasiNewton,
}


def make_minimizer(method: str):
    """A new instance of ``MINIMIZERS[method]``, built with no arguments."""
    try:
        cls = MINIMIZERS[method]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(sorted(MINIMIZERS))
        raise ParameterError(f"unknown minimizer {method!r}; known: {known}")
    return cls()


def minimize_continuous(
    fn: Objective,
    x0: np.ndarray,
    box: BoxDomain,
    method: str = "quasi-newton",
) -> tuple[np.ndarray, SearchTrace]:
    return make_minimizer(method).minimize(fn, x0, box)


def steepest_descent_discrete(
    f: Callable[[IntPoint], float], x0: IntPoint, box: BoxDomain
) -> tuple[IntPoint, float]:
    """Greedy unit-step descent to a discrete local minimizer.

    Moves to the best strictly improving neighbor until none exists.
    Ties between neighbors keep the earliest in scan order; a neighbor
    merely matching the current value does not count as improvement, so
    the walk terminates on any finite box.
    """
    x = np.asarray(x0, dtype=np.int64)
    fx = float(f(x))
    while True:
        best: IntPoint | None = None
        best_val = fx
        for p in neighborhood(x, box)[:-1]:
            v = float(f(p))
            if v < best_val:
                best, best_val = p, v
        if best is None:
            return x, fx
        x, fx = best, best_val


@dataclasses.dataclass(frozen=True)
class ContractReport:
    """Determinism and descent checks for a continuous minimizer run."""

    deterministic: bool
    descent: bool
    start_value: float
    final_value: float

    def __bool__(self) -> bool:
        return self.deterministic and self.descent


def verify_descent_contract(
    fn: Objective,
    x0: np.ndarray,
    box: BoxDomain,
    method: str = "quasi-newton",
) -> ContractReport:
    """Run a minimizer twice and compare bitwise; also check descent.

    Determinism requires identical endpoints, final values, and accepted
    step counts across the two runs. Descent requires the final value
    not to exceed the starting value (the projected start, if ``x0`` lay
    outside the box).
    """
    x1, t1 = minimize_continuous(fn, x0, box, method)
    x2, t2 = minimize_continuous(fn, x0, box, method)
    deterministic = (
        np.array_equal(x1, x2)
        and t1.final_value == t2.final_value
        and t1.accepted_steps == t2.accepted_steps
    )
    descent = t1.final_value <= t1.start_value
    return ContractReport(deterministic, descent, t1.start_value, t1.final_value)
