"""Local search drivers, continuous and discrete.

The continuous minimizers work on real vectors inside the box and never
step outside it: candidate points are projected before evaluation, and
finite-difference probes are clamped with the actual spread in the
denominator. Both are deterministic: same function, same start, same
options, same result. That determinism is a contract the solver relies
on and `verify_descent_contract` spot-checks.

The discrete driver is plain steepest descent on the unit-step
neighborhood with a fixed scan order for ties.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .core import (
    BoxDomain,
    IntPoint,
    ParameterError,
    as_real_point,
    axis_directions,
    neighborhood,
)

Objective = Callable[[np.ndarray], float]


@dataclasses.dataclass
class SearchTrace:
    """Accepted iterates of one minimizer run."""

    points: list[np.ndarray]
    values: list[float]
    termination: str
    n_evaluations: int

    @property
    def start_value(self) -> float:
        return self.values[0]

    @property
    def final_value(self) -> float:
        return self.values[-1]


@dataclasses.dataclass
class CompassSearch:
    """Pattern search polling the 2n axis directions.

    Each round evaluates every axis poll at the current step length and
    moves to the best strictly improving one; if none improves, the step
    shrinks. A successful round multiplies the step by ``expand``, capped
    at the widest extent of the box; the default 1 keeps the step fixed,
    and an integer factor from an integer step keeps every poll of a
    lattice start on the lattice until the first shrink. Polls that
    project back onto the current point (at a face of the box) are
    skipped without evaluation.
    """

    initial_step: float = 1.0
    shrink: float = 0.5
    expand: float = 1.0
    step_tol: float = 1e-6
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if self.initial_step <= 0 or not (0 < self.shrink < 1) or self.step_tol <= 0:
            raise ParameterError(f"bad compass options: {self}")
        if self.expand < 1:
            raise ParameterError(f"bad compass options: {self}")

    def minimize(
        self, fn: Objective, x0: np.ndarray, box: BoxDomain
    ) -> tuple[np.ndarray, SearchTrace]:
        x = box.clamp(as_real_point(x0))
        fx = float(fn(x))
        nev = 1
        points = [x.copy()]
        values = [fx]
        step = self.initial_step
        widest = float(np.max(box.upper - box.lower, initial=0))
        dirs = [d.astype(float) for d in axis_directions(box.dimension)]
        termination = "budget"
        for _ in range(self.max_iterations):
            if step < self.step_tol:
                termination = "converged"
                break
            best: np.ndarray | None = None
            best_val = fx
            for d in dirs:
                y = box.clamp(x + step * d)
                if np.array_equal(y, x):
                    continue
                v = float(fn(y))
                nev += 1
                if v < best_val:
                    best, best_val = y, v
            if best is None:
                step *= self.shrink
            else:
                x, fx = best, best_val
                points.append(x.copy())
                values.append(fx)
                if self.expand > 1:
                    step = min(step * self.expand, max(step, widest))
        return x, SearchTrace(points, values, termination, nev)


@dataclasses.dataclass
class QuasiNewton:
    """BFGS with projected iterates and finite-difference gradients.

    Gradients use central differences with per-coordinate step
    ``grad_step * max(1, |x_i|)``; probe points are clamped to the box
    and the actual probe spread divides the difference. The inverse
    Hessian is rescaled once after the first accepted step, updated only
    when curvature is positive, and reset whenever the model direction
    fails to descend. Runs stop at a small projected gradient, the
    iteration cap, a gradient that is not finite (``"non_finite"``), or
    after ``max_line_failures`` consecutive failed line searches.
    """

    grad_step: float = 1e-6
    grad_tol: float = 1e-6
    max_iterations: int = 10_000
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 50
    max_line_failures: int = 5

    def __post_init__(self) -> None:
        if self.grad_step <= 0 or self.grad_tol <= 0:
            raise ParameterError(f"bad quasi-newton options: {self}")
        if not (0 < self.backtrack_factor < 1) or not (0 < self.armijo_c1 < 1):
            raise ParameterError(f"bad quasi-newton options: {self}")

    def _gradient(
        self, fn: Objective, x: np.ndarray, box: BoxDomain
    ) -> tuple[np.ndarray, int]:
        n = x.shape[0]
        g = np.zeros(n)
        nev = 0
        lo = box.lower.astype(float)
        hi = box.upper.astype(float)
        for i in range(n):
            h = self.grad_step * max(1.0, abs(float(x[i])))
            up = min(float(x[i]) + h, hi[i])
            dn = max(float(x[i]) - h, lo[i])
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
        fx = float(fn(x))
        nev = 1
        points = [x.copy()]
        values = [fx]
        n = x.shape[0]
        ident = np.eye(n)
        hess_inv = ident.copy()
        prev_g: np.ndarray | None = None
        prev_s: np.ndarray | None = None
        scaled = False
        line_failures = 0
        termination = "budget"
        for _ in range(self.max_iterations):
            g, k = self._gradient(fn, x, box)
            nev += k
            if not np.all(np.isfinite(g)):
                # A probe hit NaN or +inf: every direction built from g
                # would be NaN, and stepping on would only evaluate there.
                termination = "non_finite"
                break
            if prev_g is not None and prev_s is not None:
                yk = g - prev_g
                sy = float(prev_s @ yk)
                if sy > 1e-12 * np.linalg.norm(prev_s) * np.linalg.norm(yk):
                    if not scaled:
                        hess_inv = (sy / float(yk @ yk)) * ident
                        scaled = True
                    rho = 1.0 / sy
                    left = ident - rho * np.outer(prev_s, yk)
                    hess_inv = left @ hess_inv @ left.T + rho * np.outer(
                        prev_s, prev_s
                    )
                prev_g = prev_s = None
            if float(np.max(np.abs(g))) <= self.grad_tol:
                termination = "converged"
                break
            d = -hess_inv @ g
            if float(g @ d) >= 0.0:
                hess_inv = ident.copy()
                scaled = False
                d = -g
            t = 1.0
            accepted = False
            for _ in range(self.max_backtracks):
                y = box.clamp(x + t * d)
                move = y - x
                if not np.any(move):
                    break
                v = float(fn(y))
                nev += 1
                if v <= fx + self.armijo_c1 * float(g @ move):
                    prev_s = move
                    prev_g = g
                    x, fx = y, v
                    points.append(x.copy())
                    values.append(fx)
                    accepted = True
                    break
                t *= self.backtrack_factor
            if not accepted:
                line_failures += 1
                hess_inv = ident.copy()
                scaled = False
                if line_failures >= self.max_line_failures:
                    termination = "line_search_failure"
                    break
            else:
                line_failures = 0
        return x, SearchTrace(points, values, termination, nev)


MINIMIZERS: dict[str, type] = {
    "compass": CompassSearch,
    "quasi-newton": QuasiNewton,
}


def make_minimizer(method: str, options: dict | None = None):
    try:
        cls = MINIMIZERS[method]
    except KeyError:
        known = ", ".join(sorted(MINIMIZERS))
        raise ParameterError(f"unknown minimizer {method!r}; known: {known}")
    return cls(**(options or {}))


def minimize_continuous(
    fn: Objective,
    x0: np.ndarray,
    box: BoxDomain,
    method: str = "quasi-newton",
    options: dict | None = None,
) -> tuple[np.ndarray, SearchTrace]:
    return make_minimizer(method, options).minimize(fn, x0, box)


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
    options: dict | None = None,
) -> ContractReport:
    """Run a minimizer twice and compare bitwise; also check descent.

    Determinism requires identical endpoints, values, and accepted
    iterate counts across the two runs. Descent requires the final value
    not to exceed the starting value (the projected start, if ``x0`` lay
    outside the box).
    """
    x1, t1 = minimize_continuous(fn, x0, box, method, options)
    x2, t2 = minimize_continuous(fn, x0, box, method, options)
    deterministic = (
        np.array_equal(x1, x2)
        and t1.final_value == t2.final_value
        and len(t1.points) == len(t2.points)
    )
    descent = t1.final_value <= t1.start_value
    return ContractReport(deterministic, descent, t1.start_value, t1.final_value)
