"""Benchmark problems on integer boxes, with known minima and an oracle.

Each problem is a real-valued formula over the integer decision
variables; evaluating it at a float vector gives the continuous
relaxation used by the continuous searches. The scaled problems
(goldstein-price, beale and powell-singular) keep integer decision
variables ``z`` and evaluate the classic formula at ``z / 1000``, so one
lattice step moves the continuous argument by 0.001.

Known-minimizer coordinates are stored in decision space: for the
scaled problems the classic minimizer ``(x, y)`` appears here as
``(1000 x, 1000 y)``.

The formulas compute on Python floats where that is cheaper and keeps
every bit of the numpy form: the point is converted once with
``.tolist()``. rosenbrock and rastrigin sum their terms with
``math.fsum``, which rounds the exact sum once.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    BoxDomain, DomainError, IntPoint, ParameterError, as_int_point, check_number
)

Formula = Callable[[np.ndarray], float]


@dataclasses.dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    box: BoxDomain
    func: Formula
    known_minimizer: tuple[int, ...]
    known_value: float
    default_start: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.box.dimension

    def __post_init__(self) -> None:
        if len(self.known_minimizer) != self.dimension:
            raise ParameterError(f"{self.name}: minimizer dimension mismatch")
        if len(self.default_start) != self.dimension:
            raise ParameterError(f"{self.name}: start dimension mismatch")


def expand_start_pattern(pattern: Sequence[int], n: int) -> tuple[int, ...]:
    """Cycle a short pattern out to dimension n: (-5, 5) -> (-5, 5, -5, ...)."""
    if not (coords := as_int_point(pattern).tolist()):  # a start point's rule
        raise ParameterError("empty start pattern")
    return tuple(itertools.islice(itertools.cycle(coords), n))


def rosenbrock_value(x: np.ndarray) -> float:
    v = np.asarray(x, dtype=float).tolist()
    terms = []
    for a, b in zip(v, v[1:]):
        t, u = b - a * a, 1.0 - a  # d * d is numpy's square; float ** is C pow
        terms.append(100.0 * (t * t) + u * u)
    return math.fsum(terms)


def rastrigin_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    cos = np.cos(2.0 * np.pi * x)  # math.cos can differ in the last bit
    terms = [a * a - 10.0 * c for a, c in zip(x.tolist(), cos.tolist())]
    return 10.0 * x.size + math.fsum(terms)


def colville_value(x: np.ndarray) -> float:
    x1, x2, x3, x4 = np.asarray(x, dtype=float).tolist()
    return (
        100.0 * (x2 - x1**2) ** 2
        + (1.0 - x1) ** 2
        + 90.0 * (x4 - x3**2) ** 2
        + (1.0 - x3) ** 2
        + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
        + 19.8 * (x2 - 1.0) * (x4 - 1.0)
    )


def goldstein_price_value(z: np.ndarray) -> float:
    # 48y in the second factor: the variant printing 4y does not attain
    # the registered minimum value 3 at (0, -1).
    x, y = [v / 1000.0 for v in np.asarray(z, dtype=float).tolist()]
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x**2 - 14.0 * y + 6.0 * x * y + 3.0 * y**2
    )
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x**2 + 48.0 * y - 36.0 * x * y + 27.0 * y**2
    )
    return a * b


def beale_value(z: np.ndarray) -> float:
    x, y = [v / 1000.0 for v in np.asarray(z, dtype=float).tolist()]
    return (
        (1.5 - x + x * y) ** 2
        + (2.25 - x + x * y**2) ** 2
        + (2.625 - x + x * y**3) ** 2
    )


def powell_singular_value(z: np.ndarray) -> float:
    x1, x2, x3, x4 = [v / 1000.0 for v in np.asarray(z, dtype=float).tolist()]
    return (
        (x1 + 10.0 * x2) ** 2
        + 5.0 * (x3 - x4) ** 2
        + (x2 - 2.0 * x3) ** 4
        + 10.0 * (x1 - x4) ** 4
    )


def booth_value(x: np.ndarray) -> float:
    x1, x2 = np.asarray(x, dtype=float).tolist()
    return (x1 + 2.0 * x2 - 7.0) ** 2 + (2.0 * x1 + x2 - 5.0) ** 2


def quadratic_chain_value(x: np.ndarray) -> float:
    """Quadratic chain coupling each coordinate's square to the next."""
    x = np.asarray(x, dtype=float)
    n = x.size
    weights = n - np.arange(1, n)
    chain = np.add.reduce(weights * (x[:-1] ** 2 - x[1:]) ** 2)
    return float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2 + n * chain)


def three_hump_camel_value(x: np.ndarray) -> float:
    x1, x2 = np.asarray(x, dtype=float).tolist()
    return 2.0 * x1**2 - 1.05 * x1**4 + x1**6 / 6.0 + x1 * x2 + x2**2


def schaffer_n1_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    s = float(x.dot(x))
    return 0.5 + (float(np.sin(s * s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2


def leon_value(x: np.ndarray) -> float:
    x1, x2 = np.asarray(x, dtype=float).tolist()
    return 100.0 * (x2 - x1**3) ** 2 + (1.0 - x1) ** 2


def salomon_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    root = math.sqrt(x.dot(x))
    return 1.0 - float(np.cos(2.0 * math.pi * root)) + 0.1 * root


# name: (n, scalable, lower, upper, minimizer, start, known value).
# A scalable problem defaults to n = 2 and needs at least n; the minimizer and
# start patterns cycle out to the dimension. The formula is <name>_value, looked
# up when a problem is built, because the benchmark tracer wraps those attributes.
_TABLE: dict[str, tuple] = {
    "rosenbrock": (2, True, -5, 5, (1,), (3,), 0.0),
    "rastrigin": (1, True, -5, 5, (0,), (-1,), 0.0),
    "colville": (4, False, -10, 10, (1,), (0,), 0.0),
    "goldstein-price": (2, False, -2000, 2000, (0, -1000), (1, -1), 3.0),
    "beale": (2, False, -10000, 10000, (3000, 500), (0,), 0.0),
    "powell-singular": (4, False, -10000, 10000, (0,), (10, -10), 0.0),
    "booth": (2, False, -10, 10, (1, 3), (0,), 0.0),
    "quadratic-chain": (25, False, -5, 5, (1,), (2,), 0.0),
    "three-hump-camel": (2, False, -5, 5, (0,), (2,), 0.0),
    "schaffer-n1": (2, False, -100, 100, (0,), (-50, 50), 0.0),
    "leon": (2, False, 0, 10, (1,), (10,), 0.0),
    "salomon": (1, True, -100, 100, (0,), (-100, 100), 0.0),
}


def get_problem(name: str, n: int | None = None) -> BenchmarkProblem:
    """Build a table problem at dimension ``n`` (None: its default)."""
    try:
        dim, scalable, lo, hi, minimizer, start, value = _TABLE[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(_TABLE)
        raise ParameterError(f"unknown problem {name!r}; known: {known}") from None
    if n is not None:
        check_number(n, f"{name}: dimension", count=True)
    if not scalable and n not in (None, dim):
        raise ParameterError(f"{name} is defined only for n={dim}")
    n = (2 if n is None else n) if scalable else dim
    if n < dim:
        raise ParameterError(f"{name} needs n >= {dim}")
    return BenchmarkProblem(
        name=name,
        box=BoxDomain(np.full(n, lo), np.full(n, hi)),
        func=globals()[name.replace("-", "_") + "_value"],
        known_minimizer=expand_start_pattern(minimizer, n),
        known_value=value,
        default_start=expand_start_pattern(start, n),
    )


PROBLEM_FACTORIES: dict[str, Callable[[int | None], BenchmarkProblem]] = {
    name: functools.partial(get_problem, name) for name in _TABLE
}


def registry() -> list[BenchmarkProblem]:
    """All twelve problems at their default dimensions."""
    return [get_problem(name) for name in _TABLE]


BRUTE_FORCE_GUARD = 10**7


def brute_force_min(problem: BenchmarkProblem) -> tuple[IntPoint, float]:
    """Exhaustive minimum over ``problem.box``; ties go to the lexicographically
    smallest point because enumeration is lexicographic and first wins.
    """
    size = problem.box.feasible_size()
    if size > BRUTE_FORCE_GUARD:
        raise ParameterError(
            f"{problem.name}: {size} feasible points exceed the "
            f"{BRUTE_FORCE_GUARD} enumeration guard"
        )
    best: IntPoint | None = None
    best_val = np.inf
    for p in problem.box.iter_points():
        v = problem.func(p)
        if v < best_val:
            best, best_val = p, v
    if best is None:
        raise DomainError(f"{problem.name}: every value in the box is NaN or +inf")
    return best, float(best_val)


# The ten appendix rows run by the acceptance matrix: problem, dimension
# override, starting point (decision space). Each row starts at its
# problem's ``default_start``.
APPENDIX_RUNS: tuple[tuple[str, int | None, tuple[int, ...]], ...] = tuple(
    (name, None, get_problem(name).default_start)
    for name in (
        "colville", "goldstein-price", "beale", "powell-singular", "booth",
        "quadratic-chain", "three-hump-camel", "schaffer-n1", "leon", "salomon",
    )
)
