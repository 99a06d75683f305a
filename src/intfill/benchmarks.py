"""Benchmark problems on integer boxes, with known minima and an oracle.

Each problem is a real-valued formula over the integer decision
variables; evaluating it at a float vector gives the continuous
relaxation used by the continuous searches. Scaled problems (divisor
1000) keep integer decision variables ``z`` and evaluate the classic
formula at ``z / 1000``, so one lattice step moves the continuous
argument by 0.001.

Known-minimizer coordinates are stored in decision space: for the
scaled problems the classic minimizer ``(x, y)`` appears here as
``(1000 x, 1000 y)``.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Sequence

import numpy as np

from .core import BoxDomain, IntPoint, ParameterError

Formula = Callable[[np.ndarray], float]


@dataclasses.dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    box: BoxDomain
    func: Formula
    known_minimizer: tuple[int, ...]
    known_value: float
    default_start: tuple[int, ...]
    divisor: float = 1.0

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
    if not pattern:
        raise ParameterError("empty start pattern")
    return tuple(itertools.islice(itertools.cycle(int(v) for v in pattern), n))


def _uniform_box(n: int, lo: int, hi: int) -> BoxDomain:
    return BoxDomain(np.full(n, lo), np.full(n, hi))


def rosenbrock_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rastrigin_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def colville_value(x: np.ndarray) -> float:
    x1, x2, x3, x4 = np.asarray(x, dtype=float)
    return float(
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
    x, y = np.asarray(z, dtype=float) / 1000.0
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x**2 - 14.0 * y + 6.0 * x * y + 3.0 * y**2
    )
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x**2 + 48.0 * y - 36.0 * x * y + 27.0 * y**2
    )
    return float(a * b)


def beale_value(z: np.ndarray) -> float:
    x, y = np.asarray(z, dtype=float) / 1000.0
    return float(
        (1.5 - x + x * y) ** 2
        + (2.25 - x + x * y**2) ** 2
        + (2.625 - x + x * y**3) ** 2
    )


def powell_singular_value(z: np.ndarray) -> float:
    x1, x2, x3, x4 = np.asarray(z, dtype=float) / 1000.0
    return float(
        (x1 + 10.0 * x2) ** 2
        + 5.0 * (x3 - x4) ** 2
        + (x2 - 2.0 * x3) ** 4
        + 10.0 * (x1 - x4) ** 4
    )


def booth_value(x: np.ndarray) -> float:
    x1, x2 = np.asarray(x, dtype=float)
    return float((x1 + 2.0 * x2 - 7.0) ** 2 + (2.0 * x1 + x2 - 5.0) ** 2)


def quadratic_chain_value(x: np.ndarray) -> float:
    """Quadratic chain coupling each coordinate's square to the next."""
    x = np.asarray(x, dtype=float)
    n = x.size
    weights = n - np.arange(1, n)
    chain = np.sum(weights * (x[:-1] ** 2 - x[1:]) ** 2)
    return float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2 + n * chain)


def three_hump_camel_value(x: np.ndarray) -> float:
    x1, x2 = np.asarray(x, dtype=float)
    return float(
        2.0 * x1**2 - 1.05 * x1**4 + x1**6 / 6.0 + x1 * x2 + x2**2
    )


def schaffer_n1_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    s = float(x @ x)
    return float(0.5 + (np.sin(s * s) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2)


def leon_value(x: np.ndarray) -> float:
    x1, x2 = np.asarray(x, dtype=float)
    return float(100.0 * (x2 - x1**3) ** 2 + (1.0 - x1) ** 2)


def salomon_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    root = float(np.sqrt(x @ x))
    return float(1.0 - np.cos(2.0 * np.pi * root) + 0.1 * root)


def _fixed_n(name: str, n: int | None, required: int) -> int:
    if n is not None and n != required:
        raise ParameterError(f"{name} is defined only for n={required}")
    return required


def make_rosenbrock(n: int | None = None) -> BenchmarkProblem:
    n = n or 2
    if n < 2:
        raise ParameterError("rosenbrock needs n >= 2")
    return BenchmarkProblem(
        name="rosenbrock",
        box=_uniform_box(n, -5, 5),
        func=rosenbrock_value,
        known_minimizer=(1,) * n,
        known_value=0.0,
        default_start=expand_start_pattern((3,), n),
    )


def make_rastrigin(n: int | None = None) -> BenchmarkProblem:
    n = n or 2
    if n < 1:
        raise ParameterError("rastrigin needs n >= 1")
    return BenchmarkProblem(
        name="rastrigin",
        box=_uniform_box(n, -5, 5),
        func=rastrigin_value,
        known_minimizer=(0,) * n,
        known_value=0.0,
        default_start=expand_start_pattern((-1,), n),
    )


def make_colville(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("colville", n, 4)
    return BenchmarkProblem(
        name="colville",
        box=_uniform_box(n, -10, 10),
        func=colville_value,
        known_minimizer=(1, 1, 1, 1),
        known_value=0.0,
        default_start=(0, 0, 0, 0),
    )


def make_goldstein_price(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("goldstein-price", n, 2)
    return BenchmarkProblem(
        name="goldstein-price",
        box=_uniform_box(n, -2000, 2000),
        func=goldstein_price_value,
        known_minimizer=(0, -1000),
        known_value=3.0,
        default_start=(1, -1),
        divisor=1000.0,
    )


def make_beale(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("beale", n, 2)
    return BenchmarkProblem(
        name="beale",
        box=_uniform_box(n, -10000, 10000),
        func=beale_value,
        known_minimizer=(3000, 500),
        known_value=0.0,
        default_start=(0, 0),
        divisor=1000.0,
    )


def make_powell_singular(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("powell-singular", n, 4)
    return BenchmarkProblem(
        name="powell-singular",
        box=_uniform_box(n, -10000, 10000),
        func=powell_singular_value,
        known_minimizer=(0, 0, 0, 0),
        known_value=0.0,
        default_start=(10, -10, 10, -10),
        divisor=1000.0,
    )


def make_booth(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("booth", n, 2)
    return BenchmarkProblem(
        name="booth",
        box=_uniform_box(n, -10, 10),
        func=booth_value,
        known_minimizer=(1, 3),
        known_value=0.0,
        default_start=(0, 0),
    )


def make_quadratic_chain(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("quadratic-chain", n, 25)
    return BenchmarkProblem(
        name="quadratic-chain",
        box=_uniform_box(n, -5, 5),
        func=quadratic_chain_value,
        known_minimizer=(1,) * n,
        known_value=0.0,
        default_start=expand_start_pattern((2,), n),
    )


def make_three_hump_camel(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("three-hump-camel", n, 2)
    return BenchmarkProblem(
        name="three-hump-camel",
        box=_uniform_box(n, -5, 5),
        func=three_hump_camel_value,
        known_minimizer=(0, 0),
        known_value=0.0,
        default_start=(2, 2),
    )


def make_schaffer_n1(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("schaffer-n1", n, 2)
    return BenchmarkProblem(
        name="schaffer-n1",
        box=_uniform_box(n, -100, 100),
        func=schaffer_n1_value,
        known_minimizer=(0, 0),
        known_value=0.0,
        default_start=(-50, 50),
    )


def make_leon(n: int | None = None) -> BenchmarkProblem:
    n = _fixed_n("leon", n, 2)
    return BenchmarkProblem(
        name="leon",
        box=_uniform_box(n, 0, 10),
        func=leon_value,
        known_minimizer=(1, 1),
        known_value=0.0,
        default_start=(10, 10),
    )


def make_salomon(n: int | None = None) -> BenchmarkProblem:
    n = n or 2
    if n < 1:
        raise ParameterError("salomon needs n >= 1")
    return BenchmarkProblem(
        name="salomon",
        box=_uniform_box(n, -100, 100),
        func=salomon_value,
        known_minimizer=(0,) * n,
        known_value=0.0,
        default_start=expand_start_pattern((-100, 100), n),
    )


PROBLEM_FACTORIES: dict[str, Callable[[int | None], BenchmarkProblem]] = {
    "rosenbrock": make_rosenbrock,
    "rastrigin": make_rastrigin,
    "colville": make_colville,
    "goldstein-price": make_goldstein_price,
    "beale": make_beale,
    "powell-singular": make_powell_singular,
    "booth": make_booth,
    "quadratic-chain": make_quadratic_chain,
    "three-hump-camel": make_three_hump_camel,
    "schaffer-n1": make_schaffer_n1,
    "leon": make_leon,
    "salomon": make_salomon,
}


def get_problem(name: str, n: int | None = None) -> BenchmarkProblem:
    try:
        factory = PROBLEM_FACTORIES[name]
    except KeyError:
        known = ", ".join(PROBLEM_FACTORIES)
        raise ParameterError(f"unknown problem {name!r}; known: {known}")
    return factory(n)


def registry() -> list[BenchmarkProblem]:
    """All twelve problems at their default dimensions."""
    return [factory(None) for factory in PROBLEM_FACTORIES.values()]


BRUTE_FORCE_GUARD = 10**7


def brute_force_min(
    problem: BenchmarkProblem, box_override: BoxDomain | None = None
) -> tuple[IntPoint, float]:
    """Exhaustive lattice minimum; ties go to the lexicographically
    smallest point because enumeration is lexicographic and first wins.
    """
    box = box_override or problem.box
    size = box.feasible_size()
    if size > BRUTE_FORCE_GUARD:
        raise ParameterError(
            f"{problem.name}: {size} feasible points exceed the "
            f"{BRUTE_FORCE_GUARD} enumeration guard"
        )
    best: IntPoint | None = None
    best_val = np.inf
    for p in box.iter_points():
        v = problem.func(p)
        if v < best_val:
            best, best_val = p, v
    assert best is not None
    return best, float(best_val)


# The ten appendix rows run by the acceptance matrix: problem, dimension
# override, starting point (decision space).
APPENDIX_RUNS: tuple[tuple[str, int | None, tuple[int, ...]], ...] = (
    ("colville", None, (0, 0, 0, 0)),
    ("goldstein-price", None, (1, -1)),
    ("beale", None, (0, 0)),
    ("powell-singular", None, (10, -10, 10, -10)),
    ("booth", None, (0, 0)),
    ("quadratic-chain", None, expand_start_pattern((2,), 25)),
    ("three-hump-camel", None, (2, 2)),
    ("schaffer-n1", None, (-50, 50)),
    ("leon", None, (10, 10)),
    ("salomon", None, (-100, 100)),
)
