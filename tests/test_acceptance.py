"""End-to-end acceptance gate.

Every numbered criterion below prints one ``ACCEPTANCE ...: PASS/FAIL``
line. The expensive experiment batches (the ten-row benchmark matrix,
the scaled Rosenbrock/Rastrigin runs, the enumeration oracle, and a
full rerun of the matrix) execute once per session through module
fixtures and are shared by the criterion tests.
"""
import time

import numpy as np
import pytest

from intfill.benchmarks import (
    APPENDIX_RUNS,
    brute_force_min,
    expand_start_pattern,
    get_problem,
    registry,
)
from intfill.core import BoxDomain, EvalCounter, ObjectiveFunction
from intfill.filled import (
    AugmentedFilled,
    InverseSquareFilled,
    rounding_error_check,
    smoothed_ramp,
    smoothed_step,
)
from intfill.local_search import verify_descent_contract
from intfill.solver import solve_problem

# Target objective value and tolerance per matrix row. The two nonzero
# 2-d rows carry their registered six-decimal bounds verbatim; every
# other row must reach its exact registered minimum up to 1e-9.
ROW_TARGETS = {
    "colville": (0.0, 1e-9),
    "goldstein-price": (3.0, 1e-9),
    "beale": (0.0, 1e-9),
    "powell-singular": (0.0, 1e-9),
    "booth": (0.0, 1e-9),
    "quadratic-chain": (0.0, 1e-9),
    "three-hump-camel": (0.866667, 0.0),
    "schaffer-n1": (0.487382, 0.0),
    "leon": (0.0, 1e-9),
    "salomon": (0.0, 1e-9),
}

SCALED_RUNS = (
    [("rosenbrock", n, (3,) * n) for n in (2, 5, 10)]
    + [("rastrigin", n, (-1,) * n) for n in (2, 5, 10)]
    + [("rastrigin", n, expand_start_pattern((-5, 5), n)) for n in (2, 5, 10)]
)

ORACLE_INSTANCES = [
    ("rosenbrock", 2),
    ("rosenbrock", 5),
    ("rastrigin", 2),
    ("rastrigin", 5),
    ("colville", None),
    ("booth", None),
    ("three-hump-camel", None),
    ("schaffer-n1", None),
    ("leon", None),
    ("salomon", 2),
]


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def run_matrix():
    reports = {}
    t0 = time.perf_counter()
    for name, n, start in APPENDIX_RUNS:
        prob = get_problem(name, n)
        reports[name] = (prob, solve_problem(prob, x0=start))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def matrix():
    return run_matrix()


@pytest.fixture(scope="module")
def scaled():
    out = {}
    for name, n, start in SCALED_RUNS:
        out[(name, n, start)] = solve_problem(get_problem(name, n), x0=start)
    return out


@pytest.fixture(scope="module")
def all_reports(matrix, scaled):
    return [rep for _, rep in matrix[0].values()] + list(scaled.values())


# ------------------------------------------------------- criterion 1


@pytest.mark.parametrize("name", list(ROW_TARGETS))
def test_criterion_1_row_reaches_target(name, matrix):
    target, tol = ROW_TARGETS[name]
    _, rep = matrix[0][name]
    ok = rep.f_best <= target + tol
    announce(
        f"criterion 1 [{name}]",
        ok,
        f"f_g={rep.f_best:.6g} target<={target:.6g}+{tol:g} "
        f"n_fu={rep.n_fu} n_fill={rep.n_fill}",
    )
    assert ok


def test_criterion_1_matrix_runtime(matrix):
    _, elapsed = matrix
    ok = elapsed < 300.0
    announce("criterion 1 [runtime]", ok, f"matrix wall time {elapsed:.1f}s < 300s")
    assert ok


# ------------------------------------------------------- criterion 2


def test_criterion_2_scaled_runs_reach_zero(scaled):
    failures = []
    worst = 0
    for (name, n, start), rep in scaled.items():
        total = rep.n_fu + rep.n_fill
        worst = max(worst, total)
        if rep.f_best != 0.0 or total > 10**7:
            failures.append((name, n, start, rep.f_best, total))
    ok = not failures
    announce(
        "criterion 2",
        ok,
        f"9/9 runs at f_g=0, max evaluations {worst}"
        if ok
        else f"failing runs: {failures}",
    )
    assert ok


# ------------------------------------------------------- criterion 3


def test_criterion_3_oracle_agreement(matrix, scaled):
    mismatches = []
    hits = 0
    for name, n in ORACLE_INSTANCES:
        prob = get_problem(name, n)
        x_bf, f_bf = brute_force_min(prob)
        if f_bf != prob.known_value or tuple(x_bf) != tuple(prob.known_minimizer):
            mismatches.append((name, n, tuple(x_bf), f_bf))
            continue
        if name in matrix[0]:
            rep = matrix[0][name][1]
        else:
            rep = scaled[(name, n, tuple(prob.default_start))]
        hits += rep.f_best == f_bf
    ok = not mismatches and hits >= 8
    announce(
        "criterion 3",
        ok,
        f"oracle exact on {len(ORACLE_INSTANCES) - len(mismatches)}/10, "
        f"solver hits {hits}/10 (need >= 8)"
        + (f"; oracle mismatches {mismatches}" if mismatches else ""),
    )
    assert ok


# ------------------------------------------------------- criterion 4


def test_criterion_4_rounding_bound_never_violated(all_reports):
    checked = skipped = failed = 0
    for rep in all_reports:
        for ev in rep.events:
            if ev["kind"] == "escape":
                checked += 1
                skipped += ev["bound"] == "skipped"
                failed += ev["bound"] == "failed"
    special = rounding_error_check(0.0, -1.0, np.array([0.3, 0.2]))
    special_ok = special.limit == 0.25 and special.status == "passed"
    ok = checked > 0 and failed == 0 and special_ok
    announce(
        "criterion 4",
        ok,
        f"{checked} bound checks, {failed} violations, {skipped} skipped "
        f"(zero filled value); quarter-limit special case "
        f"{'holds' if special_ok else 'broken'}",
    )
    assert ok


# ------------------------------------------------------- criterion 5


def test_criterion_5_piecewise_seams():
    eps = 1e-9
    ok = True
    for r in (1e-4, 0.1, 1.0, 10.0):
        ok &= smoothed_ramp(-r, r) == 0.0
        ok &= smoothed_ramp(0.0, r) == 1.0
        for seam in (-r, 0.0):
            at = smoothed_ramp(seam, r)
            ok &= abs(smoothed_ramp(seam - eps, r) - at) <= 1e-8
            ok &= abs(smoothed_ramp(seam + eps, r) - at) <= 1e-8
    ok &= smoothed_step(0.5) == 0.0 and smoothed_step(1.0) == 1.0
    for seam in (0.5, 1.0):
        at = smoothed_step(seam)
        ok &= abs(smoothed_step(seam - eps) - at) <= 1e-8
        ok &= abs(smoothed_step(seam + eps) - at) <= 1e-8
    announce("criterion 5", bool(ok), "ramp and step seams exact and continuous")
    assert ok


# ------------------------------------------------------- criterion 6


def test_criterion_6_lattice_identity():
    worst = 0
    for idx, prob in enumerate(registry()):
        obj = ObjectiveFunction(prob.func, prob.box, EvalCounter())
        anchor = np.array(prob.known_minimizer, dtype=np.int64)
        ff = InverseSquareFilled(obj, anchor, prob.known_value, 1.0)
        wrapped = AugmentedFilled(ff)
        rng = np.random.default_rng(1000 + idx)
        for _ in range(1000):
            x = prob.box.random_point(rng).astype(float)
            a = wrapped(x)
            b = ff.raw(x)
            if a != b:
                worst += 1
    ok = worst == 0
    announce(
        "criterion 6",
        ok,
        f"augmented == raw bit-equal on 1000 lattice points x 12 benchmarks"
        if ok
        else f"{worst} lattice points disagreed",
    )
    assert ok


# ------------------------------------------------------- criterion 7


def test_criterion_7_minimizer_contracts_and_filled_conditions(all_reports):
    broken = []
    for idx, prob in enumerate(registry()):
        rng = np.random.default_rng(2000 + idx)
        for method in ("compass", "quasi-newton"):
            for _ in range(10):
                x0 = prob.box.random_point(rng).astype(float)
                rep = verify_descent_contract(prob.func, x0, prob.box, method)
                if not rep:
                    broken.append((prob.name, method, tuple(x0)))
    d1_checks = [ev for rep in all_reports for ev in rep.events if ev["kind"] == "d1"]
    d1_total = len(d1_checks)
    d1_failed = sum(1 for c in d1_checks if not c["passed"])
    ok = not broken and d1_total > 0 and d1_failed == 0
    announce(
        "criterion 7",
        ok,
        f"240 contract runs clean, {d1_total} anchor condition checks, "
        f"{d1_failed} failures" + (f"; broken: {broken[:3]}" if broken else ""),
    )
    assert ok


# ------------------------------------------------------- criterion 8


def test_criterion_8_end_to_end_determinism(matrix):
    first = {name: rep.columns() for name, (_, rep) in matrix[0].items()}
    second_reports, _ = run_matrix()
    second = {name: rep.columns() for name, (_, rep) in second_reports.items()}
    diffs = {
        name: (first[name], second[name])
        for name in first
        if first[name] != second[name]
    }
    ok = not diffs
    announce(
        "criterion 8",
        ok,
        "two matrix executions bit-identical in (f_g, n_fu, n_fill)"
        if ok
        else f"rows diverged: {diffs}",
    )
    assert ok
