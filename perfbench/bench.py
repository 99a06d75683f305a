"""Measurement for the intfill benchmark: timed passes, checks, tracing.

``run.py`` is the entry point; it pins the thread pools and puts the
checkout's ``src/`` on the path before this module imports ``intfill``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import intfill.cli
import yardstick
from tracer import Tracer
from workloads import Outcome, build, check, run_cli, run_direct

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 9


def measure_setup(name: str, seed: int) -> float:
    """Median wall seconds from a fresh process to the point of the first solve.

    Each probe is a new interpreter that imports intfill, builds the
    problems and configs and draws the starts, then exits.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
    cmd += ["--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def digest(outcomes) -> str:
    """Short hash of the ``(f_best, n_fu, n_fill)`` columns, in solve order."""
    text = repr([o.columns() for o in outcomes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class Pass:
    """The outcomes of one pass and when each timed part ran."""

    outcomes: list = dataclasses.field(default_factory=list)
    spans: list[tuple[float, float]] = dataclasses.field(default_factory=list)
    write: tuple[float, float] | None = None  # record writing, CLI only

    def wall(self) -> float:
        """Seconds of the solves and the writing, without yardstick runs."""
        parts = self.spans + ([self.write] if self.write else [])
        return sum(t1 - t0 for t0, t1 in parts)


class Runner:
    """Runs passes of one workload and checks every solve."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []  # one per failed solve
        self.violations: list[str] = []  # evaluation-closure breaches
        self.reference: list | None = None  # first pass's outcomes
        self._captured: list = []

    def run_solve(self, i: int, workload=None):
        """Time solve ``i``; returns its outcome and, via the CLI, its record."""
        workload = workload or self.workload
        solve = workload.solves[i]
        started = time.perf_counter()
        try:
            if workload.via_cli:
                return run_cli(solve, self._captured, time.perf_counter)
            return run_direct(workload, solve, time.perf_counter), None
        except Exception as exc:  # a failed solve is counted, not fatal
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
            return Outcome(solve, time.perf_counter() - started, error=error), None

    def check(self, i: int, outcome) -> None:
        """Check solve ``i`` (untimed); the first pass is the reference."""
        self.attempted += 1
        why = check(self.workload, outcome)
        reference = self.reference[i].columns()
        if why is None and outcome.columns() != reference:
            why = f"columns {outcome.columns()} differ from the first pass's {reference}"
        if why is not None:
            s = outcome.solve
            self.failures.append(f"{s.problem} n={s.n} start={s.start}: {why}")

    def run_pass(self, workload=None, yard: yardstick.Yardstick | None = None) -> Pass:
        """One timed pass over every solve, then the checks.

        Through the CLI the pass ends by writing the records as
        ``intfill matrix`` does. With ``yard``, yardstick runs follow
        each solve and the writing, outside the timed intervals.
        """
        workload = workload or self.workload
        clock = time.perf_counter
        done = Pass()
        records = []
        for i in range(len(workload.solves)):
            t0 = clock()
            outcome, record = self.run_solve(i, workload)
            done.spans.append((t0, clock()))
            done.outcomes.append(outcome)
            if record is not None:
                records.append(record)
            if yard is not None:
                yard.after(outcome.seconds)
        if workload.via_cli:
            OUT.mkdir(exist_ok=True)
            t0 = clock()
            intfill.cli.write_csv(records, OUT / f"{workload.name}.csv")
            intfill.cli.write_json(records, OUT / f"{workload.name}.json")
            done.write = (t0, clock())
            if yard is not None:
                yard.after(done.write[1] - t0)
        if self.reference is None:
            self.reference = done.outcomes
        for i, outcome in enumerate(done.outcomes):
            self.check(i, outcome)
        return done

    @contextlib.contextmanager
    def capturing_reports(self):
        """Hook ``intfill.cli.solve_problem`` to keep each ``x_best``.

        The CLI record omits ``x_best``, which the result check needs.
        """
        original = intfill.cli.solve_problem
        captured = self._captured

        def solve_problem(*args, **kwargs):
            report = original(*args, **kwargs)
            captured.append(report.x_best)
            return report

        intfill.cli.solve_problem = solve_problem
        try:
            yield
        finally:
            intfill.cli.solve_problem = original


def end_to_end(runner: Runner, seconds: float) -> dict:
    """A warm-up pass, then timed passes while the next still fits in ``seconds``.

    The warm-up pass is checked and gives the reference columns, but its
    times are dropped: the first solves of a process run up to half as
    fast again while memory is first allocated. At least one timed pass
    follows. A solve's time is the median over timed passes of its
    seconds scaled by the yardstick runs around it; ``wall_norm_s`` sums
    those medians and the median scaled time of writing the records (CLI
    workload only). ``setup_s`` is scaled by the median of all the run's
    yardstick runs: the probes take too little time to interleave with
    them. The same figures unscaled are printed beside them.
    """
    yard = yardstick.Yardstick()
    start = time.perf_counter()
    runner.run_pass()
    yard.run(yardstick.NEAREST)
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(runner.run_pass(yard=yard))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    yard.run(yardstick.NEAREST)

    def typical(scale) -> tuple[list[float], float]:
        per_solve = [
            statistics.median(scale(p.outcomes[i].seconds, *p.spans[i]) for p in passes)
            for i in range(len(passes[0].outcomes))
        ]
        writes = [scale(p.write[1] - p.write[0], *p.write) for p in passes if p.write]
        return per_solve, sum(per_solve) + (statistics.median(writes) if writes else 0.0)

    solves, wall = typical(yard.normalize)
    raw_solves, raw_wall = typical(lambda s, t0, t1: s)
    kernel = statistics.median(yard.times)
    raw_setup = measure_setup(runner.workload.name, runner.seed)
    setup = raw_setup * yardstick.REFERENCE_S / kernel
    first = runner.reference
    metrics = {
        "setup_s": (setup, "s"),
        "wall_norm_s": (wall, "s"),
        "solve_norm_s.p50": (statistics.median(solves), "s"),
        "evals": (sum(o.n_fu + o.n_fill for o in first), "count"),
        "hit_rate": (sum(o.hit for o in first) / len(first), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"timed passes {len(passes)} of {len(first)} solves, after one warm-up pass",
        f"unscaled setup_s {raw_setup!r} s, wall_s {raw_wall!r} s, "
        f"solve_s.p50 {statistics.median(raw_solves)!r} s",
        f"yardstick runs {len(yard.times)}, median {kernel!r} s "
        f"(reference {yardstick.REFERENCE_S} s, host speed {yardstick.REFERENCE_S / kernel:.3f})",
    ]
    if runner.workload.name == "batch-small":
        p95 = statistics.quantiles(solves, n=20)[-1]
        beyond = sum(t > p95 for t in solves)
        notes.append(f"solve_norm_s.p95 {p95!r} s ({len(solves)} solves, {beyond} beyond it)")
    return {"metrics": metrics, "notes": notes}


def per_layer(runner: Runner) -> dict:
    """One untraced pass, then one traced pass of a freshly built workload."""
    untraced_wall = runner.run_pass().wall()
    evals = sum(o.n_fu + o.n_fill for o in runner.reference)
    tracer = Tracer()
    tracer.install()
    try:
        traced = build(runner.workload.name, runner.seed)
        traced_wall = runner.run_pass(traced).wall()
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{runner.workload.name}-seed{runner.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n")
    runner.violations = tracer.violations
    notes = [
        f"closure violations {len(tracer.violations)}",
        f"spans {len(tracer.spans)} written to {spans_path.relative_to(HERE.parent)}",
    ]
    return {"metrics": tracer.metrics(traced_wall, untraced_wall, evals), "notes": notes}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    runner = Runner(build(name, seed), seed)
    with runner.capturing_reports():
        result = per_layer(runner) if trace else end_to_end(runner, seconds)
    print(f"[{name}] seed {seed} trace {trace} digest {digest(runner.reference)}")
    for note in result["notes"]:
        print(f"[{name}] {note}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"[{name}] {metric} {value!r} {unit}")
    failed = len(runner.failures)
    print(f"[{name}] error_rate {failed / runner.attempted!r} ratio ({failed}/{runner.attempted})")
    for why in (runner.failures + runner.violations)[:20]:
        print(f"[{name}] FAILED {why}", file=sys.stderr)
    return {
        "correct": failed == 0 and not runner.violations,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }
