"""Outside-in tracing of one pass, with nothing under ``src/`` changed.

Each traced function is replaced, for the length of the pass, by a
wrapper installed where its caller looks it up: a module global for
free functions (``intfill.solver.steepest_descent_discrete``), the class
attribute for methods (``BoxDomain.clamp``). Hot wrappers fire several
times per evaluation, so they only keep in-memory aggregates: calls and
self time, where self time is inclusive time minus the inclusive time of
wrapped callees. Solves, minimizer runs and lattice descents also record
parent-linked spans, kept in memory and written out by the caller.

The wrappers double as an evaluation-closure check: every minimizer run
must charge the ``EvalCounter`` exactly ``SearchTrace.n_evaluations``
times its charges per call, and every wrapped evaluation path must see
exactly the calls the counter charged. A wrapper that misses or
double-counts a call path shows up in ``violations``.
"""
from __future__ import annotations

import time

import intfill.benchmarks
import intfill.cli
import intfill.core
import intfill.filled
import intfill.local_search
import intfill.solver


class Stat:
    __slots__ = ("calls", "self_s", "evals", "cap_runs")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.evals = 0
        self.cap_runs = 0


# Aggregates whose call counts the closure check reads.
_COUNTED = (
    "benchmarks.formula",
    "core.objective.lattice",
    "core.objective.relaxed",
    "core.objective.embedded",
    "filled.raw",
    "filled.augmented",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.violations: list[str] = []
        self.escapes = 0
        self.escapes_improved = 0
        self.escapes_repeated = 0
        self.anchors = 0
        self.other_evals = 0
        self._child = [0.0]  # wrapped-callee time of each open call
        self._open: list[int] = []  # ids of open spans
        self._counter = None  # EvalCounter of the solve in progress
        self._inner_evals = 0  # evals charged inside minimizers and descents
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn):
        stat = self.stat(name)
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - child.pop()
                stat.calls += 1
                child[-1] += dt

        return wrapper

    def _snapshot(self) -> dict[str, int]:
        """Counter total, evals inside minimizers, and calls of each counted path."""
        counter = self._counter
        snap = {name: self.stat(name).calls for name in _COUNTED}
        snap["evals"] = counter.n_fu + counter.n_fill if counter is not None else 0
        snap["inner"] = self._inner_evals
        return snap

    def _spanned(self, name: str, fn, finish):
        """Timed wrapper that also records a span; ``finish`` checks the call."""
        stat = self.stat(name)
        child = self._child
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "parent": open_[-1] if open_ else None, "name": name}
            spans.append(span)
            open_.append(span["id"])
            before = self._snapshot()
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.self_s += dt - child.pop()
                stat.calls += 1
                child[-1] += dt
                open_.pop()
                span["start"] = t0 - self._origin
                span["end"] = t1 - self._origin
            after = self._snapshot()
            delta = {key: after[key] - before[key] for key in after}
            finish(span, stat, delta, args, result)
            return result

        return wrapper

    def _minimizer_finish(self, entry: str, charges_of):
        """Check a minimizer run; ``entry`` is the wrapped call it evaluates."""

        def finish(span, stat, delta, args, result):
            _, trace = result
            evals = delta["evals"]
            nev = trace.n_evaluations
            span.update(evals=evals, n_evaluations=nev, termination=trace.termination)
            stat.evals += evals
            stat.cap_runs += trace.termination == "budget"
            self._inner_evals += evals
            charges = charges_of(args[1])
            if evals != nev * charges:
                self.violations.append(
                    f"{span['name']} span {span['id']}: counter charged {evals}, "
                    f"expected {nev} x {charges}"
                )
            for path in ("benchmarks.formula", entry):  # one call of each per evaluation
                if delta[path] != nev:
                    self.violations.append(
                        f"{span['name']} span {span['id']}: {path} saw "
                        f"{delta[path]} calls for {nev} evaluations"
                    )

        return finish

    def _lattice_finish(self, span, stat, delta, args, result):
        evals = delta["evals"]
        lattice = delta["core.objective.lattice"]
        span.update(evals=evals)
        stat.evals += evals
        self._inner_evals += evals
        if evals != lattice or delta["benchmarks.formula"] != lattice:
            self.violations.append(
                f"lattice descent span {span['id']}: counter charged {evals}, "
                f"lattice calls {lattice}, formula calls {delta['benchmarks.formula']}"
            )

    def _solve_finish(self, span, stat, delta, args, report):
        evals = delta["evals"]
        lattice = delta["core.objective.lattice"]
        relaxed = delta["core.objective.relaxed"]
        embedded = delta["core.objective.embedded"]
        raw = delta["filled.raw"]
        formula = delta["benchmarks.formula"]
        other = evals - delta["inner"]
        self.other_evals += other
        span.update(evals=evals, other_evals=other, termination=report.termination)
        if other < 0:
            self.violations.append(f"solve span {span['id']}: other evals {other} < 0")
        embedded_charged = embedded if args[0].count_in_filled else 0
        if evals != lattice + relaxed + embedded_charged + raw:
            self.violations.append(
                f"solve span {span['id']}: counter charged {evals}, wrapped "
                f"calls account for {lattice + relaxed + embedded_charged + raw}"
            )
        if formula != lattice + relaxed + embedded:
            self.violations.append(
                f"solve span {span['id']}: formula saw {formula} calls, "
                f"objective views made {lattice + relaxed + embedded}"
            )
        self._count_escapes(report.events)

    def _count_escapes(self, events: list[dict]) -> None:
        anchor = None
        seen: set[tuple] = set()
        for event in events:
            if event["kind"] == "anchor":
                anchor = event["point"]
                self.anchors += 1
            elif event["kind"] == "escape":
                key = (anchor, event["candidate"], event["r"])
                self.escapes += 1
                self.escapes_improved += bool(event["improved"])
                self.escapes_repeated += key in seen
                seen.add(key)

    def _solve(self, fn):
        spanned = self._spanned("solver", fn, self._solve_finish)

        def wrapper(obj, *args, **kwargs):
            self._counter = obj.counter
            try:
                return spanned(obj, *args, **kwargs)
            finally:
                self._counter = None

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        core, filled, ls = intfill.core, intfill.filled, intfill.local_search
        solver, cli, bm = intfill.solver, intfill.cli, intfill.benchmarks
        formulas = {f(None).func.__name__ for f in bm.PROBLEM_FACTORIES.values()}
        for fname in sorted(formulas):
            self._patch(bm, fname, self._timed("benchmarks.formula", getattr(bm, fname)))
        timed = [
            (core.BoxDomain, "clamp", "core.clamp"),
            (core.ObjectiveFunction, "__call__", "core.objective.lattice"),
            (core.ObjectiveFunction, "relaxed", "core.objective.relaxed"),
            (core.ObjectiveFunction, "embedded", "core.objective.embedded"),
            (solver, "neighborhood_argmin", "core.neighborhood_argmin"),
            (filled.InverseSquareFilled, "raw", "filled.raw"),
            (filled, "filled_value", "filled.filled_value"),
            (filled, "lattice_penalty", "filled.lattice_penalty"),
            (filled.AugmentedFilled, "__call__", "filled.augmented"),
            (cli, "execute_run", "cli.execute_run"),
            (cli, "write_csv", "cli.write"),
            (cli, "write_json", "cli.write"),
        ]
        for owner, attr, name in timed:
            self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        self._patch(
            ls.QuasiNewton,
            "minimize",
            self._spanned(
                "local_search.descent",
                ls.QuasiNewton.minimize,
                self._minimizer_finish("core.objective.relaxed", lambda fn: 1),
            ),
        )
        self._patch(
            ls.CompassSearch,
            "minimize",
            self._spanned(
                "local_search.escape",
                ls.CompassSearch.minimize,
                # Each filled evaluation also charges its embedded objective.
                self._minimizer_finish(
                    "filled.augmented", lambda fn: 1 + fn.base.objective.count_in_filled
                ),
            ),
        )
        self._patch(
            solver,
            "steepest_descent_discrete",
            self._spanned(
                "local_search.lattice_descent",
                solver.steepest_descent_discrete,
                self._lattice_finish,
            ),
        )
        self._patch(solver, "solve", self._solve(solver.solve))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float, evals: int) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}

        def add(name: str, stat: Stat, *extra: str) -> None:
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
            for field in extra:
                out[f"{name}.{field}"] = (getattr(stat, field), "count")

        add("benchmarks.formula", self.stat("benchmarks.formula"))
        add("core.clamp", self.stat("core.clamp"))
        parts = {k: self.stat(f"core.objective.{k}") for k in ("lattice", "relaxed", "embedded")}
        out["core.objective.calls"] = (sum(s.calls for s in parts.values()), "count")
        out["core.objective.self_s"] = (sum(s.self_s for s in parts.values()), "s")
        for k, s in parts.items():
            out[f"core.objective.{k}_calls"] = (s.calls, "count")
        add("core.neighborhood_argmin", self.stat("core.neighborhood_argmin"))
        for name in ("raw", "filled_value", "lattice_penalty", "augmented"):
            add(f"filled.{name}", self.stat(f"filled.{name}"))
        add("local_search.descent", self.stat("local_search.descent"), "evals", "cap_runs")
        add("local_search.escape", self.stat("local_search.escape"), "evals", "cap_runs")
        add("local_search.lattice_descent", self.stat("local_search.lattice_descent"), "evals")
        add("solver", self.stat("solver"))
        out["solver.escapes"] = (self.escapes, "count")
        out["solver.escapes_improved"] = (self.escapes_improved, "count")
        out["solver.escape_success_ratio"] = (
            self.escapes_improved / self.escapes if self.escapes else 0.0,
            "ratio",
        )
        out["solver.escapes_repeated"] = (self.escapes_repeated, "count")
        out["solver.escape_repeat_ratio"] = (
            self.escapes_repeated / self.escapes if self.escapes else 0.0,
            "ratio",
        )
        out["solver.anchors"] = (self.anchors, "count")
        out["solver.other_evals"] = (self.other_evals, "count")
        out["solver.us_per_eval"] = (untraced_wall / evals * 1e6, "us")
        add("cli.execute_run", self.stat("cli.execute_run"))
        add("cli.write", self.stat("cli.write"))
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        return out
