"""A fixed piece of work timed between solves, to take host speed out of times.

On a small shared VM the host slows every process by up to 1.8x for
seconds to tens of minutes, and that shows in CPU time as much as in
wall time. The yardstick is a short, fixed, solver-like loop (finite
differences and BFGS updates on small numpy arrays) that lives in the benchmark,
so it is the same on every commit. It runs between timed solves; a
solve's time is then scaled by how long the yardstick took around it:

    normalized = seconds * REFERENCE_S / (median yardstick time nearby)

which reads as the seconds the solve would take on a host where one
yardstick run takes ``REFERENCE_S``.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.005  # about one yardstick run on a quiet 2-core Xeon VM
WINDOW_S = 5.0  # yardstick runs this close to a solve give its host speed
NEAREST = 24  # ... or at least this many of the closest
RUNS_PER_SECOND = 10  # yardstick runs after a solve, per second it took
MAX_RUNS = 20


def work() -> np.ndarray:
    """Solver-like steps on a clamped 2-d quadratic.

    Each step takes a central difference at clamped probe points and
    makes a BFGS inverse-Hessian update, with the small-array numpy calls
    (``copy``, ``minimum``/``maximum``, ``outer``, ``@``, ``norm``) and
    Python float arithmetic that dominate a solve.
    """
    lo = np.full(2, -5.0)
    hi = np.full(2, 5.0)
    ident = np.eye(2)
    hess_inv = ident.copy()
    x = np.array([0.3, -0.2])
    g = np.array([1.0, 2.0])
    points = []
    for _ in range(100):
        xp = x.copy()
        xp[0] += 1e-6
        xm = x.copy()
        xm[0] -= 1e-6
        up = float(np.sum(np.minimum(np.maximum(xp, lo), hi) ** 2))
        down = float(np.sum(np.minimum(np.maximum(xm, lo), hi) ** 2))
        g_next = g * 0.99 + (up - down)
        yk = g_next - g
        s = -0.01 * (hess_inv @ g)
        sy = float(s @ yk) + 1.0
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yk):
            rho = 1.0 / sy
            left = ident - rho * np.outer(s, yk)
            hess_inv = left @ hess_inv @ left.T + rho * np.outer(s, s)
        x = np.minimum(np.maximum(x + s, lo), hi)
        points.append(x.copy())
        g = g_next
    return x


class Yardstick:
    """Yardstick runs in time order, and the scaling they give."""

    def __init__(self) -> None:
        self.mids: list[float] = []  # midpoint of each run, perf_counter seconds
        self.times: list[float] = []
        for _ in range(5):  # warm-up, not recorded
            work()

    def run(self, reps: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(reps):
            t0 = clock()
            work()
            t1 = clock()
            self.mids.append((t0 + t1) / 2)
            self.times.append(t1 - t0)

    def after(self, seconds: float) -> None:
        """Runs to follow a solve of ``seconds``: more after longer solves."""
        self.run(min(MAX_RUNS, max(1, round(seconds * RUNS_PER_SECOND))))

    def local(self, t0: float, t1: float) -> float:
        """Median time of the runs within ``WINDOW_S`` of the interval [t0, t1].

        Fewer than ``NEAREST`` runs there, and the ``NEAREST`` closest are used.
        """
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo >= NEAREST:
            return statistics.median(self.times[lo:hi])
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        window = range(max(0, lo - NEAREST), min(len(self.mids), hi + NEAREST))
        gap = [(max(t0 - self.mids[k], self.mids[k] - t1, 0.0), k) for k in window]
        nearest = sorted(gap)[:NEAREST]
        return statistics.median(self.times[k] for _, k in nearest)

    def normalize(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * REFERENCE_S / self.local(t0, t1)
