"""Samples how fast this host runs while a repetition runs.

The host is shared, and its speed drifts within seconds and across minutes
(see README.md, "Why the speedometer"). Every INTERVAL_S a SIGALRM handler
runs one fixed slice of work and records how long it took. A slice calls
nothing in circbound, so a change to the program does not move it; only the
host's speed does. A span of the repetition is then reported at the
reference speed: its time minus the time spent in slices, multiplied by the
mean of (the slice's reference time / its measured time) over the slices
taken during the span.

Hosts slow different kinds of work by different shares, so each workload
times a slice of the kind of work its own hot path does (SLICES). Set-up,
which is mostly importing, always uses the pure-Python slice. That slice
needs only the standard library, so sampling can start before numpy, scipy
and circbound are imported.
"""
from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05


def _python_work() -> None:
    # float arithmetic, object and dict churn, and a keyed sort: interpreter
    # work like the score-matrix assembly loops, and like importing
    rows = {}
    for i in range(8000):
        rows[i] = (math.sqrt(i + 0.5) * math.cos(i * 1e-3), str(i))
    sorted(rows.values(), key=lambda row: row[1])


def _quadrature_work() -> None:
    # composite Gauss-Legendre sums of a von Mises-like integrand on 32 to
    # 256 panels: many numpy calls on arrays of a few hundred elements
    import numpy as np

    nodes = np.linspace(-0.96, 0.96, 8)
    weights = np.full(8, 0.25)
    for panels in (32, 64, 128, 256) * 10:
        edges = np.linspace(-math.pi, math.pi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        theta = (mid[:, None] + half * nodes[None, :]).ravel()
        acc = np.zeros_like(theta)
        for w, off in ((0.5, 0.1), (0.5, -0.2), (-0.3, 0.7)):
            acc += w * np.cos(theta + off)
        vals = np.exp(2.0 * acc - 1.0).reshape(panels, 8)
        float(half * np.sum(vals @ weights))


def _map_work() -> None:
    # a MAP Monte Carlo in miniature: seeded per-trial draws, a grid search
    # (complex samples times a Fourier basis through BLAS, real part, argmax
    # per row) and vectorized bisection steps on per-trial arrays
    import numpy as np

    for t in range(8):
        rng = np.random.default_rng([0, t])
        rng.vonmises(0.0, 1.0)
        rng.standard_normal(40)
    grid = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    k = np.arange(20)
    basis = np.exp(-1j * np.outer(k, grid))
    samples = rng.standard_normal((128, 20)) + 1j * rng.standard_normal((128, 20))
    peaks = grid[np.argmax(np.real(samples @ basis) + np.cos(grid)[None, :], axis=1)]
    a, b = peaks - 0.01, peaks + 0.01
    for _ in range(6):
        x = 0.5 * (a + b)
        f = np.real(np.sum(samples * np.exp(-1j * x[:, None] * k[None, :]), axis=1))
        right = f > 0.0
        a, b = np.where(right, x, a), np.where(right, b, x)


# slice per kind of work, with its time at the reference speed: about its
# median on the host described in README.md, so that rescaled times read as
# seconds on that host
SLICES = {
    "python": (_python_work, 0.0045),
    "quadrature": (_quadrature_work, 0.0035),
    "map": (_map_work, 0.0045),
}


class Speedometer:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (end, duration, scale)
        self._slice = SLICES["python"]
        self._busy = False

    def use(self, kind: str) -> None:
        """Time slices of this kind from now on."""
        self._slice = SLICES[kind]

    def sample(self, *_signal_args) -> None:
        """Run and time one slice; also the SIGALRM handler."""
        if self._busy:  # the timer fired while a slice ran: skip, never nest
            return
        self._busy = True
        work, ref_s = self._slice
        start = time.perf_counter()
        work()
        end = time.perf_counter()
        self.samples.append((end, end - start, ref_s / (end - start)))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """Slices that ended in [t0, t1]: (seconds spent in them, speed scale).

        The scale is the mean over those slices of reference time / measured
        time. It turns seconds measured at the host's speed during the window
        into seconds at the reference speed. A window too short for the timer
        is scaled by one slice taken now, outside it.
        """
        inside = [(d, k) for end, d, k in self.samples if t0 <= end <= t1]
        if not inside:
            self.sample()
            return 0.0, self.samples[-1][2]
        return sum(d for d, _ in inside), sum(k for _, k in inside) / len(inside)
