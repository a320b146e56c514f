"""Host pace: a fixed reference kernel timed at regular points of measured work.

On a shared host one core's speed drifts by up to 2x over tens of seconds,
and a whole run can fall in a fast or a slow phase, so plain times spread
between runs more than any useful bound. While a Pace runs, a one-shot
interval timer interrupts the work every INTERVAL_S, and the signal handler
times this kernel. Each stretch of work between two kernel calls is divided
by the kernel's slowdown at its two ends, so paced time reads as if the host
had run at the kernel's nominal time throughout. The kernel's own time is
left out of both the plain and the paced work time.

The kernel belongs to the benchmark, not to the program: a change to the
program leaves it as it is, so pacing cancels host drift and keeps every
change to the program's own speed. It is built from two kinds of work, and
each workload is paced by the mix that matches what dominates it:

- COMPUTE: an interpreter loop (the battery walk, the solver's scalar code),
  small NumPy calls (the price search) and random draws (the Monte Carlo
  streams).
- HALF_STREAM: half that, plus exp passes over an array larger than a
  core's private caches, for map_marginal fusion. In a host's fast phases
  the COMPUTE kernel sped up more than map_marginal fusion did, and the
  solver sped up more than a half-stream kernel did.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.5            # work time between two kernel calls
SMALL = 101                 # one battery level table
STREAM = 2_000_000          # 16 MB per array
# nominal seconds of one compute unit and of one stream pass, on a 2-vCPU
# Xeon at 2.0 GHz; they only scale the results
UNIT_NOMINAL_S = 0.0125
PASS_NOMINAL_S = 0.0025

# (compute units, stream passes) per kernel call
COMPUTE = (2, 0)
HALF_STREAM = (1, 4)


def nominal_s(mix) -> float:
    """The kernel's nominal time in `mix`."""
    units, passes = mix
    return units * UNIT_NOMINAL_S + passes * PASS_NOMINAL_S


class Pace:
    """Plain and paced work time of a timed stretch of the program."""

    def __init__(self):
        self._small = np.linspace(0.1, 2.0, SMALL)
        self._rng = np.random.default_rng(0)
        self._stream = self._out = None
        self.kernel_s: list[float] = []     # every timed kernel call, for the record
        self.kernel_total_s = 0.0
        self._mix = COMPUTE
        self._reset()
        self._kernel()                      # first calls pay one-off costs

    def _reset(self):
        self.work_s = 0.0                   # work time, kernel calls excluded
        self.paced_s = 0.0                  # the same time at the kernel's nominal pace
        self._mark = self._last = None
        self._saved = None

    def _kernel(self) -> float:
        units, passes = self._mix
        t0 = time.perf_counter()
        acc, table, x = 0.0, [0.5 * i for i in range(64)], self._small
        for _ in range(units):
            for i in range(40_000):
                j = i & 63
                acc += table[j] * 1.0001 if j & 1 else -table[j]
            for _ in range(375):
                y = np.exp(-0.3 * x) + np.log1p(x)
                acc += float(y.sum()) + float(np.maximum(y, 0.5).max())
            for _ in range(3):
                acc += float(self._rng.random(200_000)[0])
        for _ in range(passes):
            np.exp(self._stream, out=self._out)
        return time.perf_counter() - t0

    def _sample(self) -> float:
        dt = self._kernel()
        self.kernel_s.append(dt)
        self.kernel_total_s += dt
        return dt

    def _close_stretch(self):
        stretch = time.perf_counter() - self._mark
        now = self._sample()
        self.work_s += stretch
        self.paced_s += stretch * 2.0 * nominal_s(self._mix) / (self._last + now)
        self._last = now
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame):
        self._close_stretch()
        # re-armed only here, so the handler never runs inside itself
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self, mix=COMPUTE):
        """Sample the kernel in `mix`, open the first stretch and arm the timer."""
        self._reset()
        self._mix = mix
        if mix[1] and self._stream is None:
            self._stream = np.random.default_rng(0).random(STREAM)
            self._out = np.empty_like(self._stream)
            self._kernel()
        self._last = self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Disarm the timer, close the last stretch; return (work_s, paced_s)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._close_stretch()
        return self.work_s, self.paced_s


class NoPace:
    """Traced runs: no kernel calls; paced time is plain time."""

    kernel_s: list[float] = []
    kernel_total_s = 0.0

    def start(self, mix=COMPUTE):
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        elapsed = time.perf_counter() - self._t0
        return elapsed, elapsed
