"""Machine-speed meter: puts timings on a reference-speed scale.

The benchmark runs on a few cores of a shared host whose speed changes from
second to second and from minute to minute (neighbours on the same physical
cores): the same cycle can take 1.5x as long a minute later. A fixed
calibration kernel, run between program calls, measures that speed. A
program call's time is multiplied by REF_S over the median kernel time of
the samples from SPAN_S before the call to its end, so it reads as the time
the call would take on a host where the kernel takes REF_S. The kernel uses
no occelm code, so a change to the program moves the scaled times by the
same ratio as the wall times; only the host's speed drops out.

The kernel is a small mix of what occelm spends its time on: a 100x100 LAPACK
solve with 20 right-hand sides, a small matrix product, element-wise numpy
work, a Python-level loop, and passes over an array larger than the
per-core caches.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 4.3e-3  # defines the reference speed: about the median between program calls on a 2-vCPU VM
EVERY_S = 0.1  # take a fresh sample when the last one is older than this
SPAN_S = 0.5  # the samples this recent before a call measure its speed
BURST = 20  # most samples taken after one long call
REPS = 8  # kernel repetitions in one sample


class Meter:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        g = rng.normal(size=(100, 100))
        self._a = g @ g.T + 100.0 * np.eye(100)
        self._b = rng.normal(size=(100, 20))
        self._c = rng.normal(size=(20, 100))
        self._w = rng.normal(size=(600, 600))
        for _ in range(BURST):  # warm-up: first calls, caches
            self._kernel()
        self.samples: list[float] = []
        self._times: list[float] = []
        for _ in range(BURST):
            self._sample()

    def _kernel(self) -> float:
        start = perf_counter()
        for _ in range(REPS):
            x = np.linalg.solve(self._a, self._b)
            for row in np.tanh(self._c @ x):
                acc = 0.0
                for v in row[:20].tolist():
                    acc += v * v if v > 0.0 else -v
                row -= float(np.max(row)) - acc
        # two passes over a 2.9 MB array and a fresh temporary of that size:
        # cache and memory contention that the small matrices above miss
        self._w.sum(axis=0)
        (self._w * self._w).sum()
        return perf_counter() - start

    def _sample(self) -> None:
        self.samples.append(self._kernel())
        self._times.append(perf_counter())

    def mark(self) -> int:
        """Call right before a timed call: takes a fresh sample when the
        last one is older than EVERY_S, and returns the index of the first
        sample of the last SPAN_S seconds."""
        now = perf_counter()
        if now - self._times[-1] > EVERY_S:
            self._sample()
        k = len(self._times) - 1
        while k > 0 and now - self._times[k - 1] <= SPAN_S:
            k -= 1
        return k

    def factor(self, mark: int, secs: float) -> float:
        """REF_S over the median kernel time around a call that took `secs`
        and started at `mark`. A call longer than EVERY_S may have run at
        another speed than the samples before it show, so about one sample
        per EVERY_S of the call (at most BURST) is taken right after it."""
        for _ in range(min(BURST, int(secs / EVERY_S))):
            self._sample()
        return REF_S / statistics.median(self.samples[mark:])
