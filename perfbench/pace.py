"""Machine pace: a fixed numpy and Python kernel that shares no code with sscope.

On a shared host the same grid runs up to a third slower for minutes at a
time, while the process keeps its CPU (no steal time shows). The kernel's
time, taken just before and just after each timed piece of sscope work,
tracks that drift: on a 2-core box, dividing 48 MLP grids by it cut the
range of 8-grid medians from 32% to 17% of their median. Every reported time is therefore
scaled to the reference pace: seconds x PACE_REF / kernel seconds. The raw
times are kept in the run's facts.json.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's usual time on the 2-core box the bounds were set on
PACE_REF = 0.125


class Pace:
    def __init__(self, iterations: int = 300):
        rng = np.random.default_rng(0)
        # shapes of MiniCNN-6's im2col GEMMs and activations
        self._cols = rng.random((8192, 72), dtype=np.float32)
        self._weights = rng.random((72, 16), dtype=np.float32)
        self._act = rng.random((32, 8, 16, 16), dtype=np.float32)
        self._iterations = iterations
        self._last = None

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self._iterations):
            self._cols @ self._weights
            np.maximum(self._act, 0.5)
            np.ascontiguousarray(self._act.transpose(0, 2, 3, 1))
            table = {}
            for i in range(1000):
                table[i % 100] = i
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Time the kernel; return the factor from raw seconds to seconds at
        the reference pace for the work done since the previous mark."""
        now = self.seconds()
        last, self._last = self._last, now
        return 1.0 if last is None else PACE_REF * 2 / (last + now)
