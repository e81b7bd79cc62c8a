"""Machine-speed reference for normalising timings.

On a shared host the same work can run up to ~1.6 times slower for
seconds at a time, and thread CPU time moves with wall time, so the
slowdown is slower execution, not lost turns.  A fixed kernel, unrelated
to ndyn, is timed between the measured operations; each operation's time
is then expressed at the speed at which the kernel takes ``REF_S``:

    normalised = measured * REF_S / kernel time around the operation

The kernel mixes the kinds of work ndyn does: interpreted complex
arithmetic, small-object churn, numpy calls on arrays of a few elements
(the Aberth sweeps), batched 8x8 eigensolves and array arithmetic over a
band of pixels.  It never calls ndyn, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.003          # kernel time at the reference speed


class Speed:
    SAMPLE_EVERY_S = 0.15  # measured work between two kernel samples
    WINDOW = 2             # samples on each side averaged into one scale

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._z = [complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(300)]
        self._coeffs = [complex(k, -k) for k in range(12)]
        self._mats = rng.standard_normal((96, 8, 8))
        self._small = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        self._band = (rng.standard_normal((32, 300))
                      + 1j * rng.standard_normal((32, 300)))
        self.samples: list = []

    def _kernel(self) -> tuple:
        acc = 0j
        for w in self._z:
            v = 0j
            for a in self._coeffs:
                v = v * w + a
            acc += v
        parts = [tuple(self._coeffs[:k]) for k in range(len(self._coeffs))]
        x = self._small
        for _ in range(60):
            d = x[:, None] - x[None, :]
            np.fill_diagonal(d, np.inf)
            x = x - 1e-3 * np.where(np.abs(x) > 1.0, x, (1.0 / d).sum(axis=1))
        np.linalg.eigvals(self._mats)
        g = self._band
        for _ in range(6):
            g = (g * g + 0.25) / (np.abs(g) + 1.0)
        return acc, parts, x, g

    def sample(self) -> int:
        """Time the kernel (best of two); returns the sample's index."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for work done between samples ``index`` and ``index + 1``:
        the median of the samples within WINDOW of that interval."""
        near = sorted(self.samples[max(0, index - self.WINDOW + 1):
                                   index + self.WINDOW + 1])
        return REF_S / near[len(near) // 2]

    def median_scale(self) -> float:
        ordered = sorted(self.samples)
        return REF_S / ordered[len(ordered) // 2]
