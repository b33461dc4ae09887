"""Machine-speed normalization of timed samples.

The benchmark's machine shares its cores with other tenants, and its speed
drifts by up to a third over tens of seconds: interpreter loops and numpy
kernels slow down together.  Every timed sample is therefore divided by a
speed factor, measured by fixed calibration kernels run right before and
right after the sample.  A factor of 1 means the kernels ran at their
reference times, so normalized values are in seconds at the reference speed
of this machine.  Changes to spdcherald do not touch the kernels, so they
still move the normalized values in full.

The kernels resemble the phases' work:

* ``interp``: a pure-Python loop (interpreter start, import, validation),
* ``small``: many numpy calls on 64-element arrays (the analytic core),
* ``large``: a Philox stream, searchsorted, binomial draws and a masked
  histogram over 2^19 pulses, as in the Monte Carlo kernels.

The MC phase uses ``interp`` and ``large``, the CLI and design phases and
worker set-up ``interp`` and ``small``.  The benchmark pins itself to one
CPU, so a CLI subprocess runs on the CPU its calibrations were timed on.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

# kernel times in seconds at the reference speed (the fastest of repeated
# runs on the reference machine described in README.md)
REFERENCE_S = {"interp": 0.0102, "small": 0.0060, "large": 0.0268}
PHASE_KERNELS = {"cli": ("interp", "small"), "design": ("interp", "small"), "mc": ("interp", "large")}
_CDF = np.array([0.9, 0.99, 1.0])


def _interp() -> None:
    total = 0
    for i in range(150_000):
        total += i * i


def _small() -> None:
    x = np.arange(64, dtype=float)
    for i in range(1400):
        float((np.exp(-x * 0.01 * (i % 7 + 1)) * x).sum())


def _large() -> None:
    rng = np.random.Generator(np.random.Philox(key=1))
    n = np.searchsorted(_CDF, rng.random(1 << 19)).astype(np.int64)
    hit = (rng.binomial(n, 0.1) > 0) | (rng.random(1 << 19) < 1e-3)
    np.bincount(rng.binomial(n, 0.2)[np.flatnonzero(hit)], minlength=8)


KERNELS = {"interp": _interp, "small": _small, "large": _large}


def speed_factor(kinds) -> float:
    """Geometric mean over ``kinds`` of measured / reference kernel time."""
    logs = []
    for kind in kinds:
        t0 = time.perf_counter()
        KERNELS[kind]()
        logs.append(math.log((time.perf_counter() - t0) / REFERENCE_S[kind]))
    return math.exp(sum(logs) / len(logs))


class Clock:
    """Brackets timed segments with calibrations.

    A segment's speed factor is the geometric mean of the calibration taken
    before it and the one taken after it; the calibration after one segment
    serves as the one before the next.
    """

    def __init__(self, kinds):
        self.kinds = kinds
        self.factors: list[float] = []

    def _calibrate(self) -> float:
        self.factors.append(speed_factor(self.kinds))
        return self.factors[-1]

    @contextmanager
    def segment(self):
        seg = {"before": self.factors[-1] if self.factors else self._calibrate()}
        yield seg
        seg["factor"] = math.sqrt(seg["before"] * self._calibrate())
