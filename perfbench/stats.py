"""Order statistics used by every timing metric of the benchmark."""

from __future__ import annotations

import math

# A reported tail percentile must leave at least this many samples above it.
TAIL_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile ``q`` (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_rank(n: int) -> int:
    """0-based rank of the highest order statistic with >= 10 samples above it."""
    if n < TAIL_SAMPLES_BEYOND + 1:
        raise ValueError(f"a tail needs at least {TAIL_SAMPLES_BEYOND + 1} samples, got {n}")
    return n - 1 - TAIL_SAMPLES_BEYOND


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    k = tail_rank(len(xs))
    return 100.0 * k / (len(xs) - 1), xs[k]
