"""Per-pulse photon-pair number statistics and their transformation under loss.

The source emits pairs with a per-pulse number distribution parameterized by
the mean pair number ``mu``.  Three laws are supported:

* ``poissonian`` -- many-mode pulsed parametric fluorescence (the default),
* ``thermal`` -- a single Schmidt mode,
* ``multimode_thermal`` -- ``modes`` identical thermal modes; converges to
  the poissonian law as the mode count grows.

Loss (coupling, bulk optics, detector efficiency) acts by binomial thinning:
every photon survives independently with the channel transmission, through
one table (:func:`thinning_table`) that the analytic heralded law sums and the
Monte Carlo draws from.  Binomial coefficients come from ``math.comb`` and
factorials from :func:`log_factorial`, so the module needs only numpy and the
standard library.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .defaults import LAWS
from .errors import DomainError, ValidationError, require_integer, require_range

# Adaptive truncation: extend the pmf until the remaining tail mass is below
# TAIL_MASS; a law that needs more than MAX_PAIRS pairs for that is refused
# (mu <= 0.25 in all intended use).
TAIL_MASS = 1e-15
MAX_PAIRS = 64


def log_factorial(n: int) -> float:
    """``ln n!`` from the exact factorial while n! fits a float (n <= 170).

    ``math.lgamma`` is an ulp off at small integers, an error the cancellation
    in click probabilities ``1 - (1-d) G(x)`` amplifies ~1e4 times.  Beyond
    170! ``lgamma`` is accurate and keeps large mode counts cheap.
    """
    return math.log(math.factorial(n)) if n <= 170 else math.lgamma(n + 1.0)


_LOG_FACTORIAL = np.array([log_factorial(n) for n in range(171)])


@dataclass(frozen=True)
class PairNumberDistribution:
    """Pair-number law of the source, per pump pulse."""

    law: str = LAWS[0]
    mean: float = 0.0
    modes: int | None = None

    def __post_init__(self):
        if self.law not in LAWS:
            raise ValidationError(f"unknown pair-number law {self.law!r}; expected one of {LAWS}", "law")
        require_range("mean pair number", self.mean, 0.0, field="mean")
        if self.law == "multimode_thermal":
            if self.modes is None or require_integer("modes", self.modes) < 1:
                raise ValidationError("multimode_thermal requires modes >= 1", "modes")
            if self.modes > sys.float_info.max:  # the laws divide by the mode count as a float
                raise ValidationError(
                    f"modes must not exceed the largest float, got a {self.modes.bit_length()}-bit integer", "modes"
                )
        elif self.modes is not None:
            raise ValidationError(f"modes is only meaningful for multimode_thermal, got law {self.law!r}", "modes")

    def pmf(self, n: int) -> float:
        """Probability of exactly ``n`` pairs in one pulse."""
        return float(self._head(n + 1)[n])

    def _head(self, size: int) -> np.ndarray:
        """``pmf(0..size-1)``: the one formula of each law."""
        if size < 1:
            raise DomainError(f"pair count must be >= 0, got {size - 1}")
        mu = self.mean
        # a mean per mode that underflows to 0 is within one subnormal of the point mass at 0
        if mu / (self.modes or 1) == 0.0:
            return np.eye(1, size)[0]
        if self.law == "thermal":
            # Python floats: libm pow, which numpy's power does not match bit for bit
            try:
                return np.array([mu**n / (1.0 + mu) ** (n + 1) for n in range(size)])
            except OverflowError:
                raise ValidationError(f"the thermal pmf at mean {mu} overflows a float by {size} terms", "mean") from None
        n = np.arange(size)
        if self.law == "poissonian":
            # ln n! from the table while n! fits a float
            log_f = _LOG_FACTORIAL[:size] if size <= 171 else np.array([log_factorial(k) for k in range(size)])
            return np.exp(n * np.log(mu) - mu - log_f)
        m, lf = self.modes, _LOG_FACTORIAL
        # negative binomial: M identical thermal modes of mean mu/M each
        if size + m - 2 <= 170:  # n + M - 1 <= 170 for every n < size: all from the table
            log_c, n_plus_m = (lf[m - 1 : m - 1 + size] - lf[:size]) - lf[m - 1], n + m
        else:  # past 170! the lgamma difference of two huge logs cancels; comb is exact
            log_c = [math.log(math.comb(k + m - 1, k)) if k + m - 1 > 170 else (lf[k + m - 1] - lf[k]) - lf[m - 1]
                     for k in range(size)]
            n_plus_m = np.array(range(m, m + size), dtype=float)
        return np.exp(log_c + (n * np.log(mu / m) - n_plus_m * np.log1p(mu / m)))

    def pmf_vector(self) -> np.ndarray:
        """Truncated pmf ``p[0..N]`` with tail mass below :data:`TAIL_MASS`.

        The truncation stops at :data:`MAX_PAIRS`; a law with more tail mass
        left there is refused with a :class:`ValidationError` naming the mean
        and the dropped mass, since no model here is right without it.
        """
        # a first length from the thermal tail (mu/(1+mu))^(n+1), the longest of the three laws;
        # the full length holds two terms past MAX_PAIRS, which bound the tail
        mu, full = self.mean, MAX_PAIRS + 3
        size = math.ceil(math.log(TAIL_MASS) / math.log(mu / (1.0 + mu))) + 2 if 0.0 < mu < 1.0 else full
        probs = self._head(size)
        # running totals added in sequence: the first to reach 1 - TAIL_MASS ends the pmf
        total = list(accumulate(probs.tolist()))
        if total[-1] < 1.0 - TAIL_MASS and size < full:  # the first length fell short
            probs = self._head(full)
            total = list(accumulate(probs.tolist()))
        last = min(bisect_left(total, 1.0 - TAIL_MASS), MAX_PAIRS)
        # only a pmf cut at MAX_PAIRS can fall short, and a shortfall of a few
        # ulps can be rounding in large terms: it is a cut only where the tail is
        # real.  The ratio of successive terms never grows with n under any of the
        # three laws, so the tail is at most a geometric series in the ratio of
        # its first two terms; an underflowed first term bounds nothing.
        if total[last] < 1.0 - TAIL_MASS:
            first, second = probs[MAX_PAIRS + 1 :].tolist()
            if not (0.0 < first and second < first and first / (1.0 - second / first) < TAIL_MASS):
                raise ValidationError(
                    f"the {self.law} pmf at mean {mu} is cut at MAX_PAIRS = {MAX_PAIRS} pairs, "
                    f"dropping tail mass {1.0 - total[last]:.3g}; the models need the whole law",
                    "mean",
                )
        return probs[: last + 1]

    def detected_mean(self, c: float) -> float:
        """``G^-1``: the mean detected pair number ``x = mean * beta`` where the
        generating function ``G(1 - beta)`` is ``1 - c``, whatever the mean."""
        if self.law == "poissonian":
            return -math.log1p(-c)
        if self.law == "thermal":
            return c / (1.0 - c)
        x = -math.log1p(-c)
        per_mode = x / self.modes
        # expm1 is the identity below the normal floats, where M * expm1(x / M) loses x
        return x if per_mode < sys.float_info.min else self.modes * math.expm1(per_mode)

    def second_order_coherence(self) -> float:
        """Unconditioned g2(0) of the law: <n(n-1)>/<n>^2, loss-invariant."""
        if self.law == "poissonian":
            return 1.0
        if self.law == "thermal":
            return 2.0
        return 1.0 + 1.0 / self.modes


# The tables are cached by value, since setups that differ only in law, mean,
# window or dead time share their optics.  Callers share a cached table, so
# each builder marks its table read-only.
@functools.lru_cache(maxsize=256)  # at most 256 x 3 x 65 floats: 0.4 MB
def power_table(points: tuple[float, ...]) -> np.ndarray:
    """``x**n`` for n <= MAX_PAIRS, one row per point x of ``points``.  The
    power is elementwise, so a pmf of any length reads the prefix of its own
    length, bit for bit a table of that length."""
    table = np.array(points)[:, None] ** np.arange(MAX_PAIRS + 1)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=256)  # at most 256 x 65 x 65 floats: 8.7 MB
def thinning_table(survival: float, size: int) -> np.ndarray:
    """``C(n, m) s^m (1-s)^(n-m)`` for n, m < ``size``: row n is the law of the
    survivors of n photons, each surviving with ``s``.  ``0**0 = 1`` makes the
    tables at s = 0 and s = 1 ordinary ones."""
    n, m = np.arange(size)[:, None], np.arange(size)
    table = _binomial_coefficients(size) * survival**m * (1.0 - survival) ** np.maximum(n - m, 0)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _binomial_coefficients(size: int) -> np.ndarray:
    """C(n, m) for n, m < ``size`` as read-only floats, each ``math.comb``
    rounded once (0 for m > n), while C(n, m) fits a float (size <= 1030)."""
    table = np.array([[float(math.comb(n, m)) for m in range(size)] for n in range(size)])
    table.setflags(write=False)
    return table


# Calibration reproducing the reference source: mu = 0.0829 at 240 mW.
REFERENCE_CALIBRATION_PER_MW = 0.0829 / 240.0
