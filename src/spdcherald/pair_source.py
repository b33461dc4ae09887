"""Per-pulse photon-pair number statistics and their transformation under loss.

The source emits pairs with a per-pulse number distribution parameterized by
the mean pair number ``mu``.  Three laws are supported:

* ``poissonian`` -- many-mode pulsed parametric fluorescence (the default),
* ``thermal`` -- a single Schmidt mode,
* ``multimode_thermal`` -- ``modes`` identical thermal modes; converges to
  the poissonian law as the mode count grows.

Loss (coupling, bulk optics, detector efficiency) acts by binomial thinning:
every photon survives independently with the channel transmission.

Factorials come from a table of :func:`log_factorial` (exact integer factorials),
so the module needs only numpy and the standard library.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, ResolutionWarning, ValidationError, require_finite

LAWS = ("poissonian", "thermal", "multimode_thermal")

# Adaptive truncation: extend the pmf until the remaining tail mass is below
# TAIL_MASS, never beyond MAX_PAIRS pairs (mu <= 0.25 in all intended use).
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


def _log_factorials(size: int) -> np.ndarray:
    """``ln n!`` for n < ``size``, from a table while n! fits a float."""
    return _LOG_FACTORIAL[:size] if size <= 171 else np.array([log_factorial(n) for n in range(size)])


@dataclass(frozen=True)
class PairNumberDistribution:
    """Pair-number law of the source, per pump pulse."""

    law: str = "poissonian"
    mean: float = 0.0
    modes: int | None = None

    def __post_init__(self):
        if self.law not in LAWS:
            raise ValidationError(f"unknown pair-number law {self.law!r}; expected one of {LAWS}", "law")
        require_finite("mean pair number", self.mean)
        if not (self.mean >= 0.0):
            raise ValidationError(f"mean pair number must be >= 0, got {self.mean}", "mean")
        if self.law == "multimode_thermal":
            if self.modes is None or self.modes < 1:
                raise ValidationError("multimode_thermal requires modes >= 1", "modes")
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
        if mu == 0.0:
            return np.eye(1, size)[0]
        if self.law == "thermal":
            # Python floats: libm pow, which numpy's power does not match bit for bit
            return np.array([mu**n / (1.0 + mu) ** (n + 1) for n in range(size)])
        n = np.arange(size)
        if self.law == "poissonian":
            return np.exp(n * np.log(mu) - mu - _log_factorials(size))
        m, lf = self.modes, _LOG_FACTORIAL
        # negative binomial: M identical thermal modes of mean mu/M each
        if size + m - 2 <= 170:  # n + M - 1 <= 170 for every n < size: all from the table
            log_c, n_plus_m = (lf[m - 1 : m - 1 + size] - lf[:size]) - lf[m - 1], n + m
        else:  # past 170! the lgamma difference of two huge logs cancels; comb is exact
            log_c = [math.log(math.comb(k + m - 1, k)) if k + m - 1 > 170 else (lf[k + m - 1] - lf[k]) - lf[m - 1]
                     for k in range(size)]
            n_plus_m = np.array(range(m, m + size), dtype=float)
        return np.exp(log_c + (n * np.log(mu / m) - n_plus_m * np.log1p(mu / m)))

    def pmf_vector(self, n_max: int | None = None) -> np.ndarray:
        """Truncated pmf ``p[0..N]`` with tail mass below :data:`TAIL_MASS`.

        ``n_max`` forces a fixed truncation instead of the adaptive one.  The
        adaptive one stops at :data:`MAX_PAIRS` and warns with the dropped
        tail mass if that is above :data:`TAIL_MASS`.
        """
        if n_max is not None:
            return self._head(n_max + 1)
        # a first length from the thermal tail (mu/(1+mu))^(n+1), the longest of the three laws
        mu = self.mean
        size = math.ceil(math.log(TAIL_MASS) / math.log(mu / (1.0 + mu))) + 2 if 0.0 < mu < 1.0 else MAX_PAIRS + 1
        probs = self._head(size)
        # running totals added in sequence: the first to reach 1 - TAIL_MASS ends the pmf
        total = list(accumulate(probs.tolist()))
        if total[-1] < 1.0 - TAIL_MASS and size <= MAX_PAIRS:  # the first length fell short
            probs = self._head(MAX_PAIRS + 1)
            total = list(accumulate(probs.tolist()))
        n = min(bisect_left(total, 1.0 - TAIL_MASS), MAX_PAIRS)
        if total[n] < 1.0 - TAIL_MASS:
            warnings.warn(
                f"{self.law} pmf at mean {self.mean} truncated at {MAX_PAIRS} pairs; "
                f"dropped tail mass {1.0 - total[n]:.3g}",
                ResolutionWarning,
                stacklevel=2,
            )
        return probs[: n + 1]

    def second_order_coherence(self) -> float:
        """Unconditioned g2(0) of the law: <n(n-1)>/<n>^2, loss-invariant."""
        if self.law == "poissonian":
            return 1.0
        if self.law == "thermal":
            return 2.0
        return 1.0 + 1.0 / self.modes


def thin(pmf: np.ndarray, survival: float) -> np.ndarray:
    """Binomial thinning of a photon-number pmf.

    ``out[k] = sum_n pmf[n] C(n,k) s^k (1-s)^(n-k)`` -- each photon survives
    independently with probability ``s``.  Normalization is preserved.
    """
    s = float(survival)
    if not (0.0 <= s <= 1.0):
        raise ValidationError(f"survival probability must lie in [0, 1], got {s}")
    p = np.asarray(pmf, dtype=float)
    if s == 1.0:
        return p.copy()
    if s == 0.0:
        out = np.zeros_like(p)
        out[0] = p.sum()
        return out
    grid = _log_binomial_grid if p.size <= MAX_PAIRS + 1 else _log_binomial_grid.__wrapped__
    log_c, k, n_minus_k = grid(p.size)
    return p @ np.exp(log_c + k * np.log(s) + n_minus_k * np.log1p(-s))


@functools.lru_cache(maxsize=None)
def _log_binomial_grid(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ln C(n, k)`` as ``(lf[n] - lf[k]) - lf[n-k]``, -inf above the diagonal
    (k > n), the row of k, and ``n - k``, 0 there; built once per size up to MAX_PAIRS + 1."""
    lf = _log_factorials(size)
    n, k = np.ogrid[:size, :size]
    n_minus_k = np.maximum(n - k, 0)
    return np.where(k <= n, (lf[n] - lf[k]) - lf[n_minus_k], -np.inf), k, n_minus_k


# Calibration reproducing the reference source: mu = 0.0829 at 240 mW.
REFERENCE_CALIBRATION_PER_MW = 0.0829 / 240.0
