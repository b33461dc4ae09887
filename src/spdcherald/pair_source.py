"""Per-pulse photon-pair number statistics and their transformation under loss.

The source emits pairs with a per-pulse number distribution parameterized by
the mean pair number ``mu``.  Three laws are supported:

* ``poissonian`` -- many-mode pulsed parametric fluorescence (the default),
* ``thermal`` -- a single Schmidt mode,
* ``multimode_thermal`` -- ``modes`` identical thermal modes; converges to
  the poissonian law as the mode count grows.

Loss (coupling, bulk optics, detector efficiency) acts by binomial thinning:
every photon survives independently with the channel transmission.

Factorials come from :func:`log_factorial` (exact integer factorials), so the
module needs only numpy and the standard library.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PairNumberDistribution:
    """Pair-number law of the source, per pump pulse."""

    law: str = "poissonian"
    mean: float = 0.0
    modes: int | None = None

    def __post_init__(self):
        if self.law not in LAWS:
            raise ValidationError(f"unknown pair-number law {self.law!r}; expected one of {LAWS}")
        require_finite("mean pair number", self.mean)
        if not (self.mean >= 0.0):
            raise ValidationError(f"mean pair number must be >= 0, got {self.mean}")
        if self.law == "multimode_thermal":
            if self.modes is None or self.modes < 1:
                raise ValidationError("multimode_thermal requires modes >= 1")
        elif self.modes is not None:
            raise ValidationError(f"modes is only meaningful for multimode_thermal, got law {self.law!r}")

    def pmf(self, n: int) -> float:
        """Probability of exactly ``n`` pairs in one pulse."""
        if n < 0:
            raise DomainError(f"pair count must be >= 0, got {n}")
        mu = self.mean
        if mu == 0.0:
            return 1.0 if n == 0 else 0.0
        if self.law == "poissonian":
            return float(np.exp(n * np.log(mu) - mu - log_factorial(n)))
        if self.law == "thermal":
            return float(mu**n / (1.0 + mu) ** (n + 1))
        m = self.modes
        # negative binomial: M identical thermal modes of mean mu/M each
        if n + m - 1 > 170:
            # the lgamma difference of two huge logs cancels; comb is exact
            log_c = math.log(math.comb(n + m - 1, n))
        else:
            log_c = log_factorial(n + m - 1) - log_factorial(n) - log_factorial(m - 1)
        log_p = n * np.log(mu / m) - (n + m) * np.log1p(mu / m)
        return float(np.exp(log_c + log_p))

    def pmf_vector(self, n_max: int | None = None) -> np.ndarray:
        """Truncated pmf ``p[0..N]`` with tail mass below :data:`TAIL_MASS`.

        ``n_max`` forces a fixed truncation instead of the adaptive one.  The
        adaptive one stops at :data:`MAX_PAIRS` and warns with the dropped
        tail mass if that is above :data:`TAIL_MASS`.
        """
        if n_max is not None:
            return np.array([self.pmf(n) for n in range(n_max + 1)])
        probs = [self.pmf(0)]
        total = probs[0]
        n = 0
        while total < 1.0 - TAIL_MASS and n < MAX_PAIRS:
            n += 1
            probs.append(self.pmf(n))
            total += probs[-1]
        if total < 1.0 - TAIL_MASS:
            warnings.warn(
                f"{self.law} pmf at mean {self.mean} truncated at {MAX_PAIRS} pairs; "
                f"dropped tail mass {1.0 - total:.3g}",
                ResolutionWarning,
                stacklevel=2,
            )
        return np.array(probs)

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
    lf = np.array([log_factorial(i) for i in range(p.size)])
    n = np.arange(p.size)[:, None]
    k = n.T
    lower = k <= n
    nk = np.where(lower, n - k, 0)
    log_b = lf[n] - lf[k] - lf[nk] + k * np.log(s) + nk * np.log1p(-s)
    return p @ np.where(lower, np.exp(log_b), 0.0)


# Calibration reproducing the reference source: mu = 0.0829 at 240 mW.
REFERENCE_CALIBRATION_PER_MW = 0.0829 / 240.0
