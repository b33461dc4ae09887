import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdcherald.errors import DomainError, ResolutionWarning, ValidationError
from spdcherald.pair_source import (
    MAX_PAIRS,
    PairNumberDistribution,
    log_factorial,
    thin,
)

MU_REF = 0.0829


def brute_force_thin(pmf, s):
    """Independent oracle: explicit binomial convolution."""
    out = [0.0] * len(pmf)
    for n, p in enumerate(pmf):
        for k in range(n + 1):
            out[k] += p * math.comb(n, k) * s**k * (1.0 - s) ** (n - k)
    return np.array(out)


class TestPmf:
    def test_poisson_reference_values(self):
        dist = PairNumberDistribution("poissonian", MU_REF)
        # series evaluation: e^-mu mu^n / n!
        assert dist.pmf(0) == pytest.approx(math.exp(-MU_REF), rel=1e-12)
        assert dist.pmf(0) == pytest.approx(0.92044, abs=1e-5)
        assert dist.pmf(1) == pytest.approx(MU_REF * math.exp(-MU_REF), rel=1e-12)
        assert dist.pmf(1) == pytest.approx(0.07631, abs=1e-5)

    @pytest.mark.parametrize("law,modes", [("poissonian", None), ("thermal", None), ("multimode_thermal", 3)])
    def test_vacuum(self, law, modes):
        dist = PairNumberDistribution(law, 0.0, modes)
        assert dist.pmf(0) == 1.0
        assert dist.pmf(3) == 0.0

    def test_thermal_form(self):
        mu = 0.2
        dist = PairNumberDistribution("thermal", mu)
        for n in range(6):
            assert dist.pmf(n) == pytest.approx(mu**n / (1 + mu) ** (n + 1), rel=1e-12)

    def test_multimode_single_mode_is_thermal(self):
        mm = PairNumberDistribution("multimode_thermal", 0.15, modes=1)
        th = PairNumberDistribution("thermal", 0.15)
        for n in range(10):
            assert mm.pmf(n) == pytest.approx(th.pmf(n), rel=1e-10)

    def test_multimode_limit_is_poissonian(self):
        mm = PairNumberDistribution("multimode_thermal", 0.1, modes=10_000)
        po = PairNumberDistribution("poissonian", 0.1)
        for n in range(8):
            assert abs(mm.pmf(n) - po.pmf(n)) < 1e-6

    @pytest.mark.parametrize("law,modes", [("poissonian", None), ("thermal", None), ("multimode_thermal", 5)])
    @pytest.mark.parametrize("mu", [0.0, 0.01, 0.0829, 0.25])
    def test_normalization(self, law, modes, mu):
        vec = PairNumberDistribution(law, mu, modes).pmf_vector()
        assert abs(vec.sum() - 1.0) < 1e-12
        assert np.all(vec >= 0.0)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            PairNumberDistribution("poissonian", 0.1).pmf(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            PairNumberDistribution("gaussian", 0.1)
        with pytest.raises(ValidationError):
            PairNumberDistribution("poissonian", -0.1)
        with pytest.raises(ValidationError):
            PairNumberDistribution("multimode_thermal", 0.1)
        with pytest.raises(ValidationError):
            PairNumberDistribution("poissonian", 0.1, modes=4)

    def test_second_order_coherence(self):
        assert PairNumberDistribution("poissonian", 0.1).second_order_coherence() == 1.0
        assert PairNumberDistribution("thermal", 0.1).second_order_coherence() == 2.0
        assert PairNumberDistribution("multimode_thermal", 0.1, 4).second_order_coherence() == 1.25


class TestLogFactorial:
    def test_exact_small_values(self):
        assert log_factorial(0) == log_factorial(1) == 0.0
        assert log_factorial(5) == math.log(120.0)

    def test_continuous_across_the_lgamma_switch(self):
        for n in (169, 170, 171, 172):
            assert log_factorial(n + 1) - log_factorial(n) == pytest.approx(math.log(n + 1), rel=1e-12)

    def test_large_mode_count_stays_cheap_and_poissonian(self):
        # exact factorials of ~1e5 would take seconds per pmf entry
        mm = PairNumberDistribution("multimode_thermal", 0.1, modes=10**5).pmf_vector(n_max=8)
        po = PairNumberDistribution("poissonian", 0.1).pmf_vector(n_max=8)
        assert np.max(np.abs(mm - po)) < 1e-6


    def test_huge_mode_count_normalized_and_poissonian(self):
        # ln C(n+m-1, n) as a difference of two lgamma values near 2e10 lost
        # ~1e-6 to cancellation; the sum was 1 + 3.7e-8
        m, mu = 10**9, 0.05
        pmf = PairNumberDistribution("multimode_thermal", mu, modes=m).pmf_vector()
        assert abs(pmf.sum() - 1.0) < 1e-12
        n = np.arange(pmf.size)
        poisson = PairNumberDistribution("poissonian", mu).pmf_vector(n_max=pmf.size - 1)
        # leading terms of ln(negative binomial / Poisson); the rest is O(n^3 / m^2)
        correction = np.exp(n * (n - 1) / (2 * m) - n * mu / m + mu**2 / (2 * m))
        np.testing.assert_allclose(pmf, poisson * correction, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(pmf[:2], poisson[:2], rtol=1e-9, atol=0.0)


class TestTruncation:
    @pytest.mark.parametrize("law,kept", [("thermal", 0.799), ("poissonian", 0.99983)])
    def test_warns_with_dropped_mass(self, law, kept):
        with pytest.warns(ResolutionWarning, match="dropped tail mass") as record:
            pmf = PairNumberDistribution(law, 40.0).pmf_vector()
        assert pmf.size == MAX_PAIRS + 1
        assert pmf.sum() == pytest.approx(kept, abs=5e-4)
        assert f"{1.0 - pmf.sum():.3g}" in str(record[0].message)

    def test_silent_within_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PairNumberDistribution("multimode_thermal", 1.0, modes=3).pmf_vector()
            PairNumberDistribution("thermal", 40.0).pmf_vector(n_max=MAX_PAIRS)


class TestThin:
    def test_poisson_closure(self):
        pmf = PairNumberDistribution("poissonian", 0.2).pmf_vector()
        target = PairNumberDistribution("poissonian", 0.2 * 0.3).pmf_vector(n_max=pmf.size - 1)
        thinned = thin(pmf, 0.3)
        assert np.max(np.abs(thinned - target)) < 1e-12

    def test_thermal_closure_against_brute_force(self):
        pmf = PairNumberDistribution("thermal", 0.15).pmf_vector()
        s = 0.4
        oracle = brute_force_thin(pmf, s)
        thinned = thin(pmf, s)
        assert np.max(np.abs(thinned - oracle)) < 1e-14
        target = PairNumberDistribution("thermal", 0.15 * s).pmf_vector(n_max=pmf.size - 1)
        assert np.max(np.abs(thinned - target)) < 1e-12

    def test_identity_at_unit_survival(self):
        pmf = PairNumberDistribution("thermal", 0.1).pmf_vector()
        assert np.array_equal(thin(pmf, 1.0), pmf)

    def test_full_loss(self):
        pmf = PairNumberDistribution("poissonian", 0.3).pmf_vector()
        out = thin(pmf, 0.0)
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(out[1:] == 0.0)

    def test_composition(self):
        pmf = PairNumberDistribution("poissonian", 0.25).pmf_vector()
        once = thin(thin(pmf, 0.6), 0.5)
        direct = thin(pmf, 0.3)
        assert np.max(np.abs(once - direct)) < 1e-12

    def test_mean_commutes(self):
        pmf = PairNumberDistribution("thermal", 0.2).pmf_vector()
        n = np.arange(pmf.size)
        mean = float((n * pmf).sum())
        thinned_mean = float((n * thin(pmf, 0.37)).sum())
        assert thinned_mean == pytest.approx(0.37 * mean, abs=1e-10)

    @given(
        mu=st.floats(1e-4, 0.25),
        s=st.floats(0.0, 1.0),
        law=st.sampled_from(["poissonian", "thermal"]),
    )
    def test_normalization_preserved(self, mu, s, law):
        pmf = PairNumberDistribution(law, mu).pmf_vector()
        assert abs(thin(pmf, s).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("law,modes", [("poissonian", None), ("thermal", None), ("multimode_thermal", 3)])
    def test_matches_brute_force_for_every_law(self, law, modes):
        pmf = PairNumberDistribution(law, 0.9, modes).pmf_vector()
        for s in (0.05, 0.5, 0.95):
            assert np.max(np.abs(thin(pmf, s) - brute_force_thin(pmf, s))) < 1e-14

    def test_invalid_survival(self):
        pmf = PairNumberDistribution("poissonian", 0.1).pmf_vector()
        with pytest.raises(ValidationError):
            thin(pmf, 1.5)
