import functools
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdcherald import pair_source
from spdcherald.errors import DomainError, ValidationError
from spdcherald.pair_source import (
    MAX_PAIRS,
    TAIL_MASS,
    PairNumberDistribution,
    log_factorial,
)

MU_REF = 0.0829


def thin(pmf, s):
    """Binomial thinning of ``pmf``: the sum through the table the heralded law reads."""
    return pmf @ pair_source.thinning_table(s, pmf.size)


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

    @pytest.mark.parametrize("modes", [2.5, 3.0, math.nan, 0, -2])
    def test_mode_count_is_a_positive_integer(self, modes):
        # 2.5 and NaN were accepted, and the pmf failed on them with a raw TypeError or IndexError
        with pytest.raises(ValidationError) as info:
            PairNumberDistribution("multimode_thermal", 0.1, modes)
        assert info.value.field == "modes"

    @pytest.mark.parametrize("modes", [2**1024, 10**400, 2**1024 - 2**970 - 1])
    def test_mode_count_past_the_largest_float_is_refused(self, modes):
        # the laws divide by the count as a float: an OverflowError traceback, exit 1 from the CLI
        with pytest.raises(ValidationError, match="modes must not exceed the largest float") as info:
            PairNumberDistribution("multimode_thermal", 0.1, modes)
        assert info.value.field == "modes"

    def test_largest_float_mode_count_is_poissonian(self):
        mm = PairNumberDistribution("multimode_thermal", 0.1, int(sys.float_info.max)).pmf_vector()
        np.testing.assert_allclose(mm, PairNumberDistribution("poissonian", 0.1).pmf_vector(), rtol=1e-9, atol=0.0)

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
        mm = PairNumberDistribution("multimode_thermal", 0.1, modes=10**5)._head(9)
        po = PairNumberDistribution("poissonian", 0.1)._head(9)
        assert np.max(np.abs(mm - po)) < 1e-6


    def test_huge_mode_count_normalized_and_poissonian(self):
        # ln C(n+m-1, n) as a difference of two lgamma values near 2e10 lost
        # ~1e-6 to cancellation; the sum was 1 + 3.7e-8
        m, mu = 10**9, 0.05
        pmf = PairNumberDistribution("multimode_thermal", mu, modes=m).pmf_vector()
        assert abs(pmf.sum() - 1.0) < 1e-12
        n = np.arange(pmf.size)
        poisson = PairNumberDistribution("poissonian", mu)._head(pmf.size)
        # leading terms of ln(negative binomial / Poisson); the rest is O(n^3 / m^2)
        correction = np.exp(n * (n - 1) / (2 * m) - n * mu / m + mu**2 / (2 * m))
        np.testing.assert_allclose(pmf, poisson * correction, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(pmf[:2], poisson[:2], rtol=1e-9, atol=0.0)


class TestTruncation:
    @pytest.mark.parametrize("law,kept", [("thermal", 0.799), ("poissonian", 0.99983)])
    def test_refuses_naming_the_dropped_mass(self, law, kept):
        dist = PairNumberDistribution(law, 40.0)
        with pytest.raises(ValidationError, match="dropping tail mass") as info:
            dist.pmf_vector()
        assert info.value.field == "mean"
        head = dist._head(MAX_PAIRS + 1)  # what the pmf kept before it refused a cut law
        assert head.sum() == pytest.approx(kept, abs=5e-4)
        assert f"{law} pmf at mean 40.0 is cut at MAX_PAIRS = {MAX_PAIRS} pairs, dropping tail mass {1.0 - head.sum():.3g};" in str(info.value)

    @pytest.mark.parametrize(
        "law,mu,modes", [("multimode_thermal", 0.9275587785042025, 10**5), ("poissonian", 17.73813145632555, None)]
    )
    def test_rounding_shortfall_is_not_a_truncation(self, law, mu, modes):
        # the terms sum to 1 - 1.1e-15 (1 - 2.1e-15) through rounding; the tail
        # past MAX_PAIRS is about 4e-94 (5e-18)
        dist = PairNumberDistribution(law, mu, modes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = dist.pmf_vector()
        assert pmf.size == MAX_PAIRS + 1
        assert sum(pmf.tolist()) < 1.0 - TAIL_MASS  # the running total, added in sequence
        assert np.array_equal(pmf, dist._head(MAX_PAIRS + 1))

    def test_a_one_mode_law_of_a_huge_mean_is_refused(self):
        # past a mean of about 2e27 the 65 kept terms hold about 65 / mu of the mass, and the
        # rounded ratio of the two terms past them reads below mu / (1 + mu), so the tail bound
        # alone passed the law: herald-stats at 3.03e27 exited 0 with P(1) = 0.0428
        for mu in [10.0**k for k in range(27, 309)] + [3.0301935371720806e27, sys.float_info.max]:
            with pytest.raises(ValidationError, match="dropping tail mass 1;") as info:
                PairNumberDistribution("multimode_thermal", mu, modes=1).pmf_vector()
            assert info.value.field == "mean", mu

    @pytest.mark.parametrize(
        "law,mu,modes", [("thermal", 1.5, None), ("poissonian", 40.0, None), ("multimode_thermal", 40.0, 3), ("thermal", 1e5, None)]
    )
    def test_a_refused_law_builds_one_head(self, law, mu, modes, monkeypatch):
        # the tail bound reads the two terms past MAX_PAIRS from the head the pmf built
        real, sizes = PairNumberDistribution._head, []

        def spy(self, size):
            sizes.append(size)
            return real(self, size)

        monkeypatch.setattr(PairNumberDistribution, "_head", spy)
        with pytest.raises(ValidationError) as info:
            PairNumberDistribution(law, mu, modes).pmf_vector()
        assert info.value.field == "mean"
        assert sizes == [MAX_PAIRS + 3]

    def test_silent_within_tolerance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PairNumberDistribution("multimode_thermal", 1.0, modes=3).pmf_vector()
            PairNumberDistribution("thermal", 40.0)._head(MAX_PAIRS + 1)


class TestThin:
    def test_poisson_closure(self):
        pmf = PairNumberDistribution("poissonian", 0.2).pmf_vector()
        target = PairNumberDistribution("poissonian", 0.2 * 0.3)._head(pmf.size)
        thinned = thin(pmf, 0.3)
        assert np.max(np.abs(thinned - target)) < 1e-12

    def test_thermal_closure_against_brute_force(self):
        pmf = PairNumberDistribution("thermal", 0.15).pmf_vector()
        s = 0.4
        oracle = brute_force_thin(pmf, s)
        thinned = thin(pmf, s)
        assert np.max(np.abs(thinned - oracle)) < 1e-14
        target = PairNumberDistribution("thermal", 0.15 * s)._head(pmf.size)
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


# --- the scalar pmf loop written out once more, as a reference that the
# vectorised laws must match bit for bit


def scalar_pmf(dist, n):
    """One pmf entry from numpy scalars, the law's formula written per entry."""
    mu, m = dist.mean, dist.modes
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if dist.law == "poissonian":
        return float(np.exp(n * np.log(mu) - mu - log_factorial(n)))
    if dist.law == "thermal":
        return float(mu**n / (1.0 + mu) ** (n + 1))
    if n + m - 1 > 170:
        log_c = math.log(math.comb(n + m - 1, n))
    else:
        log_c = log_factorial(n + m - 1) - log_factorial(n) - log_factorial(m - 1)
    log_p = n * np.log(mu / m) - (n + m) * np.log1p(mu / m)
    return float(np.exp(log_c + log_p))


def scalar_pmf_vector(dist):
    """The adaptive truncation as a loop: extend while the running total is short."""
    probs = [scalar_pmf(dist, 0)]
    total, n = probs[0], 0
    while total < 1.0 - TAIL_MASS and n < MAX_PAIRS:
        n += 1
        probs.append(scalar_pmf(dist, n))
        total += probs[-1]
    return np.array(probs), total


def tail_reaches(dist, mass):
    """Whether the terms past MAX_PAIRS, summed one by one, reach ``mass``."""
    tail = 0.0
    for n in range(MAX_PAIRS + 1, 2 * MAX_PAIRS + 2):
        tail += scalar_pmf(dist, n)
        if tail >= mass:
            return True
    return False


@functools.lru_cache(maxsize=None)
def exact_thinning_table(s, size):
    """``C(n, m) s^m (1-s)^(n-m)`` in exact rationals of the float ``s``, each rounded once."""
    b = Fraction(s)
    up = [b**m for m in range(size)]
    down = [(1 - b) ** k for k in range(size)]
    return np.array(
        [[float(math.comb(n, m) * up[m] * down[n - m]) if m <= n else 0.0 for m in range(size)] for n in range(size)]
    )


LAWS_AND_MODES = [("poissonian", None), ("thermal", None), ("multimode_thermal", 3)]
SURVIVALS = [0.0, 1e-9, 0.2, 0.5, 0.999, 1.0]
MU_GRID = [0.0, *np.logspace(-4, math.log10(30.0), 25).tolist()]


def cut_by_the_loop(dist):
    """Whether the loop's running total falls short of 1 - TAIL_MASS and the tail
    past MAX_PAIRS is not negligible: a shortfall of rounding alone is no cut."""
    _, total = scalar_pmf_vector(dist)
    return total < 1.0 - TAIL_MASS and tail_reaches(dist, TAIL_MASS)


def whole_or_head(dist):
    """The pmf of a whole law, or the MAX_PAIRS + 1 head of a law the pmf refuses as cut."""
    return dist._head(MAX_PAIRS + 1) if cut_by_the_loop(dist) else dist.pmf_vector()


def assert_adaptive_pmf_matches_the_loop(law, modes, mu):
    """The pmf is the loop's, warning of nothing, or, where the loop cuts the law, a
    refusal naming the mass the loop leaves out; returns whether it refused."""
    dist = PairNumberDistribution(law, mu, modes)
    expected, total = scalar_pmf_vector(dist)
    if cut_by_the_loop(dist):
        message = f"the {law} pmf at mean {mu} is cut at MAX_PAIRS = {MAX_PAIRS} pairs, dropping tail mass {1.0 - total:.3g};"
        with pytest.raises(ValidationError, match=re.escape(message)) as info:
            dist.pmf_vector()
        assert info.value.field == "mean"
        return True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(dist.pmf_vector(), expected)
    return False


class TestBitIdentity:
    @pytest.mark.parametrize("law,modes", LAWS_AND_MODES)
    @pytest.mark.parametrize("mu", MU_GRID)
    def test_adaptive_pmf_and_its_refusal(self, law, modes, mu):
        assert_adaptive_pmf_matches_the_loop(law, modes, mu)

    def test_first_length_short_then_every_term(self):
        # rounding in ln C(n + M - 1, n) leaves this sum 1.1e-15 short of 1: the
        # first length does not reach 1 - TAIL_MASS and all MAX_PAIRS + 1 terms
        # are taken, but the tail past them is about 4e-94, so nothing is refused
        assert not assert_adaptive_pmf_matches_the_loop("multimode_thermal", 10**5, 0.9275587785042025)

    @pytest.mark.parametrize("law,modes", LAWS_AND_MODES)
    @pytest.mark.parametrize("mu", MU_GRID[::4])
    def test_fixed_truncation_past_every_table(self, law, modes, mu):
        dist = PairNumberDistribution(law, mu, modes)
        for size in range(1, 82):
            expected = np.array([scalar_pmf(dist, n) for n in range(size)])
            assert np.array_equal(dist._head(size), expected)
        assert dist.pmf(200) == scalar_pmf(dist, 200)

    @pytest.mark.parametrize("modes", range(150, 176))
    def test_mode_counts_across_the_exact_factorial_switch(self, modes):
        # n + modes - 1 crosses 170 inside the pmf: table entries below, comb above
        for mu in (0.01, 0.5, 25.0):
            dist = PairNumberDistribution("multimode_thermal", mu, modes)
            assert np.array_equal(dist._head(81), [scalar_pmf(dist, n) for n in range(81)])
            assert_adaptive_pmf_matches_the_loop("multimode_thermal", modes, mu)

    @pytest.mark.parametrize("s", SURVIVALS)
    def test_thinning_table_against_exact_rationals(self, s):
        # each entry C(n, m) s^m (1-s)^(n-m) of the float s in exact rationals,
        # rounded once; size is the top-left block of the size-65 reference
        reference = exact_thinning_table(s, MAX_PAIRS + 1)
        for size in range(1, MAX_PAIRS + 2):
            table, exact = pair_source.thinning_table(s, size), reference[:size, :size]
            assert not table[np.triu_indices(size, 1)].any(), size  # no m > n survivors of n
            resolved = exact >= 1e-200
            rel = np.abs(table[resolved] - exact[resolved]) / exact[resolved]
            assert rel.max() <= 1e-14, (size, rel.max())

    @pytest.mark.parametrize("law,modes", LAWS_AND_MODES)
    @pytest.mark.parametrize("mu", MU_GRID[1::3])
    @pytest.mark.parametrize("s", SURVIVALS)
    def test_thin_of_every_law_against_exact_rationals(self, law, modes, mu, s):
        # the table's 1e-14 and a sum of at most 65 rounded terms
        pmf = whole_or_head(PairNumberDistribution(law, mu, modes))
        exact = exact_thinning_table(s, MAX_PAIRS + 1)[: pmf.size, : pmf.size]
        reference = np.array([math.fsum(pmf * column) for column in exact.T])
        got, resolved = thin(pmf, s), reference >= 1e-200
        assert np.all(np.abs(got[resolved] - reference[resolved]) <= 2e-14 * reference[resolved])

    @pytest.mark.parametrize("size", range(1, MAX_PAIRS + 2))
    @pytest.mark.parametrize("s", SURVIVALS)
    def test_thin_sums_the_pmf_through_the_table(self, size, s):
        pmf = np.random.default_rng(size).random(size)
        pmf /= pmf.sum()
        # every row of the table is a law: thinning keeps the mass
        assert abs(thin(pmf, s).sum() - 1.0) <= 1e-15 * size
        # the cached table, then a fresh build: the same bits
        assert np.array_equal(pair_source.thinning_table(s, size), pair_source.thinning_table.__wrapped__(s, size))

    def test_binomial_coefficients_are_exact(self):
        # up to the pmf's 65 entries and past them, against math.comb rounded once;
        # from size 68 on, C(67, 33) and its neighbours overflow an int64
        for size in (1, 2, 36, 65, 67, 68, 100, 200):
            exact = [[float(math.comb(n, m)) for m in range(size)] for n in range(size)]
            assert pair_source._binomial_coefficients(size).tolist() == exact, size

    def test_each_table_is_built_once(self):
        caches = (pair_source.thinning_table, pair_source.power_table)
        for cache in caches:
            cache.cache_clear()
        for size in (MAX_PAIRS + 1, 10, MAX_PAIRS + 1, 10):
            pair_source.thinning_table(0.5, size)
        # each repeated call reads the matrix the first one built
        assert pair_source.thinning_table.cache_info()[:2] == (2, 2)
        power = pair_source.power_table
        assert power((0.5,)) is power((0.5,))
        assert power.cache_info()[:2] == (1, 1)

    @pytest.mark.parametrize("points", [(0.0, 1.0), (0.3, 0.7), (1.0 - 0.1687 * 0.466 * 0.547,)])
    def test_power_table_prefix_is_the_table_of_its_length(self, points):
        # a pmf of any length reads the prefix of the one MAX_PAIRS + 1 table
        table = pair_source.power_table(points)
        assert table.shape == (len(points), MAX_PAIRS + 1)
        for size in range(1, MAX_PAIRS + 2):
            assert np.array_equal(table[:, :size], np.array(points)[:, None] ** np.arange(size))

    def test_tables_are_read_only(self):
        size = MAX_PAIRS + 1
        tables = [
            pair_source.power_table((0.3, 0.7)),
            pair_source.thinning_table(0.3, size),
            pair_source._binomial_coefficients(size),
        ]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


class TestThermalOverflow:
    @pytest.mark.parametrize("mu,size", [(4e4, 67), (1e5, 67), (1e300, 67), (sys.float_info.max, 67)])
    def test_overflow_is_a_validation_error_naming_the_mean(self, mu, size):
        # mu**n / (1 + mu)**(n + 1) in Python floats raised a bare OverflowError;
        # from mu >= 1 the pmf builds MAX_PAIRS + 3 terms, the two past MAX_PAIRS bounding the tail
        with pytest.raises(ValidationError, match=re.escape(f"mean {mu} overflows a float by {size} terms")) as exc:
            PairNumberDistribution("thermal", mu).pmf_vector()
        assert exc.value.field == "mean"

    def test_the_last_mean_below_the_overflow_is_cut_not_overflowed(self):
        dist = PairNumberDistribution("thermal", 3.9e4)
        with pytest.raises(ValidationError, match="is cut at MAX_PAIRS = 64 pairs, dropping tail mass 0.998") as info:
            dist.pmf_vector()
        assert info.value.field == "mean"
        assert dist._head(MAX_PAIRS + 1).tolist() == [3.9e4**n / (1.0 + 3.9e4) ** (n + 1) for n in range(65)]


class TestSubnormalMean:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("modes", [2, 3, 10**6])
    def test_a_mean_per_mode_that_underflows_is_the_point_mass_at_0(self, modes):
        # log(mu / M) of 0 warned of a division by zero, and 0 * -inf made the pmf NaN
        dist = PairNumberDistribution("multimode_thermal", 5e-324, modes)
        assert dist.pmf_vector().tolist() == [1.0]
        assert dist._head(4).tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("law,modes", [("poissonian", None), ("thermal", None), ("multimode_thermal", 1)])
    def test_a_subnormal_mean_that_does_not_underflow_keeps_its_formula(self, law, modes):
        dist = PairNumberDistribution(law, 5e-324, modes)
        assert np.array_equal(dist._head(4), [scalar_pmf(dist, n) for n in range(4)])


class TestDetectedMean:
    @pytest.mark.parametrize(
        "modes,c",
        [(10**6, 5e-324), (10**6, 1e-303), (10**21, 1e-300), (10**21, 2e-308), (10**300, 1e-9)],
        ids=lambda v: f"{v:.0e}" if isinstance(v, int) else repr(v),
    )
    def test_a_mean_per_mode_below_the_normals_is_kept(self, modes, c):
        # M * expm1(x / M) gave 0 once x / M underflowed, and the estimator divided by it
        x = -math.log1p(-c)
        assert x / modes < sys.float_info.min
        assert PairNumberDistribution("multimode_thermal", 0.1, modes).detected_mean(c) == x

    @pytest.mark.parametrize("modes", [1, 4, 10**6])
    @pytest.mark.parametrize("c", [1e-300, 1e-6, 0.0829, 0.5])
    def test_a_normal_mean_per_mode_keeps_its_formula(self, modes, c):
        x = -math.log1p(-c)
        assert PairNumberDistribution("multimode_thermal", 0.1, modes).detected_mean(c) == modes * math.expm1(x / modes)

    @pytest.mark.parametrize("mean", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_mean_names_the_mean(self, mean):
        # the check carried no field, so the estimator could not name the counts it came from
        with pytest.raises(ValidationError, match=f"^mean pair number must be finite, got {mean}$") as info:
            PairNumberDistribution("thermal", mean)
        assert info.value.field == "mean"


class TestNegativePairCount:
    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_pair_count_rejected(self, n):
        # a negative truncation returned an empty pmf
        with pytest.raises(DomainError, match=f"got {n}"):
            PairNumberDistribution("poissonian", 0.1).pmf(n)
