import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdcherald import pair_source
from spdcherald.errors import DomainError, ResolutionWarning, ValidationError
from spdcherald.pair_source import (
    MAX_PAIRS,
    TAIL_MASS,
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
        assert np.array_equal(pmf, dist.pmf_vector(n_max=MAX_PAIRS))

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


# --- the scalar pmf loop and the log-space thinning written out once more, as
# references that the vectorised laws and the cached grids must match bit for bit


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


def log_space_thin(pmf, s):
    """Thinning from a log-binomial grid built afresh on every call."""
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


LAWS_AND_MODES = [("poissonian", None), ("thermal", None), ("multimode_thermal", 3)]
MU_GRID = [0.0, *np.logspace(-4, math.log10(30.0), 25).tolist()]


def assert_adaptive_pmf_matches_the_loop(law, modes, mu):
    dist = PairNumberDistribution(law, mu, modes)
    expected, total = scalar_pmf_vector(dist)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        got = dist.pmf_vector()
    assert np.array_equal(got, expected)
    # a running total short of 1 - TAIL_MASS is a truncation only if the tail itself is not negligible
    assert [str(w.message) for w in record] == (
        [f"{law} pmf at mean {mu} truncated at {MAX_PAIRS} pairs; dropped tail mass {1.0 - total:.3g}"]
        if total < 1.0 - TAIL_MASS and tail_reaches(dist, TAIL_MASS)
        else []
    )
    # stacklevel 2: the warning names the caller of pmf_vector
    assert [w.filename for w in record] == [__file__] * len(record)
    return record


class TestBitIdentity:
    @pytest.mark.parametrize("law,modes", LAWS_AND_MODES)
    @pytest.mark.parametrize("mu", MU_GRID)
    def test_adaptive_pmf_and_its_warning(self, law, modes, mu):
        assert_adaptive_pmf_matches_the_loop(law, modes, mu)

    def test_first_length_short_then_every_term(self):
        # rounding in ln C(n + M - 1, n) leaves this sum 1.1e-15 short of 1: the
        # first length does not reach 1 - TAIL_MASS and all MAX_PAIRS + 1 terms
        # are taken, but the tail past them is about 4e-94, so nothing is warned of
        record = assert_adaptive_pmf_matches_the_loop("multimode_thermal", 10**5, 0.9275587785042025)
        assert record == []

    @pytest.mark.parametrize("law,modes", LAWS_AND_MODES)
    @pytest.mark.parametrize("mu", MU_GRID[::4])
    def test_fixed_truncation_past_every_table(self, law, modes, mu):
        dist = PairNumberDistribution(law, mu, modes)
        for n_max in range(81):
            expected = np.array([scalar_pmf(dist, n) for n in range(n_max + 1)])
            assert np.array_equal(dist.pmf_vector(n_max=n_max), expected)
        assert dist.pmf(200) == scalar_pmf(dist, 200)

    @pytest.mark.parametrize("modes", range(150, 176))
    def test_mode_counts_across_the_exact_factorial_switch(self, modes):
        # n + modes - 1 crosses 170 inside the pmf: table entries below, comb above
        for mu in (0.01, 0.5, 25.0):
            dist = PairNumberDistribution("multimode_thermal", mu, modes)
            assert np.array_equal(dist.pmf_vector(n_max=80), [scalar_pmf(dist, n) for n in range(81)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResolutionWarning)
                assert np.array_equal(dist.pmf_vector(), scalar_pmf_vector(dist)[0])

    @pytest.mark.parametrize("law,modes", LAWS_AND_MODES)
    @pytest.mark.parametrize("mu", MU_GRID[1::3])
    @pytest.mark.parametrize("s", [0.0, 1e-9, 0.5, 1.0, 0.37])
    def test_thin_matches_the_log_space_reference(self, law, modes, mu, s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            pmf = PairNumberDistribution(law, mu, modes).pmf_vector()
        assert np.array_equal(thin(pmf, s), log_space_thin(pmf, s))

    @pytest.mark.parametrize("size", range(1, 81))
    def test_thin_every_size(self, size):
        pmf = np.random.default_rng(size).random(size)
        pmf /= pmf.sum()
        for s in (1e-9, 0.2, 0.5, 0.999):
            assert np.array_equal(thin(pmf, s), log_space_thin(pmf, s))

    def test_grid_cache_holds_only_pmf_sizes(self):
        caches = (pair_source._thinning_matrix.tables, pair_source.power_table.tables)
        for tables in caches:
            tables.clear()
        for _ in range(2):
            thin(np.full(MAX_PAIRS + 2, 1.0 / (MAX_PAIRS + 2)), 0.5)
            pair_source.power_table((0.5,), MAX_PAIRS + 2)
        # past MAX_PAIRS + 1 nothing is cached
        assert [len(tables) for tables in caches] == [0, 0]
        first = [pair_source._thinning_matrix(0.5, 10), pair_source.power_table((0.5,), 10)]
        again = [pair_source._thinning_matrix(0.5, 10), pair_source.power_table((0.5,), 10)]
        # the repeated call hits the cache: it reads the table the first one built
        assert all(np.shares_memory(a, b) for a, b in zip(first, again))
        assert [len(tables) for tables in caches] == [1, 1]
        # a grid is built once per size up to MAX_PAIRS + 1, and a longer one is not kept
        grids = pair_source._pmf_length_grid
        grids.cache_clear()
        for size in (MAX_PAIRS + 1, MAX_PAIRS + 2, MAX_PAIRS + 1, MAX_PAIRS + 2):
            pair_source._log_binomial_grid(size)
        assert (grids.cache_info().hits, grids.cache_info().currsize) == (1, 1)

    def test_a_survival_is_built_at_most_twice(self):
        # a sweep's pmf lengths follow mu in any order; past the first length, one
        # table at MAX_PAIRS + 1 serves every length
        tables = pair_source._thinning_matrix.tables
        tables.clear()
        pair_source._thinning_matrix(0.25, 12)
        assert tables[0.25].shape == (12, 12)
        pair_source._thinning_matrix(0.25, 5)
        assert tables[0.25].shape == (12, 12)
        pair_source._thinning_matrix(0.25, 13)
        full = tables[0.25]
        assert full.shape == (MAX_PAIRS + 1, MAX_PAIRS + 1)
        for size in (MAX_PAIRS + 1, 1, 30, 12):
            assert np.shares_memory(pair_source._thinning_matrix(0.25, size), full)
        assert tables[0.25] is full

    def test_least_recently_used_survival_is_dropped(self):
        tables = pair_source.power_table.tables
        tables.clear()
        keys = [(0.001 * i,) for i in range(1, 258)]
        for key in keys[:256]:
            pair_source.power_table(key, 8)
        pair_source.power_table(keys[0], 8)  # used again: now the most recent
        pair_source.power_table(keys[256], 8)
        assert len(tables) == 256
        assert keys[1] not in tables and keys[0] in tables and keys[256] in tables

    def test_threads_share_the_tables(self):
        # 300 survivals cycle through 256 entries from 8 threads switching often, so
        # a lookup's hit and another's eviction interleave; each must see its table
        tables = pair_source.power_table.tables
        tables.clear()
        errors = []

        def work(seed):
            keys = [(0.001 * i,) for i in np.random.default_rng(seed).permutation(300)]
            try:
                for i in range(20000):
                    key, size = keys[i % 300], 1 + i % (MAX_PAIRS + 1)
                    table = pair_source.power_table(key, size)
                    if i % 97 == 0 and not np.array_equal(table, np.array(key)[:, None] ** np.arange(size)):
                        errors.append((key, size))
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(tables) == 256

    @pytest.mark.parametrize("size", range(1, MAX_PAIRS + 2))
    def test_slices_match_tables_of_their_own_length(self, size):
        pair_source.power_table((0.3, 0.7, 0.999), MAX_PAIRS + 1)
        pair_source._thinning_matrix(0.3, MAX_PAIRS + 1)
        log_c, k, n_minus_k = pair_source._build_log_binomial_grid(size)
        points = np.array([0.3, 0.7, 0.999])[:, None]
        assert np.array_equal(pair_source.power_table((0.3, 0.7, 0.999), size), points ** np.arange(size))
        assert np.array_equal(
            pair_source._thinning_matrix(0.3, size), np.exp(log_c + k * np.log(0.3) + n_minus_k * np.log1p(-0.3))
        )
        assert all(np.array_equal(a, b) for a, b in zip(pair_source._log_binomial_grid(size), (log_c, k, n_minus_k)))

    @pytest.mark.parametrize("size", [MAX_PAIRS + 1, MAX_PAIRS + 2])
    def test_tables_are_read_only(self, size):
        tables = [
            pair_source.power_table((0.3, 0.7), size),
            pair_source._thinning_matrix(0.3, size),
            *pair_source._log_binomial_grid(size),
        ]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


class TestNegativeTruncation:
    @pytest.mark.parametrize("n_max", [-1, -5])
    def test_negative_n_max_rejected(self, n_max):
        # a negative n_max returned an empty pmf
        with pytest.raises(DomainError, match=f"got {n_max}"):
            PairNumberDistribution("poissonian", 0.1).pmf_vector(n_max=n_max)
