"""Acceptance suite: every headline figure of the reference setup at its
stated tolerance.

Each check prints one PASS/FAIL line (visible with ``pytest -s``); the
assertion carries the same text.  Monte Carlo checks use fixed seeds and are
bit-reproducible.
"""

import math

import numpy as np
import pytest

from spdcherald.detectors import DeadTimeSpec, dead_time_throughput
from spdcherald.errors import ValidationError
from spdcherald.estimator import equivalent_wcp, estimate_source
from spdcherald.experiment import (
    hbt_g2,
    heralded_photon_statistics,
    reference_setup,
    simulate_counts,
)
from spdcherald.pair_source import PairNumberDistribution, thinning_table
from spdcherald.phase_matching import (
    WavelengthTriple,
    collinear_pm_angle,
    heralded_marginal_bandwidth,
    idler_wavelength,
    joint_spectral_intensity,
)
from spdcherald.qkd import ChannelSpec, max_secure_distance
from spdcherald.scenario import load_scenario

MC_PULSES = 10_000_000
MC_PULSES_P2 = 100_000_000


def check(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("paper.scenario")


@pytest.fixture(scope="module")
def config(scenario):
    return scenario.to_setup_config()


@pytest.fixture(scope="module")
def counts(config):
    return simulate_counts(config, mode="analytic")


@pytest.fixture(scope="module")
def stats(config):
    return heralded_photon_statistics(config, mode="analytic")


@pytest.fixture(scope="module")
def mc_counts(config):
    return simulate_counts(config, mode="monte_carlo", n_pulses=MC_PULSES, seed=42)


def test_criterion_01_signal_singles(counts):
    value = counts.signal_singles
    check(
        "criterion 01",
        abs(value / 2.90e5 - 1.0) <= 0.03,
        f"signal singles {value:.0f} cps within 3% of 2.90e5",
    )


def test_criterion_02_idler_singles(counts):
    value = counts.idler_singles
    check(
        "criterion 02",
        abs(value / 285.0 - 1.0) <= 0.05,
        f"idler singles {value:.2f} cps (per-gate prob x 205 kHz) within 5% of 285",
    )


def test_criterion_03_trigger_rate(counts):
    through = dead_time_throughput(2.90e5, DeadTimeSpec(tau_us=1.0, model="paralyzable"))
    ok_op = abs(through / 2.16e5 - 1.0) <= 0.03
    ok_chain = abs(counts.trigger_rate / 2.16e5 - 1.0) <= 0.03
    check(
        "criterion 03",
        ok_op and ok_chain,
        f"2.90e5 cps through 1 us paralyzable dead time -> {through:.0f} cps "
        f"(full chain {counts.trigger_rate:.0f}) within 3% of 2.16e5",
    )


def test_criterion_04_coincidences(counts):
    value = counts.coincidences
    check(
        "criterion 04",
        abs(value / 3053.0 - 1.0) <= 0.07,
        f"coincidences {value:.0f} cps within 7% of 3053",
    )


def test_criterion_05_heralded_statistics(stats):
    p0, p1, p2 = stats.probability(0), stats.probability(1), stats.probability(2)
    ok = (
        abs(p0 - 0.8096) <= 0.01
        and abs(p1 / 0.1871 - 1.0) <= 0.05
        and abs(p2 / 2.4e-3 - 1.0) <= 0.25
    )
    check(
        "criterion 05",
        ok,
        f"P(0)={p0:.4f} (0.8096 +- 0.01), P(1)={p1:.4f} (0.1871 +- 5%), "
        f"P(2)={p2:.2e} (2.4e-3 +- 25%)",
    )


def test_criterion_05_p2_monte_carlo_cross_check(config, stats):
    mc = heralded_photon_statistics(config, mode="monte_carlo", n_pulses=MC_PULSES_P2, seed=1550)
    n_heralds = MC_PULSES_P2 * simulate_counts(config).signal_singles / config.rep_rate_hz
    p2 = stats.probability(2)
    sigma = math.sqrt(p2 * (1.0 - p2) / n_heralds)
    pull = (mc.probability(2) - p2) / sigma
    check(
        "criterion 05 (mc)",
        abs(pull) <= 3.0,
        f"P(2) Monte Carlo at 1e8 pulses = {mc.probability(2):.3e}, analytic {p2:.3e}, "
        f"pull {pull:+.2f} sigma",
    )


def test_criterion_06_source_estimate(scenario):
    est = estimate_source(scenario.to_counts(), scenario.to_setup_config())
    ok = (
        abs(est.mu / 0.0829 - 1.0) <= 0.05
        and abs(est.pair_rate / 6.8e6 - 1.0) <= 0.05
        and abs(est.alpha_idler / 0.220 - 1.0) <= 0.10
        and abs(est.alpha_signal / 0.169 - 1.0) <= 0.10
    )
    check(
        "criterion 06",
        ok,
        f"estimate mu={est.mu:.5f} (0.0829 +- 5%), pair rate {est.pair_rate:.3e} "
        f"(6.8e6 +- 5%), alpha_i={est.alpha_idler:.4f} (0.220 +- 10%), "
        f"alpha_s={est.alpha_signal:.4f} (0.169 +- 10%)",
    )


def test_criterion_07_wcp_comparison():
    cmp = equivalent_wcp(0.1871, p2_source=2.4e-3)
    residual = abs(cmp.mu_coherent * math.exp(-cmp.mu_coherent) - 0.1871)
    ok = 8.3 <= cmp.suppression_ratio <= 10.3 and residual <= 1e-9
    check(
        "criterion 07",
        ok,
        f"coherent-source P(2) suppression ratio {cmp.suppression_ratio:.3f} in [8.3, 10.3], "
        f"root residual {residual:.1e} <= 1e-9",
    )


def test_criterion_08_phase_matching_angle(scenario):
    crystal = scenario.to_crystal()
    triple = WavelengthTriple.from_pump_signal(390.0, 521.0)
    theta = collinear_pm_angle(crystal, triple)
    check(
        "criterion 08 (angle)",
        abs(theta - 26.42) <= 0.5,
        f"collinear type-I angle {theta:.3f} deg within 0.5 deg of 26.42",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the stated target 1550.3 nm is inconsistent with energy conservation: "
    "1/(1/390 - 1/521) = 1551.0687 nm exactly",
)
def test_criterion_08_idler_wavelength():
    value = idler_wavelength(390.0, 521.0)
    check(
        "criterion 08 (idler)",
        abs(value - 1550.3) <= 0.1,
        f"idler wavelength for 390 -> 521 nm is {value:.4f} nm vs stated 1550.3 +- 0.1",
    )


def test_criterion_09_spectrum(scenario):
    crystal = scenario.to_crystal()
    theta = collinear_pm_angle(crystal, WavelengthTriple.from_pump_signal(390.0, 521.0))
    sig_axis, idl_axis = scenario.spectral_grid()
    spectrum = joint_spectral_intensity(crystal, theta, 390.0, 2.4, sig_axis, idl_axis)
    fwhm = heralded_marginal_bandwidth(spectrum, 521.0, 6.0)
    peak_s, peak_i = spectrum.peak()
    cell_s = sig_axis[1] - sig_axis[0]
    cell_i = idl_axis[1] - idl_axis[0]
    ok_peak = abs(peak_s - 521.0) <= cell_s and abs(peak_i - 1550.0) <= cell_i
    ok_band = 12.0 <= fwhm <= 27.0
    # energy-conservation ridge: the peak cell implies the pump wavelength
    ridge = abs(1.0 / peak_s + 1.0 / peak_i - 1.0 / 390.0) <= cell_i / peak_i**2
    check(
        "criterion 09",
        ok_band and ok_peak and ridge,
        f"heralded idler FWHM {fwhm:.2f} nm in [12, 27] (target 18, spatial filtering "
        f"unmodeled); JSI peak ({peak_s:.2f}, {peak_i:.2f}) within one cell of (521, 1550) "
        f"on the energy-conservation ridge",
    )


def test_criterion_10_g2(config):
    analytic = hbt_g2(config, arm="signal_unconditioned", mode="analytic")
    mc = hbt_g2(config, arm="signal_unconditioned", mode="monte_carlo", n_pulses=MC_PULSES, seed=3)
    heralded = hbt_g2(config, arm="idler_heralded", mode="analytic")
    ok = (
        analytic.value == 1.0
        and abs(mc.value - 1.0) <= 3.0 * mc.stderr
        and heralded.value < 0.3
    )
    check(
        "criterion 10",
        ok,
        f"unconditioned signal g2 analytic = {analytic.value} (exactly 1), Monte Carlo "
        f"{mc.value:.3f} +- {mc.stderr:.3f} within 3 sigma of 1; heralded idler g2 "
        f"{heralded.value:.4f} < 0.3",
    )


def test_criterion_11_property_suite(config, counts, mc_counts):
    lines = []

    # pmf normalization at 1e-12
    norm_ok = all(
        abs(PairNumberDistribution(law, mu, 4 if law == "multimode_thermal" else None)
            .pmf_vector().sum() - 1.0) < 1e-12
        for law in ("poissonian", "thermal", "multimode_thermal")
        for mu in (0.01, 0.0829, 0.25)
    )
    lines.append(("pmf normalization 1e-12", norm_ok))

    # thinning closure and composition at 1e-12
    def thin(pmf, s):
        return pmf @ thinning_table(s, pmf.size)

    pmf = PairNumberDistribution("poissonian", 0.2).pmf_vector()
    target = PairNumberDistribution("poissonian", 0.2 * 0.35)._head(pmf.size)
    closure_ok = bool(np.max(np.abs(thin(pmf, 0.35) - target)) < 1e-12)
    composed = thin(thin(pmf, 0.6), 0.5)
    compose_ok = bool(np.max(np.abs(composed - thin(pmf, 0.3))) < 1e-12)
    lines.append(("thinning closure/composition 1e-12", closure_ok and compose_ok))

    # dead-time limits
    dt_ok = dead_time_throughput(2.9e5, DeadTimeSpec(tau_us=0.0)) == 2.9e5 and all(
        dead_time_throughput(r, DeadTimeSpec(1.0, "paralyzable"))
        <= dead_time_throughput(r, DeadTimeSpec(1.0, "nonparalyzable"))
        for r in (1e4, 2.9e5, 8e5)
    )
    lines.append(("dead-time limits", dt_ok))

    # estimator round trip within 1% for mu <= 0.2
    rt_ok = True
    for mu in (0.01, 0.0829, 0.2):
        cfg = reference_setup(mu=mu)
        est = estimate_source(simulate_counts(cfg), cfg)
        rt_ok &= abs(est.mu / mu - 1.0) < 0.01
        rt_ok &= abs(est.alpha_signal / cfg.alpha_signal - 1.0) < 0.01
        rt_ok &= abs(est.alpha_idler / cfg.alpha_idler - 1.0) < 0.01
    lines.append(("estimator round trip 1%", bool(rt_ok)))

    # determinism: bit-identical repeat
    repeat = simulate_counts(config, mode="monte_carlo", n_pulses=MC_PULSES, seed=42)
    lines.append(("fixed-seed determinism", repeat == mc_counts))

    # analytic vs Monte Carlo within 3 sigma on all rates
    duration = MC_PULSES / config.rep_rate_hz
    agree = True
    for name in ("signal_singles", "trigger_rate", "coincidences"):
        expected = getattr(counts, name)
        sigma = math.sqrt(expected * duration) / duration
        agree &= abs(getattr(mc_counts, name) - expected) < 3.0 * sigma
    p_gate = counts.idler_singles / counts.gate_rate
    sigma_idler = math.sqrt(p_gate / MC_PULSES) * counts.gate_rate
    agree &= abs(mc_counts.idler_singles - counts.idler_singles) < 3.0 * sigma_idler
    lines.append(("analytic vs Monte Carlo 3 sigma", bool(agree)))

    ok = all(flag for _, flag in lines)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAILED'}" for name, flag in lines)
    check("criterion 11", ok, detail)


def test_criterion_12_qkd_monotonicity(stats):
    wcp = PairNumberDistribution("poissonian", equivalent_wcp(stats.probability(1)).mu_coherent)
    from spdcherald.experiment import HeraldedStats

    wcp_stats = HeraldedStats(p=wcp.pmf_vector())
    ok = True
    worst = None
    for loss in (0.0, 0.1, 0.2, 0.3, 0.4):
        for eta_rx, dark in ((0.10, 2.5e-4), (0.5, 1e-5)):
            channel = ChannelSpec(loss, eta_rx, dark)
            d_her = max_secure_distance(stats, channel).km
            d_wcp = max_secure_distance(wcp_stats, channel).km
            if d_her < d_wcp:
                ok = False
                worst = (loss, eta_rx, dark, d_her, d_wcp)
    check(
        "criterion 12",
        ok,
        "heralded secure distance >= matched-P(1) coherent source over losses 0-0.4 dB/km"
        + (f" (violated at {worst})" if worst else ""),
    )
