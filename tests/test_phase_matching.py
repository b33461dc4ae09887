import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import spdcherald.phase_matching as phase_matching
from spdcherald.errors import (
    DomainError,
    EmptyMarginalError,
    NoPhaseMatchingError,
    ResolutionWarning,
    ValidationError,
)
from spdcherald.phase_matching import (
    CrystalSpec,
    SellmeierCoefficients,
    WavelengthTriple,
    collinear_mismatch,
    collinear_pm_angle,
    heralded_marginal_bandwidth,
    idler_wavelength,
    index_extraordinary_at_angle,
    index_extraordinary_principal,
    index_ordinary,
    joint_spectral_intensity,
    tuning_curve,
)

BBO = CrystalSpec()
TRIPLE = WavelengthTriple.from_pump_signal(390.0, 521.0)
DEFAULT_SIGNAL_AXIS = np.linspace(481.0, 561.0, 321)
DEFAULT_IDLER_AXIS = np.linspace(1471.0, 1671.0, 161)


def solved_angle():
    return collinear_pm_angle(BBO, TRIPLE)


class TestIndices:
    def test_ordinary_pinned_values(self):
        # direct evaluation of the shipped dispersion set
        assert index_ordinary(BBO, 521.0) == pytest.approx(1.6752280901, rel=1e-9)
        assert index_ordinary(BBO, 1550.0) == pytest.approx(1.6465863906, rel=1e-9)

    def test_ordinary_close_to_published_round_values(self):
        assert index_ordinary(BBO, 521.0) == pytest.approx(1.676, abs=2e-3)
        assert index_ordinary(BBO, 1550.0) == pytest.approx(1.647, abs=2e-3)

    def test_indices_above_one_over_window(self):
        grid = np.linspace(200.1, 2999.0, 400)
        assert np.all(index_ordinary(BBO, grid) > 1.0)
        assert np.all(index_extraordinary_principal(BBO, grid) > 1.0)

    def test_normal_dispersion_region_monotone(self):
        grid = np.linspace(400.0, 1600.0, 500)
        n = index_ordinary(BBO, grid)
        assert np.all(np.diff(n) < 0.0)

    def test_window_enforced(self):
        with pytest.raises(DomainError):
            index_ordinary(BBO, 150.0)
        with pytest.raises(DomainError):
            index_ordinary(BBO, 3500.0)

    def test_angle_interpolation_endpoints_exact(self):
        lam = 390.0
        assert index_extraordinary_at_angle(BBO, 0.0, lam) == index_ordinary(BBO, lam)
        assert index_extraordinary_at_angle(BBO, 90.0, lam) == index_extraordinary_principal(BBO, lam)

    def test_angle_tuned_index_between_principals(self):
        n = index_extraordinary_at_angle(BBO, 26.42, 390.0)
        assert index_extraordinary_principal(BBO, 390.0) < n < index_ordinary(BBO, 390.0)
        assert n == pytest.approx(1.6680138326, rel=1e-9)

    def test_angle_monotone_and_continuous(self):
        thetas = np.linspace(0.0, 90.0, 181)
        n = index_extraordinary_at_angle(BBO, thetas, 390.0)
        assert np.all(np.diff(n) < 0.0)  # negative uniaxial
        assert np.max(np.abs(np.diff(n))) < 5e-3

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            index_extraordinary_at_angle(BBO, -1.0, 390.0)
        with pytest.raises(DomainError):
            index_extraordinary_at_angle(BBO, 91.0, 390.0)
        with pytest.raises(DomainError):
            index_extraordinary_at_angle(BBO, math.nan, 390.0)

    @pytest.mark.parametrize("wavelength", [math.nan, np.array([521.0, math.nan])])
    @pytest.mark.parametrize(
        "index",
        [
            index_ordinary,
            index_extraordinary_principal,
            lambda crystal, lam: index_extraordinary_at_angle(crystal, 26.42, lam),
        ],
        ids=["ordinary", "principal", "at_angle"],
    )
    def test_nan_wavelength_outside_window(self, index, wavelength):
        # NaN compares False both ways, so "below or above" let it through
        with pytest.raises(DomainError, match="Sellmeier validity window"):
            index(BBO, wavelength)

    def test_endpoints_inside_array_exact(self):
        thetas = np.array([0.0, 26.42, 90.0])
        n = index_extraordinary_at_angle(BBO, thetas, 390.0)
        assert n[0] == index_ordinary(BBO, 390.0)
        assert n[1] == index_extraordinary_at_angle(BBO, 26.42, 390.0)
        assert n[2] == index_extraordinary_principal(BBO, 390.0)


class TestEnergyConservation:
    def test_idler_wavelength_exact_arithmetic(self):
        # oracle: exact rational arithmetic for 1/(1/390 - 1/521)
        exact = Fraction(390 * 521, 521 - 390)
        assert idler_wavelength(390.0, 521.0) == pytest.approx(float(exact), rel=1e-12)
        assert idler_wavelength(390.0, 521.0) == pytest.approx(1551.0687023, abs=1e-6)

    def test_degenerate_points(self):
        assert idler_wavelength(390.0, 780.0) == pytest.approx(780.0, rel=1e-12)
        assert idler_wavelength(400.0, 800.0) == pytest.approx(800.0, rel=1e-12)

    def test_no_physical_idler(self):
        with pytest.raises(DomainError):
            idler_wavelength(390.0, 390.0)
        with pytest.raises(DomainError):
            idler_wavelength(390.0, 380.0)

    def test_residual_below_tolerance(self):
        t = WavelengthTriple.from_pump_signal(390.0, 521.0)
        residual = abs(1.0 / t.pump_nm - 1.0 / t.signal_nm - 1.0 / t.idler_nm)
        assert residual < 1e-9 / t.pump_nm

    def test_triple_validation(self):
        with pytest.raises(ValidationError):
            WavelengthTriple(390.0, 521.0, 1550.0)  # violates energy conservation
        with pytest.raises(ValidationError):
            WavelengthTriple(390.0, 380.0, idler_wavelength(390.0, 521.0))


class TestPhaseMatchingAngle:
    def test_reference_angle(self):
        theta = solved_angle()
        assert theta == pytest.approx(26.4155, abs=2e-3)
        assert abs(theta - 26.42) <= 0.5

    def test_residual_postcondition(self):
        theta = solved_angle()
        k_pump = (
            2.0 * math.pi * index_extraordinary_at_angle(BBO, theta, 390.0) / 390.0
        )
        assert abs(collinear_mismatch(BBO, theta, TRIPLE)) < 1e-6 * k_pump

    def test_degenerate_angle_larger_than_nondegenerate(self):
        # bisection oracle: the degenerate pair needs a lower pump index,
        # hence a larger angle in a negative uniaxial crystal
        deg = collinear_pm_angle(BBO, WavelengthTriple.from_pump_signal(390.0, 780.0))
        assert deg == pytest.approx(29.9429, abs=5e-3)
        assert deg > solved_angle()

    def test_deterministic(self):
        assert solved_angle() == solved_angle()

    def test_bisection_hoists_the_angle_independent_indices(self, monkeypatch):
        # the bisection and the residual postcondition reuse the four
        # Sellmeier indices; none goes through the public mismatch
        calls = []
        real = phase_matching.collinear_mismatch
        monkeypatch.setattr(
            phase_matching, "collinear_mismatch", lambda *a: calls.append(a) or real(*a)
        )
        assert collinear_pm_angle(BBO, TRIPLE) == pytest.approx(26.4155, abs=2e-3)
        assert calls == []

    def test_no_root_reports_residuals(self):
        isotropic = CrystalSpec(
            sellmeier_ordinary=BBO.sellmeier_ordinary,
            sellmeier_extraordinary=BBO.sellmeier_ordinary,
            name="isotropic fake",
        )
        with pytest.raises(NoPhaseMatchingError) as err:
            collinear_pm_angle(isotropic, TRIPLE)
        assert err.value.residual_low is not None
        assert err.value.residual_high is not None


def curve_by_points(crystal, theta, pump, signal_range, n_points):
    """Reference tuning curve: one public collinear_mismatch call per point."""
    rows = []
    for s in np.linspace(*signal_range, n_points):
        i = idler_wavelength(pump, s)
        triple = WavelengthTriple(pump, s, i) if s <= i else WavelengthTriple(pump, i, s)
        rows.append((s, i, collinear_mismatch(crystal, theta, triple) * 1e6))
    return np.array(rows)


class TestTuningCurve:
    @pytest.mark.parametrize(
        "pump,signal_range",
        # on the wide range some rows past degeneracy round differently when
        # the longer wavelength's k is subtracted first
        [(390.0, (480.0, 560.0)), (390.0, (740.0, 820.0)), (390.0, (600.0, 1000.0))],
        ids=["nondegenerate", "across-degeneracy", "across-degeneracy-wide"],
    )
    @pytest.mark.parametrize("theta", [26.42, 29.9429])
    def test_equals_pointwise_mismatch(self, theta, pump, signal_range):
        curve = tuning_curve(BBO, theta, pump, signal_range, 201)
        assert np.array_equal(curve, curve_by_points(BBO, theta, pump, signal_range, 201))

    @pytest.mark.parametrize("n_points", [2.5, 201.0, "201", None])
    def test_a_point_count_that_is_no_integer_is_refused(self, n_points):
        # int(n_points) truncated 2.5 to 2 points
        with pytest.raises(ValidationError, match="n_points must be an integer") as info:
            tuning_curve(BBO, 26.42, 390.0, (480.0, 560.0), n_points)
        assert info.value.field == "n_points"

    def test_makes_no_pointwise_mismatch_calls(self, monkeypatch):
        calls = []
        real = phase_matching.collinear_mismatch
        monkeypatch.setattr(
            phase_matching, "collinear_mismatch", lambda *a: calls.append(a) or real(*a)
        )
        tuning_curve(BBO, 26.42, 390.0, (480.0, 560.0), 201)
        assert calls == []

    def test_zero_crossing_near_reference_signal(self):
        theta = solved_angle()
        curve = tuning_curve(BBO, theta, 390.0, (480.0, 560.0), 401)
        mism = curve[:, 2]
        signs = np.sign(mism)
        crossings = np.flatnonzero(np.diff(signs) != 0)
        assert crossings.size >= 1
        j = crossings[0]
        s0, s1 = curve[j, 0], curve[j + 1, 0]
        m0, m1 = mism[j], mism[j + 1]
        s_cross = s0 - m0 * (s1 - s0) / (m1 - m0)
        assert s_cross == pytest.approx(521.0, abs=0.5)

    def test_solved_triple_has_zero_mismatch(self):
        theta = solved_angle()
        k_pump_per_mm = (
            2.0 * math.pi * index_extraordinary_at_angle(BBO, theta, 390.0) / 390.0 * 1e6
        )
        curve = tuning_curve(BBO, theta, 390.0, (TRIPLE.signal_nm - 1e-9, TRIPLE.signal_nm + 1e-9), 3)
        assert abs(curve[1, 2]) < 1e-6 * k_pump_per_mm

    def test_sorted_and_energy_conserving(self):
        curve = tuning_curve(BBO, 26.42, 390.0, (480.0, 560.0), 101)
        assert np.all(np.diff(curve[:, 0]) > 0.0)
        residual = np.abs(1.0 / curve[:, 0] + 1.0 / curve[:, 1] - 1.0 / 390.0)
        assert np.max(residual) < 1e-9

    def test_smoothness(self):
        curve = tuning_curve(BBO, 26.42, 390.0, (480.0, 560.0), 101)
        mism = curve[:, 2]
        diffs = np.abs(np.diff(mism))
        bound = 10.0 * (mism.max() - mism.min()) / (mism.size - 1)
        assert np.max(diffs) < bound

    def test_validation(self):
        with pytest.raises(ValidationError):
            tuning_curve(BBO, 26.42, 390.0, (480.0, 560.0), 1)
        with pytest.raises(ValidationError):
            tuning_curve(BBO, 26.42, 390.0, (380.0, 560.0), 10)
        with pytest.raises(ValidationError, match="finite"):
            tuning_curve(BBO, 26.42, 390.0, (480.0, math.inf), 10)
        with pytest.raises(ValidationError):
            tuning_curve(BBO, 26.42, math.nan, (480.0, 560.0), 10)

    def test_nan_angle_rejected(self):
        # a NaN angle used to give a curve of NaN mismatches without an error
        with pytest.raises(DomainError):
            tuning_curve(BBO, math.nan, 390.0, (480.0, 560.0), 10)

    def test_idler_outside_window_rejected(self):
        # idlers of signals just above the pump lie far beyond 3000 nm
        with pytest.raises(DomainError):
            tuning_curve(BBO, 26.42, 390.0, (400.0, 450.0), 10)


class TestJointSpectrum:
    def make(self, **kwargs):
        defaults = dict(
            crystal=BBO,
            theta_deg=solved_angle(),
            pump_center_nm=390.0,
            pump_fwhm_nm=2.4,
            signal_axis_nm=DEFAULT_SIGNAL_AXIS,
            idler_axis_nm=DEFAULT_IDLER_AXIS,
        )
        defaults.update(kwargs)
        return joint_spectral_intensity(**defaults)

    def test_peak_on_energy_ridge(self):
        spectrum = self.make()
        peak_s, peak_i = spectrum.peak()
        assert peak_s == pytest.approx(521.0, abs=0.3)
        # one idler grid cell is 1.25 nm
        ridge_idler = idler_wavelength(390.0, peak_s)
        assert abs(peak_i - ridge_idler) <= 1.25

    def test_normalized_and_nonnegative(self):
        spectrum = self.make()
        assert spectrum.intensity.max() == pytest.approx(1.0, rel=1e-12)
        assert np.all(spectrum.intensity >= 0.0)
        assert spectrum.signal_marginal().sum() > 0.0
        assert np.isfinite(spectrum.idler_marginal()).all()

    def test_deterministic(self):
        a = self.make()
        b = self.make()
        assert np.array_equal(a.intensity, b.intensity)

    def test_zero_bandwidth_limit_confined_to_ridge(self):
        # pump bandwidth far below one grid cell: the delta-function limit
        with pytest.warns(ResolutionWarning):
            spectrum = self.make(pump_fwhm_nm=0.01)
        cell = DEFAULT_IDLER_AXIS[1] - DEFAULT_IDLER_AXIS[0]
        live = np.argwhere(spectrum.intensity > 1e-8)
        assert live.size > 0
        for i, j in live:
            ridge = idler_wavelength(390.0, float(spectrum.signal_axis[i]))
            assert abs(spectrum.idler_axis[j] - ridge) <= cell

    def test_doubling_length_halves_phase_matching_width(self):
        # flat pump envelope isolates the sinc^2 factor
        idler_fine = np.linspace(1471.0, 1671.0, 2001)
        widths = {}
        for length in (5.0, 10.0):
            crystal = CrystalSpec(length_mm=length)
            spectrum = joint_spectral_intensity(
                crystal, solved_angle(), 390.0, 1e9, np.array([520.9, 521.0, 521.1]), idler_fine
            )
            col = spectrum.intensity[1]
            above = col >= 0.5 * col.max()
            widths[length] = above.sum() * (idler_fine[1] - idler_fine[0])
        assert widths[10.0] == pytest.approx(0.5 * widths[5.0], rel=0.05)

    # rows per block on the default idler axis
    BLOCK_ROWS = phase_matching.JSI_BLOCK_CELLS // DEFAULT_IDLER_AXIS.size

    @pytest.mark.parametrize("rows", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, DEFAULT_SIGNAL_AXIS.size])
    def test_equals_full_meshgrid_formula(self, rows):
        theta, pump, fwhm = solved_angle(), 390.0, 2.4
        # signal rows centred on the 521 nm ridge
        start = (DEFAULT_SIGNAL_AXIS.size - rows) // 2
        signal = DEFAULT_SIGNAL_AXIS[start : start + rows]
        S, I = np.meshgrid(signal, DEFAULT_IDLER_AXIS, indexing="ij")
        nu_sum = 1.0 / S + 1.0 / I
        d_nu = fwhm / pump**2
        envelope = np.exp(-4.0 * np.log(2.0) * ((nu_sum - 1.0 / pump) / d_nu) ** 2)
        lam_pump = 1.0 / nu_sum
        n_o = index_ordinary(BBO, lam_pump)
        n_e = index_extraordinary_principal(BBO, lam_pump)
        t = np.radians(theta)
        n_p = 1.0 / np.sqrt(np.cos(t) ** 2 / n_o**2 + np.sin(t) ** 2 / n_e**2)
        n_s = index_ordinary(BBO, S)
        n_i = index_ordinary(BBO, I)
        dk = 2.0 * np.pi * (n_p * nu_sum - n_s / S - n_i / I)
        x = dk * (BBO.length_mm * 1e6) / 2.0
        intensity = envelope * np.sinc(x / np.pi) ** 2
        expected = intensity / intensity.max()
        assert np.array_equal(self.make(theta_deg=theta, signal_axis_nm=signal).intensity, expected)

    def test_memory_stays_per_block(self):
        # whole-grid temporaries used to peak at 10x the result
        theta = solved_angle()
        tracemalloc.start()
        try:
            spectrum = self.make(theta_deg=theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * spectrum.intensity.nbytes

    def test_nan_on_an_axis_rejected(self):
        # a NaN grid point used to turn the whole normalized intensity into NaN
        for row in (5, -1):  # -1: only the last row block holds it
            signal = DEFAULT_SIGNAL_AXIS.copy()
            signal[row] = math.nan
            with pytest.raises(DomainError, match="Sellmeier validity window"):
                self.make(signal_axis_nm=signal)
        idler = DEFAULT_IDLER_AXIS.copy()
        idler[-1] = math.nan
        with pytest.raises(DomainError, match="Sellmeier validity window"):
            self.make(idler_axis_nm=idler)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_pump_centre_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            self.make(pump_center_nm=value)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            self.make(signal_axis_nm=np.array([521.0]))
        for width in (-1.0, 0.0):
            with pytest.raises(ValidationError, match="pump FWHM must be > 0"):
                self.make(pump_fwhm_nm=width)


class TestHeraldedMarginal:
    def test_reference_acceptance_band(self):
        spectrum = joint_spectral_intensity(
            BBO, solved_angle(), 390.0, 2.4, DEFAULT_SIGNAL_AXIS, DEFAULT_IDLER_AXIS
        )
        fwhm = heralded_marginal_bandwidth(spectrum, 521.0, 6.0)
        assert fwhm == pytest.approx(16.30, abs=0.5)
        assert 12.0 <= fwhm <= 27.0

    def test_wide_filter_equals_unfiltered(self):
        spectrum = joint_spectral_intensity(
            BBO, solved_angle(), 390.0, 2.4, DEFAULT_SIGNAL_AXIS, DEFAULT_IDLER_AXIS
        )
        from spdcherald.phase_matching import _fwhm

        unfiltered = _fwhm(spectrum.idler_axis, spectrum.idler_marginal())
        wide = heralded_marginal_bandwidth(spectrum, 521.0, 1e6)
        assert wide == pytest.approx(unfiltered, rel=1e-6)

    def test_narrowing_never_widens(self):
        spectrum = joint_spectral_intensity(
            BBO, solved_angle(), 390.0, 2.4, DEFAULT_SIGNAL_AXIS, DEFAULT_IDLER_AXIS
        )
        wide = heralded_marginal_bandwidth(spectrum, 521.0, 1e6)
        for width in (16.0, 8.0, 6.0, 4.0, 2.0, 1.0):
            assert heralded_marginal_bandwidth(spectrum, 521.0, width) <= wide + 1e-9

    def test_disjoint_filter_rejected(self):
        spectrum = joint_spectral_intensity(
            BBO, solved_angle(), 390.0, 2.4, DEFAULT_SIGNAL_AXIS, DEFAULT_IDLER_AXIS
        )
        with pytest.raises(EmptyMarginalError):
            heralded_marginal_bandwidth(spectrum, 495.0, 0.5)

    def test_filter_validation(self):
        spectrum = joint_spectral_intensity(
            BBO, solved_angle(), 390.0, 2.4, DEFAULT_SIGNAL_AXIS, DEFAULT_IDLER_AXIS
        )
        for centre, width in ((521.0, 0.0), (521.0, -6.0), (521.0, math.nan), (math.nan, 6.0), (math.inf, 6.0)):
            with pytest.raises(ValidationError):
                heralded_marginal_bandwidth(spectrum, centre, width)


class TestCrystalValidation:
    def test_bad_length(self):
        with pytest.raises(ValidationError):
            CrystalSpec(length_mm=0.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -5.0])
    def test_length_outside_the_finite_positives(self, length):
        # NaN failed "length <= 0" and inf passed it
        with pytest.raises(ValidationError, match="crystal length must be finite and > 0") as info:
            CrystalSpec(length_mm=length)
        assert info.value.field == "length_mm"

    def test_bad_cut(self):
        with pytest.raises(ValidationError):
            CrystalSpec(cut_angle_deg=120.0)

    @pytest.mark.parametrize("field", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sellmeier_coefficient_is_refused(self, field, value):
        # a NaN a gave a 89.99999995709 degree phase-matching angle and a NaN tuning curve
        coefficients = {"a": 2.7359, "b": 0.01878, "c": 0.01822, "d": 0.01354, field: value}
        with pytest.raises(ValidationError, match=f"Sellmeier coefficient {field} must be finite"):
            SellmeierCoefficients(**coefficients)

    def test_custom_sellmeier_set(self):
        custom = SellmeierCoefficients(2.7359, 0.01878, 0.01822, 0.01354)
        crystal = CrystalSpec(sellmeier_ordinary=custom)
        assert index_ordinary(crystal, 521.0) == index_ordinary(BBO, 521.0)
