"""Refractive indices, collinear type-I phase matching, and biphoton spectra.

Type-I interaction in a negative uniaxial crystal: extraordinary pump,
ordinary signal and idler, all collinear.  The collinear mismatch is

    dk = 2 pi [ n_e(theta; l_p)/l_p - n_o(l_s)/l_s - n_o(l_i)/l_i ]

with wavelengths in nm, so dk carries rad/nm (scaled to rad/mm on output
where noted).  The joint spectral intensity combines the pump envelope with
the sinc^2 phase-matching factor of a crystal of finite length.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import (
    DomainError,
    EmptyMarginalError,
    NoPhaseMatchingError,
    ResolutionWarning,
    ValidationError,
    require_integer,
    require_range,
)


@dataclass(frozen=True)
class SellmeierCoefficients:
    """One-resonance Sellmeier set with infrared correction.

    ``n^2 = a + b / (lambda^2 - c) - d * lambda^2`` with lambda in micrometres.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            require_range(f"Sellmeier coefficient {name}", getattr(self, name), field=name)

    def index(self, wavelength_um, field=None):
        """Refractive index at wavelengths in micrometres; a :class:`ValidationError`
        naming ``field`` where n^2 is not finite and positive there."""
        lam = np.asarray(wavelength_um, dtype=float)
        n2 = self._n2(np.square(lam))
        valid = (n2 > 0.0) & (n2 < np.inf)  # written as "inside" so that NaN fails the check
        if not valid.all():
            i = np.argmin(valid)
            raise ValidationError(
                f"Sellmeier set ({self.a}, {self.b}, {self.c}, {self.d}) gives n^2 = {np.ravel(n2)[i]:.6g} "
                f"at {np.ravel(lam)[i] * 1e3:.6g} nm; n^2 must be finite and > 0",
                field,
            )
        return np.sqrt(n2)

    def _n2(self, lam2, out=None, scratch=None):
        """``a + b / (lambda^2 - c) - d lambda^2``; ``out`` and ``scratch`` take it and ``d lambda^2``."""
        # a pole lam^2 = c or huge coefficients give inf or NaN, which the callers refuse
        with np.errstate(all="ignore"):
            n2 = np.add(self.a, np.divide(self.b, np.subtract(lam2, self.c, out=out), out=out), out=out)
            return np.subtract(n2, np.multiply(self.d, lam2, out=scratch), out=out)


BBO_KATO_1986_ORDINARY = SellmeierCoefficients(*defaults.BBO_KATO_1986_ORDINARY)
BBO_KATO_1986_EXTRAORDINARY = SellmeierCoefficients(*defaults.BBO_KATO_1986_EXTRAORDINARY)

# wavelengths in micrometres where the Sellmeier sets are trusted
VALIDITY_WINDOW_UM = (0.2, 3.0)


@dataclass(frozen=True)
class CrystalSpec:
    """Uniaxial crystal: dispersion data, length, and cut angle."""

    sellmeier_ordinary: SellmeierCoefficients = BBO_KATO_1986_ORDINARY
    sellmeier_extraordinary: SellmeierCoefficients = BBO_KATO_1986_EXTRAORDINARY
    length_mm: float = defaults.CRYSTAL_LENGTH_MM
    cut_angle_deg: float = defaults.CUT_ANGLE_DEG
    name: str = defaults.CRYSTAL_NAME

    def __post_init__(self):
        require_range("crystal length", self.length_mm, 0.0, field="length_mm", lo_open=True)
        require_range("cut angle", self.cut_angle_deg, 0.0, 90.0, "cut_angle_deg")


def _checked_um(wavelength_nm):
    """Wavelengths in nm as micrometres, all inside the Sellmeier validity window."""
    lam = np.asarray(wavelength_nm, dtype=float) * 1e-3
    lo, hi = VALIDITY_WINDOW_UM
    # written as "not inside" so that NaN fails the check
    inside = (lam >= lo) & (lam <= hi)
    if not inside.all():
        raise DomainError(
            f"wavelength {np.ravel(lam)[np.argmin(inside)] * 1e3:.6g} nm outside the Sellmeier "
            f"validity window [{lo * 1e3:.0f}, {hi * 1e3:.0f}] nm"
        )
    return lam


def index_ordinary(crystal: CrystalSpec, wavelength_nm):
    """Ordinary refractive index n_o at a vacuum wavelength in nm."""
    return crystal.sellmeier_ordinary.index(_checked_um(wavelength_nm), "sellmeier_ordinary")


def index_extraordinary_principal(crystal: CrystalSpec, wavelength_nm):
    """Principal extraordinary index n_e (propagation at 90 deg to the axis)."""
    return crystal.sellmeier_extraordinary.index(_checked_um(wavelength_nm), "sellmeier_extraordinary")


def index_extraordinary_at_angle(crystal: CrystalSpec, theta_deg, wavelength_nm):
    """Extraordinary-wave index at angle theta from the optic axis.

    Index ellipsoid: ``1/n(theta)^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2``;
    interpolates exactly between n_o at 0 deg and n_e at 90 deg.
    """
    theta = _checked_theta(theta_deg)
    n = _index_at_angle(crystal, theta, _checked_um(wavelength_nm))
    return float(n) if n.ndim == 0 else n


def _checked_theta(theta_deg) -> np.ndarray:
    theta = np.asarray(theta_deg, dtype=float)
    if not ((theta >= 0.0) & (theta <= 90.0)).all():
        raise DomainError(f"theta must lie in [0, 90] degrees, got {theta_deg}")
    return theta


def _index_at_angle(crystal: CrystalSpec, theta, wavelength_um):
    """Extraordinary-wave index at a checked angle and checked wavelengths in um."""
    n_o = crystal.sellmeier_ordinary.index(wavelength_um, "sellmeier_ordinary")
    n_e = crystal.sellmeier_extraordinary.index(wavelength_um, "sellmeier_extraordinary")
    n = _ellipsoid_index(n_o, n_e, theta)
    if ((theta == 0.0) | (theta == 90.0)).any():
        # endpoints reduce to the principal indices without round-off
        n = np.where(theta == 0.0, n_o, np.where(theta == 90.0, n_e, n))
    return n


def _ellipsoid_index(n_o, n_e, theta_deg):
    t = np.radians(theta_deg)
    inv_n2 = np.cos(t) ** 2 / n_o**2 + np.sin(t) ** 2 / n_e**2
    return 1.0 / np.sqrt(inv_n2)


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Idler wavelength fixed by energy conservation: 1/l_i = 1/l_p - 1/l_s."""
    if signal_nm <= pump_nm:
        raise DomainError(
            f"signal ({signal_nm} nm) must be longer than the pump ({pump_nm} nm); no physical idler", "pump_nm"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


@dataclass(frozen=True)
class WavelengthTriple:
    """Energy-conserving pump/signal/idler triple, wavelengths in nm."""

    pump_nm: float
    signal_nm: float
    idler_nm: float

    def __post_init__(self):
        # blamed on the pump: for a given signal it sets whether an idler exists
        if not (self.pump_nm < self.signal_nm <= self.idler_nm):
            raise ValidationError(
                f"expected pump < signal <= idler, got "
                f"({self.pump_nm}, {self.signal_nm}, {self.idler_nm}) nm",
                "pump_nm",
            )
        lhs = 1.0 / self.pump_nm
        rhs = 1.0 / self.signal_nm + 1.0 / self.idler_nm
        if abs(lhs - rhs) > 1e-9 * lhs:
            raise ValidationError(
                f"energy conservation violated: 1/pump differs from 1/signal + 1/idler "
                f"by {abs(lhs - rhs) / lhs:.3e} (relative)"
            )

    @classmethod
    def from_pump_signal(cls, pump_nm: float, signal_nm: float) -> "WavelengthTriple":
        return cls(pump_nm, signal_nm, idler_wavelength(pump_nm, signal_nm))


def collinear_mismatch(crystal: CrystalSpec, theta_deg: float, triple: WavelengthTriple) -> float:
    """Collinear type-I phase mismatch dk in rad/nm at a fixed crystal angle."""
    return float(_mismatch(crystal, theta_deg, triple.pump_nm, triple.signal_nm, triple.idler_nm))


def _mismatch(crystal: CrystalSpec, theta_deg: float, pump_nm: float, signal_nm, idler_nm):
    """``k_p - k_s - k_i`` in rad/nm at signal and idler wavelengths (scalars
    or arrays) that conserve energy with the pump."""
    k_p = 2.0 * np.pi * index_extraordinary_at_angle(crystal, theta_deg, pump_nm) / pump_nm
    k_s = 2.0 * np.pi * index_ordinary(crystal, signal_nm) / signal_nm
    k_i = 2.0 * np.pi * index_ordinary(crystal, idler_nm) / idler_nm
    # subtract the shorter wavelength's k first, so that a pair past
    # degeneracy rounds as its mirror pair does
    short_first = signal_nm <= idler_nm
    return k_p - np.where(short_first, k_s, k_i) - np.where(short_first, k_i, k_s)


# |dk| below this fraction of k_pump counts as phase matched.
PM_RESIDUAL_TOLERANCE = 1e-6
# bisection resolution in degrees
PM_ANGLE_RESOLUTION_DEG = 1e-4


def collinear_pm_angle(crystal: CrystalSpec, triple: WavelengthTriple) -> float:
    """Crystal angle that zeroes the collinear type-I mismatch, in degrees.

    Deterministic bisection on (0, 90) deg; the returned angle leaves a
    residual below ``PM_RESIDUAL_TOLERANCE * k_pump``.
    """
    # only the pump index depends on theta: evaluate everything else once
    pump = triple.pump_nm
    n_o = index_ordinary(crystal, pump)
    n_e = index_extraordinary_principal(crystal, pump)
    k_s = 2.0 * np.pi * index_ordinary(crystal, triple.signal_nm) / triple.signal_nm
    k_i = 2.0 * np.pi * index_ordinary(crystal, triple.idler_nm) / triple.idler_nm

    def mismatch(theta: float) -> float:
        k_p = 2.0 * np.pi * _ellipsoid_index(n_o, n_e, theta) / pump
        return float(k_p - k_s - k_i)

    lo, hi = 1e-9, 90.0 - 1e-9
    f_lo = mismatch(lo)
    f_hi = mismatch(hi)
    if f_lo * f_hi > 0.0:
        raise NoPhaseMatchingError(
            f"no collinear phase-matching angle in (0, 90) deg: "
            f"dk({lo:.1e} deg) = {f_lo:.6e} rad/nm, dk(90 deg) = {f_hi:.6e} rad/nm",
            residual_low=f_lo,
            residual_high=f_hi,
        )
    while hi - lo > PM_ANGLE_RESOLUTION_DEG * 1e-3:
        mid = 0.5 * (lo + hi)
        f_mid = mismatch(mid)
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    theta = 0.5 * (lo + hi)
    # theta lies strictly inside (0, 90): the ellipsoid index needs no endpoint case
    k_pump = 2.0 * np.pi * _ellipsoid_index(n_o, n_e, theta) / pump
    residual = float(k_pump - k_s - k_i)
    if abs(residual) > PM_RESIDUAL_TOLERANCE * k_pump:
        raise NoPhaseMatchingError(
            f"bisection converged to theta = {theta:.4f} deg but the residual "
            f"{residual:.3e} rad/nm exceeds {PM_RESIDUAL_TOLERANCE:.0e} of k_pump"
        )
    return float(theta)


def tuning_curve(
    crystal: CrystalSpec,
    theta_deg: float,
    pump_nm: float,
    signal_range_nm: tuple[float, float],
    n_points: int,
) -> np.ndarray:
    """Mismatch along the energy-conservation curve at a fixed angle.

    Returns an array of rows ``(signal_nm, idler_nm, mismatch_rad_per_mm)``
    sorted by signal wavelength; the idler follows from energy conservation
    at every point, so the mismatch alone tells how far each pair is from
    phase matching.
    """
    n_points = require_integer("n_points", n_points)
    require_range("n_points", n_points, 2, field="n_points")
    lo, hi = signal_range_nm
    if not (pump_nm < lo < hi < np.inf):
        raise ValidationError(
            f"signal range {signal_range_nm} must be finite and lie above the pump ({pump_nm} nm)"
        )
    signals = np.linspace(lo, hi, n_points)
    idlers = 1.0 / (1.0 / pump_nm - 1.0 / signals)
    dk = _mismatch(crystal, theta_deg, pump_nm, signals, idlers)
    return np.column_stack((signals, idlers, dk * 1e6))  # rad/nm -> rad/mm


@dataclass(frozen=True)
class JointSpectrum:
    """Joint spectral intensity of the biphoton on a wavelength grid."""

    signal_axis: np.ndarray
    idler_axis: np.ndarray
    intensity: np.ndarray  # shape (signal, idler), max normalized to 1

    def peak(self) -> tuple[float, float]:
        """(signal, idler) wavelengths of the intensity maximum."""
        i, j = np.unravel_index(int(np.argmax(self.intensity)), self.intensity.shape)
        return float(self.signal_axis[i]), float(self.idler_axis[j])

    def idler_marginal(self, signal_weights: np.ndarray | None = None) -> np.ndarray:
        w = np.ones_like(self.signal_axis) if signal_weights is None else signal_weights
        return (self.intensity * w[:, None]).sum(axis=0)

    def signal_marginal(self) -> np.ndarray:
        return self.intensity.sum(axis=1)


# Cells per row block of the joint spectrum: the block's four buffers of at most 128 KiB each
# stay in cache and, unlike one 512 KiB array (page-faulted afresh on every call), come from
# the heap below glibc's mmap threshold; the per-block call overhead stays small.
JSI_BLOCK_CELLS = 16384


def joint_spectral_intensity(
    crystal: CrystalSpec,
    theta_deg: float,
    pump_center_nm: float,
    pump_fwhm_nm: float,
    signal_axis_nm: np.ndarray,
    idler_axis_nm: np.ndarray,
) -> JointSpectrum:
    """Joint spectral intensity: pump envelope times sinc^2 phase matching.

    For each grid pair the implied pump follows from energy conservation,
    ``1/l_p = 1/l_s + 1/l_i``; a Gaussian pump intensity profile of the given
    FWHM weights that detuning, and the crystal-length sinc^2 factor weighs
    the residual mismatch.  The result is normalized to a unit maximum.
    """
    require_range("pump centre wavelength", pump_center_nm, field="pump_center_nm")
    require_range("pump FWHM", pump_fwhm_nm, 0.0, field="pump_fwhm_nm", lo_open=True)
    sig = np.asarray(signal_axis_nm, dtype=float)
    idl = np.asarray(idler_axis_nm, dtype=float)
    if sig.size < 2 or idl.size < 2:
        raise ValidationError("spectral axes need at least two points")
    theta = _checked_theta(theta_deg)
    # the axes are checked against the validity window before any reciprocal:
    # a zero or subnormal wavelength would divide by zero or overflow
    n_over_s = index_ordinary(crystal, sig) / sig
    n_over_i = index_ordinary(crystal, idl) / idl
    inv_s, inv_i = 1.0 / sig, 1.0 / idl
    nu_0 = 1.0 / pump_center_nm
    # FWHM of the pump *intensity* spectrum mapped to 1/lambda units
    d_nu = pump_fwhm_nm / pump_center_nm**2
    if d_nu == 0.0:
        raise ValidationError(f"pump FWHM {pump_fwhm_nm} nm underflows to 0 in 1/nm units", "pump_fwhm_nm")
    fwhm_scale = -4.0 * np.log(2.0)
    length_nm = crystal.length_mm * 1e6
    if not np.isfinite(length_nm):
        # an infinite phase dk L / 2 has no sinc^2: sin(inf) is NaN
        raise ValidationError(f"crystal length {crystal.length_mm} mm overflows to inf in nm", "length_mm")

    # Row blocks of JSI_BLOCK_CELLS cells, each by the whole-grid formula's own steps and error
    # states, in place in four block buffers and its output rows.  Far from a narrow pump the
    # envelope's exponent overflows to -inf, and exp(-inf) = 0 is its limit.
    intensity = np.empty((sig.size, idl.size))
    rows = max(1, JSI_BLOCK_CELLS // idl.size)
    buffers = [np.empty((rows, idl.size)) for _ in range(4)]
    # 1/l_p = 1/l_s + 1/l_i falls along both axes: if two corners pass the window check, all cells do
    corners = (1.0 / np.array([inv_s.max() + inv_i.max(), inv_s.min() + inv_i.min()])) * 1e-3
    check_window = not (VALIDITY_WINDOW_UM[0] <= corners[0] and corners[1] <= VALIDITY_WINDOW_UM[1])
    cos2, sin2 = np.cos(np.radians(theta)) ** 2, np.sin(np.radians(theta)) ** 2
    endpoint = ((theta == 0.0) | (theta == 90.0)).any()
    with np.errstate(over="ignore"):
        for start in range(0, sig.size, rows):
            block = slice(start, start + rows)
            out = intensity[block]
            nu, lam, n_o, n_e = (b[: len(out)] for b in buffers)
            np.add(inv_s[block, None], inv_i, out=nu)  # implied 1/lambda_pump, nm^-1
            if check_window:
                _checked_um(1.0 / nu)
            # _index_at_angle(crystal, theta, _checked_um(1 / nu)), one lambda^2 for both sets
            lam2 = np.square(np.multiply(np.divide(1.0, nu, out=lam), 1e-3, out=lam), out=lam)
            for key, n in (("sellmeier_ordinary", n_o), ("sellmeier_extraordinary", n_e)):
                getattr(crystal, key)._n2(lam2, out=n, scratch=out)
                if not (n.min() > 0.0 and n.max() < np.inf):  # NaN fails both
                    getattr(crystal, key).index(_checked_um(1.0 / nu), key)
                np.sqrt(n, out=n)
            n_p = np.divide(cos2, np.square(n_o, out=lam), out=lam)
            n_p += np.divide(sin2, np.square(n_e, out=out), out=out)
            np.divide(1.0, np.sqrt(n_p, out=n_p), out=n_p)
            if endpoint:  # the principal indices themselves, without round-off
                np.copyto(n_p, n_o, where=theta == 0.0)
                np.copyto(n_p, n_e, where=theta == 90.0)
            # x = dk L / 2, dk = 2 pi (n_p / l_p - n_o(l_s) / l_s - n_o(l_i) / l_i)
            x = np.multiply(n_p, nu, out=n_p)
            x -= n_over_s[block, None]
            x -= n_over_i
            x *= 2.0 * np.pi
            x *= length_nm
            x *= 0.5  # / 2.0, exactly
            # np.sinc(x / pi)^2 by its own steps: y = pi * (x / pi), 0 -> eps, (sin(y) / y)^2
            x /= np.pi
            x *= np.pi
            np.copyto(x, np.finfo(float).eps, where=x == 0.0)
            np.square(np.divide(np.sin(x, out=out), x, out=out), out=out)
            # times the Gaussian pump envelope exp(fwhm_scale ((nu - nu_0) / d_nu)^2)
            envelope = np.square(np.divide(np.subtract(nu, nu_0, out=n_o), d_nu, out=n_o), out=n_o)
            out *= np.exp(np.multiply(envelope, fwhm_scale, out=envelope), out=envelope)
    peak = int(np.argmax(intensity))  # the first maximum, or the first NaN, as max() finds it
    peak_val = intensity.flat[peak]
    if peak_val <= 0.0:
        raise ValidationError("grid does not overlap the phase-matched region")
    intensity /= peak_val

    # resolution check: the ridge must span >= 3 idler cells at half maximum in the first
    # row holding the maximum (argmax of the rows' maxima: v / max is 1 only where v is max)
    col = intensity[peak // idl.size]
    if int((col >= 0.5).sum()) < 3:
        warnings.warn(
            "idler grid is too coarse: the spectral peak spans fewer than 3 cells at half maximum",
            ResolutionWarning,
            stacklevel=2,
        )
    return JointSpectrum(sig, idl, intensity)


def _fwhm(axis: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings;
    a :class:`ValidationError` where a crossing lies past an end of the axis."""
    peak = values.max()
    if peak <= 0.0:
        raise EmptyMarginalError("cannot take the FWHM of an all-zero curve")
    y = values / peak
    above = y >= 0.5
    if above[0] or above[-1]:
        end = axis[0] if above[0] else axis[-1]
        raise ValidationError(f"the marginal is above half its maximum at the axis end {end:g} nm: its FWHM runs past it")
    i0 = int(np.argmax(above))
    i1 = len(y) - 1 - int(np.argmax(above[::-1]))

    def cross(i, j):
        return axis[i] + (0.5 - y[i]) * (axis[j] - axis[i]) / (y[j] - y[i])

    return float(cross(i1 + 1, i1) - cross(i0 - 1, i0))


def heralded_marginal_bandwidth(
    spectrum: JointSpectrum,
    filter_center_nm: float,
    filter_fwhm_nm: float,
) -> float:
    """Idler FWHM after a Gaussian bandpass on the signal axis, in nm.

    Models the effective spectral acceptance of the heralding arm (filter
    stack plus fiber mode selection) as a single Gaussian bandpass.
    """
    require_range("filter centre wavelength", filter_center_nm, field="filter_center_nm")
    require_range("filter FWHM", filter_fwhm_nm, 0.0, field="filter_fwhm_nm", lo_open=True)
    # far from a narrow filter the exponent overflows to -inf: exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        exponent = -4.0 * np.log(2.0) * ((spectrum.signal_axis - filter_center_nm) / filter_fwhm_nm) ** 2
    weights = np.exp(exponent)
    marginal = spectrum.idler_marginal(weights)
    if marginal.max() <= 1e-12 * spectrum.intensity.max():
        raise EmptyMarginalError(
            f"signal filter at {filter_center_nm} nm (FWHM {filter_fwhm_nm} nm) "
            "does not overlap the spectrum support"
        )
    return _fwhm(spectrum.idler_axis, marginal)
