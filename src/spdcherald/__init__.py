"""spdcherald: simulation and estimation toolkit for pulsed heralded
single-photon sources from parametric down-conversion.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a subcommand loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports through the package
_EXPORTS = {
    "pair_source": ("PairNumberDistribution", "REFERENCE_CALIBRATION_PER_MW"),
    "detectors": (
        "FreeRunningDetector",
        "GatedDetector",
        "DeadTimeSpec",
        "dead_time_throughput",
        "simulate_dead_time",
    ),
    "phase_matching": (
        "SellmeierCoefficients",
        "CrystalSpec",
        "WavelengthTriple",
        "JointSpectrum",
        "index_ordinary",
        "index_extraordinary_principal",
        "index_extraordinary_at_angle",
        "idler_wavelength",
        "collinear_mismatch",
        "collinear_pm_angle",
        "tuning_curve",
        "joint_spectral_intensity",
        "heralded_marginal_bandwidth",
    ),
    "experiment": (
        "SetupConfig",
        "CountRates",
        "HeraldedStats",
        "G2Result",
        "simulate_counts",
        "heralded_photon_statistics",
        "hbt_g2",
        "reference_setup",
    ),
    "estimator": ("SourceEstimate", "WcpComparison", "estimate_source", "equivalent_wcp"),
    "qkd": (
        "ChannelSpec",
        "SecureDistance",
        "TradeoffRow",
        "multiphoton_fraction",
        "max_secure_distance",
        "pump_sweep",
    ),
    "scenario": ("Scenario", "parse_scenario", "load_scenario"),
    "errors": (
        "SpdcHeraldError",
        "ValidationError",
        "DomainError",
        "NumericalError",
        "NoPhaseMatchingError",
        "ResolutionWarning",
        "EmptyMarginalError",
        "InfeasibleCountsError",
        "EstimationError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # a module read as an attribute, such as ``spdcherald.qkd``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
