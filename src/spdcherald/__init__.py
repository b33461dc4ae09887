"""spdcherald: simulation and estimation toolkit for pulsed heralded
single-photon sources from parametric down-conversion."""

__version__ = "0.1.0"

from .detectors import (
    DeadTimeSpec,
    FreeRunningDetector,
    GatedDetector,
    dead_time_throughput,
    simulate_dead_time,
)
from .errors import (
    DomainError,
    EmptyMarginalError,
    EstimationError,
    InfeasibleCountsError,
    NoPhaseMatchingError,
    NumericalError,
    ResolutionWarning,
    SpdcHeraldError,
    ValidationError,
)
from .estimator import (
    SourceEstimate,
    WcpComparison,
    equivalent_wcp,
    estimate_source,
)
from .experiment import (
    CountRates,
    G2Result,
    HeraldedStats,
    SetupConfig,
    hbt_g2,
    heralded_photon_statistics,
    reference_setup,
    simulate_counts,
)
from .pair_source import (
    PairNumberDistribution,
    REFERENCE_CALIBRATION_PER_MW,
    thin,
)
from .phase_matching import (
    CrystalSpec,
    JointSpectrum,
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
from .qkd import (
    ChannelSpec,
    SecureDistance,
    TradeoffRow,
    max_secure_distance,
    multiphoton_fraction,
    pump_sweep,
)
from .scenario import Scenario, load_scenario, parse_scenario

__all__ = [
    "__version__",
    # pair source
    "PairNumberDistribution",
    "thin",
    "REFERENCE_CALIBRATION_PER_MW",
    # detectors
    "FreeRunningDetector",
    "GatedDetector",
    "DeadTimeSpec",
    "dead_time_throughput",
    "simulate_dead_time",
    # phase matching
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
    # experiment
    "SetupConfig",
    "CountRates",
    "HeraldedStats",
    "G2Result",
    "simulate_counts",
    "heralded_photon_statistics",
    "hbt_g2",
    "reference_setup",
    # estimator
    "SourceEstimate",
    "WcpComparison",
    "estimate_source",
    "equivalent_wcp",
    # qkd
    "ChannelSpec",
    "SecureDistance",
    "TradeoffRow",
    "multiphoton_fraction",
    "max_secure_distance",
    "pump_sweep",
    # scenario
    "Scenario",
    "parse_scenario",
    "load_scenario",
    # errors
    "SpdcHeraldError",
    "ValidationError",
    "DomainError",
    "NumericalError",
    "NoPhaseMatchingError",
    "ResolutionWarning",
    "EmptyMarginalError",
    "InfeasibleCountsError",
    "EstimationError",
]
