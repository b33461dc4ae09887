"""Defaults and choices shared by the scenario schema and the models.

This module imports nothing, numpy included, so that a scenario is validated
without loading a model.  Each value is declared here once:
:data:`spdcherald.scenario.SCHEMA` and the model dataclasses both read it.
Of each tuple of choices, the first is the default.
"""

# beta-barium borate dispersion (a, b, c, d), Kato, IEEE J. Quantum Electron. 22, 1013 (1986)
BBO_KATO_1986_ORDINARY = (2.7359, 0.01878, 0.01822, 0.01354)
BBO_KATO_1986_EXTRAORDINARY = (2.3753, 0.01224, 0.01667, 0.01516)

# the crystal (phase_matching.CrystalSpec)
CRYSTAL_NAME = "BBO (Kato 1986)"
CRYSTAL_LENGTH_MM = 5.0
CUT_ANGLE_DEG = 26.42

# pair-number laws (pair_source.PairNumberDistribution)
LAWS = ("poissonian", "thermal", "multimode_thermal")

# the detection chain (experiment.SetupConfig and the detectors)
HERALD_MODES = ("free_running",)
IDLER_MODES = ("gated",)
AFTERPULSE_PROB = 0.0
GATE_RATE_HZ = 205000.0
COINCIDENCE_WINDOW = 1
DEAD_TIME_MODELS = ("paralyzable", "nonparalyzable")

# the fiber channel (qkd.ChannelSpec)
LOSS_DB_PER_KM = 0.2

# a run: how the forward model is evaluated, and the arm an HBT g2 measures
RUN_MODES = ("analytic", "monte_carlo")
HBT_ARMS = ("signal_unconditioned", "idler_heralded")
