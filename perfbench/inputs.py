"""Seeded inputs of one run.

Inputs whose outputs are checked against references come from the captured
catalogue (``reference/catalogue.json``); the seed picks which entries and in
what order.  Monte Carlo configs are drawn directly from the seed, because
they are checked against the analytic model instead.

Every draw is stratified: the seed moves inputs within fixed strata (law,
coincidence window, mu band) but never changes how many inputs fall in each
stratum.  The amount of work in a run, and the number of inputs that expose
the estimator defects, therefore do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATALOGUE = Path(__file__).resolve().parent / "reference" / "catalogue.json"

LAWS = ("poissonian", "thermal", "multimode_thermal")
SUBCOMMANDS = ("simulate", "herald-stats", "estimate", "wcp-compare", "sweep", "phasematch", "spectrum", "g2")
WORKLOADS = ("cli_analytic", "mc_stream", "design_sweep")
# the phase each workload runs at full size; the other two run as probes
PRIMARY_PHASE = {"cli_analytic": "cli", "mc_stream": "mc", "design_sweep": "design"}

MC_PULSES = 10_000_000  # per call in mc_stream
MC_PROBE_PULSES = 1_000_000  # per call where the MC is a probe (the library minimum)
CLI_PROBE_ROUNDS = 4  # in-process rounds over the 8 subcommands
CLI_MIN_ROUNDS = 2  # 16 subprocess calls: the fewest whole rounds with a tail
DESIGN_PROBE_ROUNDS = 45
INVERSIONS_PER_ROUND = 3
INVERSION_STRATA = tuple((law, window) for law in LAWS for window in (1, 2, 3))

# approximate cost of one unit, to turn --seconds into a fixed amount of work
CLI_ROUND_S = 11.0
MC_SET_S = 29.0
DESIGN_ROUND_S = 0.042


def load_catalogue(path: Path = CATALOGUE) -> dict:
    return json.loads(path.read_text())


def sizes(workload: str, seconds: float) -> dict:
    """Rounds of CLI calls, MC config sets and design rounds for one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    primary = PRIMARY_PHASE[workload]
    return {
        "cli_rounds": max(CLI_MIN_ROUNDS, round(seconds / CLI_ROUND_S)) if primary == "cli" else CLI_PROBE_ROUNDS,
        "mc_sets": max(1, round(seconds / MC_SET_S)) if primary == "mc" else 1,
        "design_rounds": 3 * max(1, round(seconds / DESIGN_ROUND_S / 3)) if primary == "design" else DESIGN_PROBE_ROUNDS,
    }


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}/{stream}")


def _orders(rng: random.Random, groups: dict) -> dict:
    out = {}
    for key, entries in groups.items():
        order = list(range(len(entries)))
        rng.shuffle(order)
        out[key] = order
    return out


def cli_plan(catalogue: dict, seed: int, rounds: int) -> list[dict]:
    """Round-robin over the subcommands; each round picks one entry per subcommand."""
    groups = {sub: catalogue["cli"][sub] for sub in SUBCOMMANDS}
    order = _orders(_rng(seed, "cli"), groups)
    return [
        groups[sub][order[sub][r % len(order[sub])]] for r in range(rounds) for sub in SUBCOMMANDS
    ]


def design_plan(catalogue: dict, seed: int, rounds: int) -> list[dict]:
    """Each round: one pump sweep, three inversions, one spectral task.

    Sweeps cycle over the three laws and inversions over the nine
    (law, window) strata, so every 3 rounds cover each stratum once.
    """
    sweeps = {law: [e for e in catalogue["sweep"] if e["config"]["law"] == law] for law in LAWS}
    strata = {
        s: [e for e in catalogue["inversion"] if (e["config"]["law"], e["config"]["window"]) == s]
        for s in INVERSION_STRATA
    }
    rng = _rng(seed, "design")
    sweep_order, inv_order = _orders(rng, sweeps), _orders(rng, strata)
    spectral_order = list(range(len(catalogue["spectral"])))
    rng.shuffle(spectral_order)
    plan = []
    for r in range(rounds):
        law = LAWS[r % 3]
        inversions = []
        for k in range(INVERSIONS_PER_ROUND):
            i = r * INVERSIONS_PER_ROUND + k
            s = INVERSION_STRATA[i % len(INVERSION_STRATA)]
            lap = i // len(INVERSION_STRATA)
            inversions.append(strata[s][inv_order[s][lap % len(strata[s])]])
        plan.append(
            {
                "sweep": sweeps[law][sweep_order[law][(r // 3) % len(sweeps[law])]],
                "inversions": inversions,
                "spectral": catalogue["spectral"][spectral_order[r % len(spectral_order)]],
            }
        )
    return plan


# (law, lowest mu) of the dense configs of a set; the seed moves mu within
# MC_MU_JITTER above it.  Narrow bands keep the work of a set nearly the same
# for every seed, while the two families still reach both ends of their ranges.
SPARSE_MU = (0.02, 0.095)
DENSE_MU = (("poissonian", 0.25), ("thermal", 0.6), ("multimode_thermal", 0.975))
MC_MU_JITTER = 0.005


def mc_plan(seed: int, sets: int, pulses: int) -> list[dict]:
    """Two sparse and three dense configs per set.

    sparse: poissonian, mu at both ends of [0.02, 0.1], the reference
    paralyzable dead time.
    dense: one config per law across [0.25, 1.0], windows of 1-3 gates and a
    nonparalyzable dead time.
    """
    rng = _rng(seed, "mc")
    plan = []
    for _ in range(sets):
        configs = [("sparse", {"law": "poissonian", "mu": lo + MC_MU_JITTER * rng.random()}) for lo in SPARSE_MU]
        for law, lo in DENSE_MU:
            dense = {
                "law": law,
                "mu": lo + MC_MU_JITTER * rng.random(),
                "window": rng.randint(1, 3),
                "dead_time": "nonparalyzable",
            }
            if law == "multimode_thermal":
                dense["modes"] = rng.randint(2, 8)
            configs.append(("dense", dense))
        for family, spec in configs:
            plan.append({"family": family, "config": spec, "pulses": pulses, "seed": rng.randrange(2**32)})
    return plan


def first_per_family(mc: list[dict]) -> list[dict]:
    """The first sparse and the first dense config of an MC plan."""
    firsts = {}
    for e in mc:
        firsts.setdefault(e["family"], e)
    return list(firsts.values())


def plan(catalogue: dict, workload: str, seed: int, seconds: float) -> dict:
    n = sizes(workload, seconds)
    if PRIMARY_PHASE[workload] == "mc":
        mc = mc_plan(seed, n["mc_sets"], MC_PULSES)
    else:
        mc = first_per_family(mc_plan(seed, 1, MC_PROBE_PULSES))
    return {
        "cli": cli_plan(catalogue, seed, n["cli_rounds"]),
        "mc": mc,
        "design": design_plan(catalogue, seed, n["design_rounds"]),
    }
