"""Tiny-size runs of each workload's phases, checked against the references."""

import pytest

import calibrate
import inputs
import run
import worker


def tiny_plan(seed):
    plan = inputs.plan(inputs.load_catalogue(), "design_sweep", seed, 0.1)
    plan["cli"] = plan["cli"][:8]
    plan["mc"] = [worker.mc_setup(e) for e in plan["mc"]]
    plan["design"] = plan["design"][:3]
    return plan


def test_cli_analytic_subprocess_calls(tmp_path):
    plan = tiny_plan(1)
    phase = worker.Phase(calibrate.PHASE_KERNELS["cli"])
    picks = [e for e in plan["cli"] if e["subcommand"] in ("simulate", "spectrum")]
    walls = worker.run_cli(picks, True, phase, tmp_path, "smoke")
    assert phase.failed == 0, phase.errors
    assert len(walls) == 2 and all(w > 0 for w in walls)


def test_cli_in_process_calls(tmp_path):
    phase = worker.Phase(calibrate.PHASE_KERNELS["cli"])
    walls = worker.run_cli(tiny_plan(2)["cli"], False, phase, tmp_path, "smoke")
    assert phase.failed == 0, phase.errors
    assert phase.attempted == len(walls) == 8


def test_mc_stream_calls():
    plan = tiny_plan(3)
    phase = worker.Phase(calibrate.PHASE_KERNELS["mc"])
    totals = worker.run_mc(plan["mc"], phase, "smoke")  # one sparse, one dense
    worker.mc_determinism(plan["mc"], phase)
    assert phase.failed == 0, phase.errors
    assert totals["sparse"]["pulses"] == totals["dense"]["pulses"] == 5 * inputs.MC_PROBE_PULSES


def test_design_sweep_rounds():
    phase = worker.Phase(calibrate.PHASE_KERNELS["design"])
    data = worker.run_design(tiny_plan(4)["design"], phase, "smoke")
    assert phase.failed == 0, phase.errors
    (block,) = data["blocks"]
    assert block["inversions"] == 9 and block["spectra"] == 3
    # every (law, window) stratum but (poissonian, 1) misses the round trip
    assert data["misses"] == 8


def test_a_corrupted_reference_is_a_failed_operation():
    plan = tiny_plan(5)
    task = plan["design"][0]
    entry = task["inversions"][0]
    task["inversions"] = [{**entry, "ref": {"counts": {**entry["ref"]["counts"], "coincidences_cps": 1.0}}}]
    phase = worker.Phase(calibrate.PHASE_KERNELS["design"])
    worker.run_design([task], phase, "smoke")
    assert phase.failed == 1


def test_importtime_parsing():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |     scipy._lib",
            "import time:        20 |         30 |   scipy",
            "import time:         5 |          5 |     scipy.special._x",
            "import time:        15 |         20 |   scipy.special",
            "import time:        40 |         40 |   numpy",
            "import time:       100 |        190 | spdcherald",
        ]
    )
    parsed = run.parse_importtime(log)
    assert parsed["import.total_s"] == pytest.approx(190e-6)
    assert parsed["import.scipy_s"] == pytest.approx(50e-6)
    assert parsed["import.modules"] == 6
