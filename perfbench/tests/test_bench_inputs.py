from collections import Counter

import pytest

import inputs


@pytest.fixture(scope="module")
def catalogue():
    return inputs.load_catalogue()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(catalogue, workload):
    assert inputs.plan(catalogue, workload, 7, 15) == inputs.plan(catalogue, workload, 7, 15)


def test_seeds_change_inputs(catalogue):
    a = inputs.plan(catalogue, "design_sweep", 1, 15)
    b = inputs.plan(catalogue, "design_sweep", 2, 15)
    assert a["cli"] != b["cli"] and a["mc"] != b["mc"] and a["design"] != b["design"]


def _strata(plan):
    cli = Counter(e["subcommand"] for e in plan["cli"])
    mc = Counter((e["family"], e["config"]["law"], e["pulses"]) for e in plan["mc"])
    inv = Counter(
        (e["config"]["law"], e["config"]["window"]) for task in plan["design"] for e in task["inversions"]
    )
    sweeps = Counter(task["sweep"]["config"]["law"] for task in plan["design"])
    return cli, mc, inv, sweeps


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_strata_do_not_depend_on_the_seed(catalogue, workload):
    reference = _strata(inputs.plan(catalogue, workload, 0, 15))
    for seed in (1, 2, 3, 12345):
        assert _strata(inputs.plan(catalogue, workload, seed, 15)) == reference


def test_mc_families_cover_the_stated_ranges():
    plan = inputs.mc_plan(5, 4, inputs.MC_PULSES)
    sparse = [e["config"] for e in plan if e["family"] == "sparse"]
    dense = [e["config"] for e in plan if e["family"] == "dense"]
    assert all(c["law"] == "poissonian" and 0.02 <= c["mu"] <= 0.1 for c in sparse)
    assert min(c["mu"] for c in sparse) < 0.025 and max(c["mu"] for c in sparse) > 0.095
    assert min(c["mu"] for c in dense) < 0.26 and max(c["mu"] for c in dense) > 0.975
    assert all(0.25 <= c["mu"] <= 1.0 and c["dead_time"] == "nonparalyzable" for c in dense)
    assert {c["law"] for c in dense} == set(inputs.LAWS)
    assert {c["window"] for c in dense} <= {1, 2, 3}
    assert all(e["pulses"] >= 10_000_000 for e in plan)


def test_every_run_has_a_tail():
    for workload in inputs.WORKLOADS:
        n = inputs.sizes(workload, 1)["cli_rounds"] * len(inputs.SUBCOMMANDS)
        assert n >= 11  # at least 10 samples beyond the tail
