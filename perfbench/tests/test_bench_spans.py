import pytest

import spans


def span(sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": "op", "attrs": attrs}


def test_self_time_subtracts_children():
    recorded = [
        span("a", "root", 0.0, 10.0),
        span("b", "child", 1.0, 3.0, "a"),
        span("c", "child", 5.0, 6.0, "a"),
        span("d", "grandchild", 1.5, 2.5, "b"),
    ]
    own = spans.self_times(recorded)
    assert own["a"] == pytest.approx(7.0)
    assert own["b"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["d"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    recorded = [
        span("a", "root", 0.0, 10.0),
        span("b", "child", 2.0, 6.0, "a"),
        span("c", "child", 4.0, 8.0, "a"),  # overlaps b
        span("d", "child", 9.0, 12.0, "a"),  # runs past the parent's end
    ]
    assert spans.self_times(recorded)["a"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_and_restores():
    tracer = spans.Tracer(root_parent="outside", op="op-1")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert outer["parent"] == "outside"
    assert inner["op"] == outer["op"] == "op-1"
    assert inner["start"] >= outer["start"] and inner["end"] <= outer["end"]


def test_install_wraps_imported_names_and_uninstall_restores():
    import spdcherald.experiment as experiment
    import spdcherald.qkd as qkd

    original = experiment.simulate_counts
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert qkd.simulate_counts is experiment.simulate_counts
        assert experiment.simulate_counts is not original
        qkd.pump_sweep(experiment.reference_setup(), [0.05, 0.1], qkd.ChannelSpec())
    finally:
        spans.uninstall(restore)
    assert experiment.simulate_counts is original and qkd.simulate_counts is original
    names = [s["name"] for s in tracer.spans]
    assert names.count("qkd.pump_sweep") == 1
    assert names.count("experiment.simulate_counts") == 2
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["qkd.secure_evals_per_row"] > 1
    assert metrics["experiment.simulate_counts.calls"] == 2
    assert metrics["pair_source.pmf_vector.calls"] >= 4


def test_layer_metrics_ratios():
    recorded = [
        span("e1", "estimator.estimate_source", 0.0, 4.0),
        span("f1", "experiment.simulate_counts", 0.5, 1.0, "e1"),
        span("f2", "experiment.heralded_photon_statistics", 2.0, 3.0, "e1"),
        span("p1", "phase_matching.collinear_pm_angle", 10.0, 11.0),
        *[span(f"m{i}", "phase_matching.collinear_mismatch", 10.0, 10.01, "p1") for i in range(30)],
        span("o1", "op.mc", 20.0, 22.0, family="sparse", occupied=0.1, pulses=100),
        span("s1", "experiment.simulate_counts", 20.0, 21.0, "o1", mode="monte_carlo", n_pulses=100),
    ]
    m = spans.layer_metrics(recorded)
    assert m["estimator.forward_calls_per_inversion"] == 2
    assert m["estimator.estimate_source.self_s"] == pytest.approx(2.5)
    assert m["phase_matching.mismatch_evals_per_angle"] == 30
    assert m["experiment.simulate_counts.calls"] == 1  # the MC call is not analytic
    assert m["experiment.mc.simulate_counts.ns_per_pulse.sparse"] == pytest.approx(1e7)
    assert m["experiment.mc.pulses"] == 100
    assert m["experiment.mc.occupied_fraction"] == pytest.approx(0.1)
