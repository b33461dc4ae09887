"""One phase of a benchmark run, in its own process.

    python3 perfbench/worker.py PHASE WORKLOAD SEED SECONDS TRACE WORKDIR

Every worker does the same set-up (import, input generation, validation,
warm-up), prints ``READY`` and then runs one phase: ``cli``, ``mc`` or
``design``.  The phase named by the workload runs at full size; the other two
run as small probes so that every end-to-end metric exists on every workload.
The last line of standard output is the phase's result as JSON.

With TRACE 1 the worker takes half of the phase's inputs and runs each
round, config or block of them untraced and then again with the wrappers of
``spans.py`` installed; it writes the spans to WORKDIR/spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import calibrate
import checks
import inputs
import ops
import spans
import stats
import spdcherald.detectors as detectors
import spdcherald.experiment as experiment
import spdcherald.scenario as scenario

MAX_ERRORS = 5
MC_FUNCTIONS = ("simulate_counts", "heralded_photon_statistics", "hbt_g2.signal", "hbt_g2.idler", "simulate_dead_time")


class Phase:
    """Counts operations, keeps the first few failures, and sums the
    normalized time of its timed segments (see calibrate.py)."""

    def __init__(self, kinds):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer: spans.Tracer | None = None
        self.clock = calibrate.Clock(kinds)
        self.seconds = 0.0

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{what}: {'; '.join(errors[:3])}")

    def timed(self, op: tuple, fn, *args):
        """Call ``fn`` in its own calibrated segment, inside the operation span
        ``op = (name, id, attrs)``; returns (result, errors, normalized seconds, span)."""
        name, op_id, attrs = op
        with self.clock.segment() as seg:
            with self.op(name, op_id, **attrs) as rec:
                result, errors, elapsed = _attempt(fn, *args)
        seconds = elapsed / seg["factor"]
        self.seconds += seconds
        return result, errors, seconds, rec

    def op(self, name: str, op_id: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext({"id": op_id, "attrs": attrs})
        return self.tracer.span(name, op=op_id, sid=op_id, **attrs)


# ---------------------------------------------------------------------------
# set-up


def mc_setup(entry: dict) -> dict:
    """Config, analytic expectations and occupancy of one MC plan entry."""
    config = ops.setup_config(entry["config"])
    counts = experiment.simulate_counts(config)
    dist = config.pair_distribution()
    idler = config.idler_detector.dark_prob_per_gate
    empty = dist.pmf(0) * (1.0 - config.herald_dark_prob) * (1.0 - idler) * (1.0 - config.coincidence_dark_prob)
    dead = detectors.DeadTimeSpec(tau_us=config.trigger_dead_time.tau_us, model="nonparalyzable")
    return {
        **entry,
        "setup": config,
        "counts": counts,
        "herald": experiment.heralded_photon_statistics(config).p,
        "p_herald": counts.signal_singles / config.rep_rate_hz,
        "dead": dead,
        "dead_rate": detectors.dead_time_throughput(counts.signal_singles, dead),
        "occupied": 1.0 - empty,
    }


def set_up(workload: str, seed: int, seconds: float) -> dict:
    catalogue = inputs.load_catalogue()
    plan = inputs.plan(catalogue, workload, seed, seconds)
    for entry in plan["cli"]:
        sc = scenario.load_scenario(ops.SCENARIO, entry["overrides"])
        sc.to_setup_config()
        sc.to_crystal()
    plan["mc"] = [mc_setup(e) for e in plan["mc"]]
    # warm-up: lazy imports and first-call costs of every kind of operation
    first = plan["design"][0]
    ops.sweep(first["sweep"])
    ops.inversion(first["inversions"][0])
    ops.spectral(first["spectral"])
    experiment.simulate_counts(plan["mc"][0]["setup"], mode="monte_carlo", n_pulses=inputs.MC_PROBE_PULSES, seed=0)
    return plan


# ---------------------------------------------------------------------------
# phases


def _attempt(fn, *args):
    """(result, errors, seconds) of one timed call; an exception is a failed operation."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed call is data, not a crash
        return None, [f"{type(exc).__name__}: {exc}"], time.perf_counter() - t0
    return result, [], time.perf_counter() - t0


def run_cli(plan: list[dict], subprocesses: bool, phase: Phase, workdir: Path, tag: str) -> list[float]:
    walls = []
    for i, entry in enumerate(plan):
        op = ("op.cli", f"cli:{tag}:{i}", {"subcommand": entry["subcommand"]})
        out_dir = ops.fresh_dir(workdir / "cli-out")
        argv = ops.cli_argv(entry, out_dir)
        if not subprocesses:
            code, errors, wall, rec = phase.timed(op, ops.cli_in_process, argv)
        else:
            boot = None
            if phase.tracer is not None:
                boot = [str(HERE / "cli_boot.py"), str(workdir / "spans" / f"{op[1]}.json"), op[1]]
            code, errors, wall, rec = phase.timed(op, ops.cli_subprocess, argv, boot)
        walls.append(wall)
        rec["attrs"]["bytes"] = ops.dir_bytes(out_dir)
        if not errors:
            errors = ops.check_cli(entry, code, ops.cli_artifacts(out_dir) if code == 0 else {})
        phase.record(f"{entry['subcommand']} {' '.join(entry['overrides'])}", errors)
    return walls


def _mc_call(fn: str, e: dict, pulses: int, seed: int):
    kw = {"mode": "monte_carlo", "n_pulses": pulses, "seed": seed}
    config = e["setup"]
    if fn == "simulate_counts":
        return experiment.simulate_counts(config, **kw)
    if fn == "heralded_photon_statistics":
        return experiment.heralded_photon_statistics(config, **kw)
    if fn == "hbt_g2.signal":
        return experiment.hbt_g2(config, arm="signal_unconditioned", **kw)
    if fn == "hbt_g2.idler":
        return experiment.hbt_g2(config, arm="idler_heralded", **kw)
    return detectors.simulate_dead_time(
        e["counts"].signal_singles, e["dead"], config.rep_rate_hz, n_pulses=pulses, seed=seed
    )


def _mc_check(fn: str, e: dict, result, pulses: int) -> list[str]:
    if fn == "simulate_counts":
        return checks.z_failures(checks.counts_z(result, e["counts"], e["setup"], pulses))
    if fn == "heralded_photon_statistics":
        return checks.z_failures(checks.pn_z(result.p, e["herald"], pulses * e["p_herald"]))
    if fn.startswith("hbt_g2"):
        return checks.non_finite([result.value, result.stderr], "g2")
    duration = pulses / e["setup"].rep_rate_hz
    return checks.z_failures(checks.throughput_z(result, e["dead_rate"], duration))


def _same(a, b) -> bool:
    if hasattr(a, "p"):
        return a.p.tobytes() == b.p.tobytes()
    return a == b


def _release_free_memory() -> None:
    """Return freed heap memory to the system (glibc only).

    Called between MC calls, outside the timed region, so that each call's
    peak memory does not depend on what earlier calls left in the heap.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_mc(plan: list[dict], phase: Phase, tag: str) -> dict:
    """Time every MC function on each config; returns seconds and pulses per family."""
    totals = {f: {"seconds": 0.0, "pulses": 0} for f in ("sparse", "dense")}
    for i, e in enumerate(plan):
        for j, fn in enumerate(MC_FUNCTIONS):
            _release_free_memory()
            attrs = {"family": e["family"], "function": fn, "occupied": e["occupied"], "pulses": e["pulses"]}
            op = ("op.mc", f"mc:{tag}:{i}:{j}", attrs)
            result, errors, elapsed, _ = phase.timed(op, _mc_call, fn, e, e["pulses"], e["seed"])
            totals[e["family"]]["seconds"] += elapsed
            totals[e["family"]]["pulses"] += e["pulses"]
            if not errors:
                errors = _mc_check(fn, e, result, e["pulses"])
            phase.record(f"{fn} {e['family']} {e['config']}", errors)
    return totals


def mc_determinism(plan: list[dict], phase: Phase) -> None:
    """The same (config, pulses, seed) twice must give bit-identical results."""
    for e in plan[-1:]:
        for fn in MC_FUNCTIONS:
            a = _mc_call(fn, e, inputs.MC_PROBE_PULSES, e["seed"])
            b = _mc_call(fn, e, inputs.MC_PROBE_PULSES, e["seed"])
            phase.record(f"repeat {fn} {e['family']}", [] if _same(a, b) else ["results differ"])


def run_design(plan: list[dict], phase: Phase, tag: str) -> dict:
    """Time the design tasks; returns normalized seconds and counts per block.

    A block is 3 rounds: each law's sweep and each (law, window) inversion
    stratum once, so blocks are alike and their median rate shrugs off a
    stall.  Each block is one calibrated segment.
    """
    blocks = []
    misses = 0
    for b in range(0, len(plan), 3):
        block = {"sweep_s": 0.0, "rows": 0, "inversion_s": 0.0, "inversions": 0, "spectral_s": 0.0, "spectra": 0}
        checks_due = []
        with phase.clock.segment() as seg:
            for r in range(b, min(b + 3, len(plan))):
                task = plan[r]
                entry = task["sweep"]
                with phase.op("op.design", f"design:{tag}:{r}:sweep", kind="sweep"):
                    rows, errors, elapsed = _attempt(ops.sweep, entry)
                block["sweep_s"] += elapsed
                block["rows"] += len(entry["mu_grid"])
                checks_due.append(("sweep", entry, rows, errors))
                for k, entry in enumerate(task["inversions"]):
                    with phase.op("op.design", f"design:{tag}:{r}:inv{k}", kind="inversion"):
                        result, errors, elapsed = _attempt(ops.inversion, entry)
                    block["inversion_s"] += elapsed
                    block["inversions"] += 1
                    checks_due.append(("inversion", entry, result, errors))
                entry = task["spectral"]
                with phase.op("op.design", f"design:{tag}:{r}:spectral", kind="spectral"):
                    result, errors, elapsed = _attempt(ops.spectral, entry)
                block["spectral_s"] += elapsed
                block["spectra"] += 1
                checks_due.append(("spectral", entry, result, errors))
        for key in ("sweep_s", "inversion_s", "spectral_s"):
            block[key] /= seg["factor"]
            phase.seconds += block[key]
        blocks.append(block)
        for kind, entry, result, errors in checks_due:
            if not errors:
                errors, miss = _check_design(kind, entry, result)
                misses += miss
            phase.record(f"{kind} {entry.get('config', entry)}", errors)
    return {"blocks": blocks, "misses": misses}


def _check_design(kind: str, entry: dict, result) -> tuple[list[str], bool]:
    """(errors, round-trip miss) of one design task."""
    if kind == "sweep":
        return checks.compare(result, entry["ref"], path="rows"), False
    if kind == "inversion":
        return ops.check_inversion(entry, *result)
    return ops.compare_spectral(ops.spectral_summary(*result), entry["ref"]), False


def run_phase(name: str, plan: dict, primary: bool, phase: Phase, workdir: Path, tag: str):
    if name == "cli":
        return run_cli(plan["cli"], primary, phase, workdir, tag)
    if name == "mc":
        return run_mc(plan["mc"], phase, tag)
    return run_design(plan["design"], phase, tag)


def half(plan: dict) -> dict:
    """The inputs of a traced run: half of the CLI rounds and design rounds,
    and the first sparse and first dense MC config."""
    cli_rounds = max(1, len(plan["cli"]) // len(inputs.SUBCOMMANDS) // 2)
    rounds = 3 * max(1, len(plan["design"]) // 6)
    return {
        "cli": plan["cli"][: cli_rounds * len(inputs.SUBCOMMANDS)],
        "mc": inputs.first_per_family(plan["mc"]),
        "design": plan["design"][:rounds],
    }


def chunks(name: str, plan: dict) -> list[dict]:
    """The phase's inputs cut into whole rounds, configs or blocks."""
    size = {"cli": len(inputs.SUBCOMMANDS), "mc": 1, "design": 3}[name]
    items = plan[name]
    return [{**plan, name: items[i : i + size]} for i in range(0, len(items), size)]


def main(argv: list[str]) -> int:
    name, workload, seed, seconds, trace, workdir = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    plan = set_up(workload, seed, seconds)
    print("READY", flush=True)

    primary = inputs.PRIMARY_PHASE[workload] == name
    out = {
        "phase": name,
        "setup_factor": calibrate.speed_factor(calibrate.PHASE_KERNELS["cli"]),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    t0 = time.perf_counter()
    subprocesses = name == "cli" and primary
    phase = Phase(calibrate.PHASE_KERNELS[name])
    if not trace:
        out["data"] = run_phase(name, plan, primary, phase, workdir, "run")
        if name == "mc" and primary:
            mc_determinism(plan["mc"], phase)
    else:
        (workdir / "spans").mkdir(exist_ok=True)
        out["untraced_s"] = out["traced_s"] = 0.0
        tracer = spans.Tracer()
        # each chunk runs untraced, then traced: the pair sees the same
        # machine speed, which keeps the overhead estimate fair
        for k, chunk in enumerate(chunks(name, half(plan))):
            for side in ("untraced", "traced"):
                phase.seconds = 0.0
                phase.tracer = tracer if side == "traced" else None
                restore = spans.install(tracer) if side == "traced" else []
                try:
                    run_phase(name, chunk, primary, phase, workdir, f"{side}{k}")
                finally:
                    spans.uninstall(restore)
                out[f"{side}_s"] += phase.seconds
        tracer.write(workdir / "spans" / f"worker-{name}.json")
    out["phase_s"] = time.perf_counter() - t0
    out["speed_factor"] = stats.median(phase.clock.factors)
    who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(attempted=phase.attempted, failed=phase.failed, errors=phase.errors)
    print(json.dumps(out))
    return 0


HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
