"""spdcherald benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload cli_analytic --seed 1 --seconds 25 --trace 0

Run from the repository root.  A run starts three worker processes one after
another (phases ``cli``, ``mc`` and ``design``); each does the full set-up,
so set-up is measured three times and ``setup_s`` is their median.  The
workload decides which phase runs at full size (see README.md).  With
``--trace 0`` the last line of standard output holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The line before it
records provenance and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PHASES = ("cli", "mc", "design")
RUN_TIMEOUT_S = 170.0
IMPORT_REPEATS = 3


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a fixed string-hash seed keeps allocation patterns, and so peak memory,
    # the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(phase: str, args, workdir: Path, deadline: float) -> tuple[float, dict]:
    """(set-up seconds, result) of one worker; set-up runs from launch to READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise BenchError(f"{phase} worker failed (exit code {code})")
    return setup_s, json.loads(lines[-1])


def import_breakdown() -> dict:
    """Median over fresh interpreters of ``-X importtime`` for ``import spdcherald``."""
    runs = [parse_importtime(_importtime_log()) for _ in range(IMPORT_REPEATS)]
    return {key: stats.median([r[key] for r in runs]) for key in runs[0]}


def _importtime_log() -> str:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spdcherald"],
                          env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("import spdcherald failed")
    return proc.stderr


def parse_importtime(log: str) -> dict:
    """import.total_s, import.scipy_s and import.modules from an importtime log.

    ``scipy_s`` sums the cumulative time of the outermost ``scipy`` entries,
    so nested scipy modules are not counted twice.
    """
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = scipy = 0.0
    # the log lists children before their parent; walk it parent-first
    open_scipy_depth = None
    for depth, name, cumulative in reversed(entries):
        if open_scipy_depth is not None and depth <= open_scipy_depth:
            open_scipy_depth = None
        if name == "spdcherald":
            total = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and open_scipy_depth is None:
            scipy += cumulative
            open_scipy_depth = depth
    return {"import.total_s": total, "import.scipy_s": scipy, "import.modules": len(entries)}


def end_to_end(results: dict, setups: list[float], workload: str) -> tuple[dict, dict]:
    walls = results["cli"]["data"]
    tail_pct, tail = stats.tail(walls)
    mc = results["mc"]["data"]
    design = results["design"]["data"]
    blocks = design["blocks"]

    def rate(count, seconds):
        return stats.median([b[count] / b[seconds] for b in blocks])

    primary = inputs.PRIMARY_PHASE[workload]
    metrics = {
        "setup_s": (stats.median([s / r["setup_factor"] for s, r in zip(setups, results.values())]), "s"),
        "peak_rss_mb": (results[primary]["peak_rss_mb"], "MB"),
        "cli_wall_s.p50": (stats.median(walls), "s"),
        "cli_wall_s.tail": (tail, "s"),
        "mc_ns_per_pulse.sparse": (mc["sparse"]["seconds"] / mc["sparse"]["pulses"] * 1e9, "ns"),
        "mc_ns_per_pulse.dense": (mc["dense"]["seconds"] / mc["dense"]["pulses"] * 1e9, "ns"),
        "sweep_rows_per_s": (rate("rows", "sweep_s"), "1/s"),
        "inversions_per_s": (rate("inversions", "inversion_s"), "1/s"),
        "spectra_per_s": (rate("spectra", "spectral_s"), "1/s"),
        "roundtrip_misses": (design["misses"], "count"),
    }
    samples = {
        "cli_calls": len(walls),
        "cli_tail_percentile": round(tail_pct, 2),
        "mc_pulses": {f: mc[f]["pulses"] for f in ("sparse", "dense")},
        "design": {k: sum(b[k] for b in blocks) for k in ("rows", "inversions", "spectra")},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def per_layer(results: dict, workdir: Path) -> dict:
    recorded = []
    for path in sorted((workdir / "spans").glob("*.json")):
        recorded += json.loads(path.read_text())
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values = spans.layer_metrics(recorded)
    values.update(import_breakdown())
    untraced = sum(r["untraced_s"] for r in results.values())
    traced = sum(r["traced_s"] for r in results.values())
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}


def provenance(results: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **results["cli"]["versions"],
        "src_sha256": digest.hexdigest(),
        "phase_s": {p: round(r["phase_s"], 3) for p, r in results.items()},
        "speed_factor": {p: round(r["speed_factor"], 3) for p, r in results.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spdcherald" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no spdcherald sources under {SRC}\n")
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # one closed loop needs one CPU; staying on it keeps every calibration on
    # the CPU whose speed it corrects, CLI subprocesses included
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the package is pure Python: building it means compiling its bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)], check=True,
                   stdout=subprocess.DEVNULL)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups, results = [], {}
        for phase in PHASES:
            setup_s, results[phase] = run_worker(phase, args, workdir, deadline)
            setups.append(setup_s)
        errors = [e for r in results.values() for e in r["errors"]]
        info = {"workload": args.workload, "seed": args.seed, "provenance": provenance(results), "errors": errors}
        if args.trace:
            metrics = per_layer(results, workdir)
        else:
            metrics, info["samples"] = end_to_end(results, setups, args.workload)
    except BenchError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
