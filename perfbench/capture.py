"""Build ``reference/catalogue.json``: the benchmark's checked inputs and the
outputs the program gave for them when they were captured.

Run from the repository root, only when the catalogue itself must change:

    PYTHONPATH=src python3 perfbench/capture.py [OUT_JSON]

OUT_JSON defaults to ``perfbench/reference/catalogue.json``; writing
elsewhere and comparing shows whether the program still gives the captured
outputs bit for bit.

A run of the benchmark never rewrites the catalogue; it compares the
program's outputs against it.
"""

from __future__ import annotations

import json
import platform
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy

import inputs
import ops
import spdcherald

MASTER_SEED = 20061117
CLI_PER_SUBCOMMAND = 12
SWEEPS_PER_LAW = 16
INVERSIONS_PER_STRATUM = 8
SPECTRAL_TASKS = 16


def _sig(x: float) -> float:
    """Round to 6 significant digits so that inputs read back exactly."""
    return float(f"{x:.6g}")


def _law_spec(rng: random.Random, law: str, mu_hi: float) -> dict:
    spec = {"law": law, "mu": _sig(rng.uniform(0.02, mu_hi))}
    if law == "multimode_thermal":
        spec["modes"] = rng.randint(2, 8)
    return spec


def cli_entries(rng: random.Random) -> dict:
    out = {}
    for sub in inputs.SUBCOMMANDS:
        entries = []
        for i in range(CLI_PER_SUBCOMMAND):
            spec = _law_spec(rng, inputs.LAWS[i % 3], 0.25)
            grid = sorted(_sig(rng.uniform(0.01, 0.3)) for _ in range(5))
            overrides = [
                f"source.law={spec['law']}",
                f"source.mu={spec['mu']!r}",
                f"dead_time.model={rng.choice(['paralyzable', 'nonparalyzable'])}",
                f"detectors.coincidence_window_gates={rng.randint(1, 3)}",
                f"crystal.pump_fwhm_nm={_sig(rng.uniform(1.5, 3.5))!r}",
                "run.sweep_mu=[" + ", ".join(repr(m) for m in grid) + "]",
            ]
            if "modes" in spec:
                overrides.append(f"source.modes={spec['modes']}")
            entries.append({"subcommand": sub, "overrides": overrides})
        out[sub] = entries
    return out


def sweep_entries(rng: random.Random) -> list[dict]:
    out = []
    for law in inputs.LAWS:
        for _ in range(SWEEPS_PER_LAW):
            config = _law_spec(rng, law, 0.25)
            config["window"] = rng.randint(1, 3)
            config["dead_time"] = rng.choice(["paralyzable", "nonparalyzable"])
            grid = sorted(_sig(rng.uniform(0.005, 0.6)) for _ in range(8))
            out.append({"config": config, "mu_grid": grid})
    return out


def inversion_entries(rng: random.Random) -> list[dict]:
    # mu ranges per law: up to 1.0 for the poissonian law, whose 3-gate
    # inversion error reaches -3.4% there
    mu_hi = {"poissonian": 1.0, "thermal": 0.3, "multimode_thermal": 0.5}
    out = []
    for law, window in inputs.INVERSION_STRATA:
        for _ in range(INVERSIONS_PER_STRATUM):
            config = _law_spec(rng, law, mu_hi[law])
            config["window"] = window
            config["dead_time"] = rng.choice(["paralyzable", "nonparalyzable"])
            out.append({"config": config})
    return out


def spectral_entries(rng: random.Random) -> list[dict]:
    return [
        {
            "pump_nm": _sig(rng.uniform(389.0, 391.0)),
            "signal_nm": _sig(rng.uniform(516.0, 526.0)),
            "pump_fwhm_nm": _sig(rng.uniform(1.5, 3.5)),
        }
        for _ in range(SPECTRAL_TASKS)
    ]


def _require(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"catalogue input rejected: {what}")


def capture() -> dict:
    rng = random.Random(MASTER_SEED)
    catalogue = {
        "cli": cli_entries(rng),
        "sweep": sweep_entries(rng),
        "inversion": inversion_entries(rng),
        "spectral": spectral_entries(rng),
    }
    for entry in catalogue["sweep"]:
        entry["ref"] = ops.sweep(entry)
        _require(not any(r["error"] for r in entry["ref"]), entry)
    for entry in catalogue["inversion"]:
        counts, result = ops.inversion(entry)
        entry["ref"] = {"counts": counts}
        errors, miss = ops.check_inversion(entry, counts, result)
        _require(not errors, errors)
        # every stratum but (poissonian, 1 gate) exposes defect 4(a) or 4(b)
        c = entry["config"]
        _require(miss == ((c["law"], c["window"]) != ("poissonian", 1)), (entry, result["estimate"]["mu"]))
    for entry in catalogue["spectral"]:
        entry["ref"] = ops.spectral_summary(*ops.spectral(entry))
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for entries in catalogue["cli"].values():
            for entry in entries:
                ops.fresh_dir(out_dir)
                code = ops.cli_in_process(ops.cli_argv(entry, out_dir))
                artifacts = ops.cli_artifacts(out_dir)
                _require(code == 0, entry)
                if entry["subcommand"] == "estimate":
                    artifacts = {name: None for name in artifacts}
                entry["ref"] = artifacts
                _require(not ops.check_cli(entry, code, ops.cli_artifacts(out_dir)), entry)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    catalogue["provenance"] = {
        "commit": commit or "unknown",
        "spdcherald": spdcherald.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    return catalogue


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else inputs.CATALOGUE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        catalogue = capture()
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(catalogue, separators=(",", ":")) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
