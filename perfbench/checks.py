"""Output checks.

* Forward and spectral outputs are compared with reference outputs captured
  from the program (``reference/catalogue.json``) at 1e-12 relative, with an
  absolute floor of 1e-15 for probabilities near the pmf truncation.
* Estimates and inversions are only required to be finite.
* Monte Carlo rates and P(n) entries must lie within 5 standard errors of the
  analytic values, compared as event counts; this does not pin the random
  stream.
"""

from __future__ import annotations

import csv
import math

REL_TOL = 1e-12
PROB_FLOOR = 1e-15
Z_MAX = 5.0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(actual, ref, floor: float = PROB_FLOOR, path: str = "") -> list[str]:
    """Mismatches of ``actual`` against ``ref``.

    Numbers agree within ``REL_TOL * |ref| + floor``.  Lists of numbers are
    zero-padded to a common length, so a pmf that keeps or drops entries below
    the floor still matches.  Only the keys of ``ref`` are compared, so new
    fields in an output are not mismatches.
    """
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected a mapping, got {actual!r}"]
        out = []
        for key, value in ref.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out += compare(actual[key], value, floor, f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(actual, list):
            return [f"{path}: expected a list, got {type(actual).__name__}"]
        if all(map(_is_number, ref)) and all(map(_is_number, actual)):
            n = max(len(ref), len(actual))
            ref = ref + [0.0] * (n - len(ref))
            actual = actual + [0.0] * (n - len(actual))
        elif len(ref) != len(actual):
            return [f"{path}: length {len(actual)} != {len(ref)}"]
        out = []
        for i, (a, r) in enumerate(zip(actual, ref)):
            out += compare(a, r, floor, f"{path}[{i}]")
        return out
    if _is_number(ref):
        if not _is_number(actual) or not math.isfinite(actual):
            return [f"{path}: {actual!r} is not a finite number"]
        if abs(actual - ref) > REL_TOL * abs(ref) + floor:
            return [f"{path}: {actual!r} != {ref!r}"]
        return []
    return [] if actual == ref else [f"{path}: {actual!r} != {ref!r}"]


def non_finite(obj, path: str = "") -> list[str]:
    """Paths of NaN or infinite numbers anywhere in ``obj``."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{path}[{i}]")]
    if _is_number(obj) and not math.isfinite(obj):
        return [path]
    return []


def csv_fingerprint(path) -> dict:
    """Row count plus per-column sums, absolute sums and end values of a CSV.

    Large tables (the 51,681-row spectrum) are compared through this
    fingerprint rather than cell by cell.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        try:
            nums = [float(c) for c in cells]
        except ValueError:
            columns[name] = {"text": cells}
            continue
        columns[name] = {
            "sum": math.fsum(nums),
            "abs_sum": math.fsum(abs(v) for v in nums),
            "first": nums[0],
            "last": nums[-1],
        }
    return {"rows": len(body), "columns": columns}


def compare_csv(actual: dict, ref: dict, path: str = "csv") -> list[str]:
    """Compare two :func:`csv_fingerprint` results; signed sums get an
    absolute floor of 1e-12 of the column's absolute sum."""
    if actual["rows"] != ref["rows"]:
        return [f"{path}: {actual['rows']} rows != {ref['rows']}"]
    out = []
    for name, col in ref["columns"].items():
        got = actual["columns"].get(name)
        where = f"{path}.{name}"
        if got is None:
            out.append(f"{where}: missing")
        elif "text" in col:
            out += compare(got.get("text"), col["text"], path=where)
        else:
            out += compare(got, col, floor=REL_TOL * col["abs_sum"] + PROB_FLOOR, path=where)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo against the analytic model


def _z(observed: float, expected: float, var: float) -> float:
    """z-score of an observed count; the variance is floored at one count,
    so a single event where well under one was expected is not an outlier."""
    return (observed - expected) / math.sqrt(max(var, 1.0))


def counts_z(mc, analytic, config, n_pulses: int) -> dict[str, float]:
    """z-scores of Monte Carlo count rates against the analytic rates, in counts."""
    duration = n_pulses / config.rep_rate_hz
    ap = config.idler_detector.afterpulse_prob
    p_s = analytic.signal_singles / config.rep_rate_hz
    # the MC draws one idler gate per pulse, and an idler count is a click
    # plus, with probability ap, its afterpulse
    per_gate = n_pulses / analytic.gate_rate
    p_click = analytic.idler_singles / analytic.gate_rate / (1.0 + ap)
    idler_var = p_click * (1.0 + 3.0 * ap) - (p_click * (1.0 + ap)) ** 2
    triggers = analytic.trigger_rate * duration
    p_coinc = analytic.per_trigger_coincidence_prob / (1.0 + ap)
    return {
        "signal_singles": _z(mc.signal_singles * duration, p_s * n_pulses, n_pulses * p_s * (1.0 - p_s)),
        "idler_singles": _z(mc.idler_singles * per_gate, analytic.idler_singles * per_gate, n_pulses * idler_var),
        "trigger_rate": _z(mc.trigger_rate * duration, triggers, triggers),
        "coincidences": _z(
            mc.coincidences * duration, analytic.coincidences * duration, triggers * p_coinc * (1.0 + 3.0 * ap)
        ),
    }


def pn_z(mc_p, analytic_p, heralds_expected: float) -> dict[str, float]:
    """z-scores of each Monte Carlo P(n) entry (binomial counts over the heralds)."""
    h = heralds_expected
    n = max(len(mc_p), len(analytic_p))
    out = {}
    for m in range(n):
        a = float(analytic_p[m]) if m < len(analytic_p) else 0.0
        x = float(mc_p[m]) if m < len(mc_p) else 0.0
        out[f"P({m})"] = _z(x * h, a * h, h * a * (1.0 - a))
    return out


def throughput_z(mc_rate: float, analytic_rate: float, duration_s: float) -> dict[str, float]:
    expected = analytic_rate * duration_s
    return {"throughput": _z(mc_rate * duration_s, expected, expected)}


def z_failures(zs: dict[str, float]) -> list[str]:
    return [f"{k}: z = {z:.2f}" for k, z in zs.items() if not abs(z) <= Z_MAX]
