"""Every accepted mean pair number gets a right answer or a named refusal.

A stratum is a subcommand that reads the ``source`` section, a pair-number
law, a mean ``mu`` and a dead-time model, run analytic through ``cli.main``
in one process.  Each must exit 0, or 2 naming its mean's key or
``source.modes``, or 3 where the quantity it asks for is undefined; write
strict JSON; keep every probability in [0, 1] and the coincidences per
trigger at most 1 + the idler afterpulse probability; order triggers <=
signal singles <= the repetition rate; write count rates and heralded P(1)
and P(2) within 1e-8 of their closed forms (a wrong answer, not the last
digits: those are for an exact oracle); and a ``sweep`` error row carries
the message its single-point call exits 2 with.  Strata that fail today are
strict xfails, each with its reason, under both dead-time models alike.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from spdcherald.cli import main
from spdcherald.detectors import DEAD_TIME_MODELS
from spdcherald.scenario import load_scenario

COMMANDS = ["simulate", "herald-stats", "estimate", "wcp-compare", "sweep", "g2 signal", "g2 idler"]
POISSON, THERMAL = ("poissonian", None), ("thermal", None)
M1, M3, M6 = (("multimode_thermal", m) for m in (1, 3, 1_000_000))  # M6: a million modes
LAWS = [POISSON, THERMAL, M1, M3, M6]
MEANS = [0.0, 5e-324, 1e-300, 1e-8, 1e-5, 1e-3, 0.3, 3.0, 30.0, 100.0, 1e5, 1e300, sys.float_info.max]

# reason -> the commands and the (law, modes, mu) strata it fails
KNOWN = {
    "1 - (1 - d) G(1 - b) cancels: at mu <= 1e-5 the coincidences per trigger are up to 5e-7 off their closed form": (
        ["simulate"], [(law, mu) for law in LAWS for mu in (0.0, 5e-324, 1e-300, 1e-8, 1e-5)],
    ),
    "a false exit 3: pmf_vector stops at an absolute tail mass of 1e-15, so at mu <= 1e-16 the pmf is [1.], "
    "and heralded P(n), trimmed after its last entry above 1e-15, reads P(1) = P(2) = 0": (
        ["wcp-compare", "g2 idler"], [(law, mu) for law in LAWS for mu in (5e-324, 1e-300)],
    ),
    "a false exit 3: at mu = 1e-8 the pmf, cut at an absolute tail mass of 1e-15, is [1 - mu, mu], "
    "so heralded P(2) reads 0": (
        ["wcp-compare"], [(law, 1e-8) for law in LAWS],
    ),
    "heralded P(n) misses the terms the pmf's absolute 1e-15 cut drops, which the herald scales by about 1/mu: "
    "P(1) reads 0 at mu = 1e-300 (pmf [1.]), P(2) reads 0 at 1e-8 (pmf [1 - mu, mu]), and P(2) is 1.2e-5 "
    "relative off at 1e-5 (3.6e-5 thermal), 1.3e-8 at thermal 1e-3": (
        ["herald-stats"], [(law, mu) for law in LAWS for mu in (1e-300, 1e-8, 1e-5)] + [(THERMAL, 1e-3)],
    ),
}

SETUP = load_scenario("paper.scenario").to_setup_config()
AFTERPULSE = SETUP.idler_detector.afterpulse_prob


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _run(argv: list[str], out: Path) -> tuple[int, str, dict]:
    """Exit code, the last stderr line and the strictly parsed JSON artifact, if any, which
    the call writes into the empty directory ``out`` and this removes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out-dir", str(out)])
        except Exception as exc:  # the console script's traceback and exit 1
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    records = [json.loads(p.read_text(), parse_constant=_reject_constant) for p in out.glob("*.json")]
    for path in out.iterdir():
        path.unlink()
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else "", records[0]["result"] if records else None


def _argv(command: str, law: str, modes, mu: float, model: str) -> list[str]:
    name, _, arm = command.partition(" ")
    argv = [name, "paper.scenario", "--override", f"source.law={law}", "--override", f"source.mu={mu!r}",
            "--override", f"dead_time.model={model}"]
    if modes is not None:
        argv += ["--override", f"source.modes={modes}"]
    if arm:
        argv += ["--override", f"run.g2_arm={'signal_unconditioned' if arm == 'signal' else 'idler_heralded'}"]
    if name == "sweep":
        argv += ["--override", f"run.sweep_mu=[{mu!r}]"]
    return argv


def _complement(law: str, modes, x: float) -> float:
    """``1 - G(1 - x)``: the chance that at least one of the pulse's pairs is detected at ``x`` each."""
    if law == "poissonian":
        return -math.expm1(-x)
    if law == "thermal":
        return x / (1.0 + x)
    return -math.expm1(-modes * math.log1p(x / modes))


def _closed_counts(law: str, modes, mu: float) -> tuple[float, float]:
    """Signal singles and coincidences per trigger from the law's generating function."""
    ds, dw = SETUP.herald_dark_prob, SETUP.coincidence_dark_prob
    bs, bi = SETUP.herald_survival, SETUP.idler_click_survival
    p_herald = ds + (1.0 - ds) * _complement(law, modes, mu * bs)
    pair = _complement(law, modes, mu * bs * bi)
    return SETUP.rep_rate_hz * p_herald, (dw + (1.0 - dw) * pair / p_herald) * (1.0 + AFTERPULSE)


def _thinned(law: str, modes, mu: float, x: float, b: float, m: int) -> float:
    """``sum_n p(n) x^n C(n, m) b^m (1 - b)^(n - m)``, from the m-th derivative of the law's
    generating function: m photons survive ``b`` each, of pairs that each pass ``x``."""
    y = mu * (1.0 - x * (1.0 - b))  # mu (1 - z) at z = x (1 - b), at least mu x b
    if law == "poissonian":
        return (mu * x * b) ** m / math.factorial(m) * math.exp(-y)
    if law == "thermal":
        return (mu * x * b / (1.0 + y)) ** m / (1.0 + y)
    rising = math.prod(modes + k for k in range(m))
    return (mu * x * b / (modes + y)) ** m * rising / math.factorial(m) * math.exp(-modes * math.log1p(y / modes))


def _closed_heralded(law: str, modes, mu: float, m: int) -> float:
    """Heralded P(m) at the source output: the pulses that herald, thinned to the output."""
    ds, bs, b = SETUP.herald_dark_prob, SETUP.herald_survival, SETUP.output_survival
    p_herald = ds + (1.0 - ds) * _complement(law, modes, mu * bs)
    return (_thinned(law, modes, mu, 1.0, b, m) - (1.0 - ds) * _thinned(law, modes, mu, 1.0 - bs, b, m)) / p_herald


def _problems(command: str, law: str, modes, mu: float, model: str, out: Path) -> list[str]:
    code, message, result = _run(_argv(command, law, modes, mu, model), out)
    mu_key = "run.sweep_mu" if command == "sweep" else "source.mu"
    if code == 2:
        named = f"scenario key '{mu_key}'" in message or "scenario key 'source.modes'" in message
        return [] if named else [f"exit 2 naming neither mean key nor modes: {message}"]
    if code == 3:
        # undefined: a g2 of no flux, a coherent source matched to a P(1) of 0
        undefined = mu == 0.0 and command in ("g2 signal", "g2 idler", "wcp-compare")
        return [] if undefined else [f"exit 3 on a defined quantity: {message}"]
    if code != 0:
        return [f"exit {code}: {message}"]
    problems = []
    if command == "simulate":
        singles, per_trigger = _closed_counts(law, modes, mu)
        if not result["trigger_rate_cps"] <= result["signal_singles_cps"] <= SETUP.rep_rate_hz:
            problems.append(f"triggers, singles, rep rate out of order: {result}")
        if not 0.0 <= result["per_trigger_coincidence_prob"] <= 1.0 + AFTERPULSE:
            problems.append(f"per-trigger coincidence probability {result['per_trigger_coincidence_prob']}")
        if not math.isclose(result["signal_singles_cps"], singles, rel_tol=1e-8):
            problems.append(f"signal singles {result['signal_singles_cps']}, closed form {singles}")
        if not math.isclose(result["per_trigger_coincidence_prob"], per_trigger, rel_tol=1e-8):
            problems.append(f"coincidences per trigger {result['per_trigger_coincidence_prob']}, closed form {per_trigger}")
    elif command == "herald-stats":
        if not all(0.0 <= p <= 1.0 for p in result["p"]):
            problems.append(f"P(n) outside [0, 1]: {result['p']}")
        for m in (1, 2):
            got, closed = result["p"][m] if m < len(result["p"]) else 0.0, _closed_heralded(law, modes, mu, m)
            if not math.isclose(got, closed, rel_tol=1e-8):
                problems.append(f"heralded P({m}) {got}, closed form {closed}")
    elif command == "wcp-compare":
        if not all(0.0 <= result[k] <= 1.0 for k in ("p1", "p2_source", "p2_coherent")):
            problems.append(f"P(n) outside [0, 1]: {result}")
    elif command == "sweep":
        (row,) = result["rows"]
        if row["error"] is None:
            if not (0.0 <= row["p1"] <= 1.0 and 0.0 <= row["p2"] <= 1.0 and row["trigger_rate"] <= SETUP.rep_rate_hz):
                problems.append(f"row out of range: {row}")
        else:
            # the row's message is the one a single-point call at its mean exits 2 with
            single = [_run(_argv(c, law, modes, mu, model), out) for c in ("simulate", "herald-stats")]
            text = row["error"].partition(": ")[2]
            if not any(code == 2 and message.endswith(f"'source.mu': {text}") for code, message, _ in single):
                problems.append(f"error row {row['error']!r}; single points {[s[:2] for s in single]}")
    return problems


def _strata():
    for command in COMMANDS:
        for law, modes in LAWS:
            for mu in MEANS:
                reasons = [r for r, (cs, strata) in KNOWN.items() if command in cs and ((law, modes), mu) in strata]
                marks = [pytest.mark.xfail(strict=True, reason=reason) for reason in reasons]
                for model in DEAD_TIME_MODELS:
                    yield pytest.param(command, law, modes, mu, model, marks=marks)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("strata")


@pytest.mark.parametrize("command,law,modes,mu,model", _strata())
def test_stratum(command, law, modes, mu, model, out):
    problems = _problems(command, law, modes, mu, model, out)
    if problems:  # the message alone: a traceback of each of the xfails would add seconds
        pytest.fail("\n".join(problems), pytrace=False)
