"""Random override sets over the whole scenario schema, run through ``cli.main``
in one process.

Every set must exit 0, 2 or 3 (never a traceback), write strict JSON, name a
dotted key or an option when it exits 2, and write the same bytes when it is
run again after another set: the process caches parsed YAML and parsers, and
nothing of one call may reach the next.  Tier-1 runs the ``suite`` profile's
examples; ``--hypothesis-profile=fuzz`` runs the long derandomized budget.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from spdcherald import scenario
from spdcherald.cli import COMMANDS, main

KEYS = [key for key, _ in scenario.leaves()]

FLOATS = [
    "0", "-1", "-0.0", "1", "2", "0.999999", "30", "1e9", "1e300", "1e303", repr(sys.float_info.max), "1e-300", "5e-324"
]
INTS = ["-1", "0", "1", "2", "3", "100000", "1000000000"]
LISTS = ["[]", "[0.0]", "[1e300, 1, 1, 1]", "[0.01, 30.0]"]
# valid values of the string and choice keys, each drawn for any key
STRINGS = sorted(
    {choice for _, leaf in scenario.leaves() for choice in leaf.choices}
    | {leaf.default for _, leaf in scenario.leaves() if leaf.kind == "str"}
)

# half the values are of the key's own kind, so that sets reach the models
VALUES = FLOATS + INTS + LISTS + STRINGS
OWN_KIND = {
    "float": FLOATS + INTS, "int": FLOATS + INTS, "number_list": LISTS, "sellmeier": LISTS, "str": STRINGS,
    "choice": STRINGS,
}


@st.composite
def _override(draw):
    key, leaf = draw(st.sampled_from(list(scenario.leaves())))
    return key, draw(st.sampled_from(OWN_KIND[leaf.kind]) | st.sampled_from(VALUES))


override_sets = st.lists(_override(), min_size=1, max_size=3, unique_by=lambda item: item[0])


def _argv(command: str, overrides: list) -> list[str]:
    argv = [command, "paper.scenario"]
    for key, value in overrides:
        argv += ["--override", f"{key}={value}"]
    if ("run.mode", "monte_carlo") in overrides:
        argv += ["--pulses", "1000000", "--seed", "1"]
    return argv


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _run(argv: list[str]) -> tuple[int, str, dict]:
    """Exit code, stderr and the bytes of each artifact written."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out-dir", out])
        artifacts = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}
    return code, err.getvalue(), artifacts


@given(st.sampled_from(list(COMMANDS)), override_sets, st.sampled_from(list(COMMANDS)), override_sets)
def test_override_sets_exit_cleanly_and_rerun_identically(command, overrides, other_command, other):
    first, between = _argv(command, overrides), _argv(other_command, other)
    runs = [_run(first), _run(between), _run(first)]
    for argv, (code, err, artifacts) in zip((first, between), runs):
        assert code in (0, 2, 3), (argv, err)
        for name, data in artifacts.items():
            if name.endswith(".json"):
                json.loads(data, parse_constant=_reject_constant)
        if code == 2:
            message = err.strip().splitlines()[-1]
            assert any(f"'{key}" in message for key in KEYS) or "'--" in message, (argv, message)
    # stderr aside: a warning is shown once per process
    assert runs[2][::2] == runs[0][::2], first
