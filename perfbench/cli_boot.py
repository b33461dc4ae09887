"""Traced CLI call: install the span wrappers, then run ``spdcherald.cli.main``.

    python3 perfbench/cli_boot.py SPANS_JSON OP_ID CLI_ARGS...

Spans are parented to OP_ID, the caller's span around this process, and
written to SPANS_JSON when the call ends.  The exit code is the CLI's.
"""

import sys

import spans
import spdcherald.cli


def main(argv: list[str]) -> int:
    path, op_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer(root_parent=op_id, op=op_id)
    spans.install(tracer)
    try:
        return spdcherald.cli.main(cli_argv)
    finally:
        tracer.write(path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
