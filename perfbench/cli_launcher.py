"""Run the symcanon command line with trace wrappers installed.

    python3 perfbench/cli_launcher.py SPANS_FILE OP_ID CLI_ARGS...

Used by traced query-cli passes in place of `python -m symcanon.cli`: it
installs the wrappers of tracing.TRACE_POINTS, calls symcanon.cli.main
with CLI_ARGS inside a "cli.main" span, writes the spans to SPANS_FILE
and exits with the command's exit code.
"""

import sys

from tracing import Tracer


def main():
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    absent = tracer.install()
    import symcanon.cli

    code = tracer.wrap("cli.main", symcanon.cli.main, lambda args, result: {"cmd": argv[0]})(argv)
    sys.stdout.flush()
    tracer.dump(spans_path, absent)
    sys.exit(code)


if __name__ == "__main__":
    main()
