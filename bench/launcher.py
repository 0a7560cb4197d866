"""Traced child process for the CLI workloads.

    python3 bench/launcher.py TRACE_OUT OP_ID <epsnet cli arguments...>

Installs the tracing wrappers, then calls `epsnet.cli.main(argv)` inside
a `cli.main.<command>` span, and writes the spans and counters to
TRACE_OUT as JSON. Exits with the CLI's own exit status.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_out, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return tracer.wrap_cli_main(argv[0])(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
