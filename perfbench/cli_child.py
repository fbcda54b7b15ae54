"""Traced stand-in for the ``graphcodes`` console script.

Usage: cli_child.py SPAWN_TIME ARG...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is system-wide, so the gap to this
script's first statement is the interpreter start-up.  The script imports
the CLI, runs it on ARG... with every layer wrapped, and writes its spans as
one JSON line, prefixed with ``tracer.SPANS_TAG``, to standard error.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import SPANS_TAG, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.record("cli.startup", float(sys.argv[1]), _started)
    with tracer.span("cli.import"):
        from graphcodes import cli
    tracer.install()
    with tracer.span("cli.run"):
        status = cli.run_command(sys.argv[2:])
        sys.stdout.flush()
    sys.stderr.write(SPANS_TAG + json.dumps(tracer.spans) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
