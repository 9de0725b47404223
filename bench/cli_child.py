"""Run one `prefsat` command with the tracer installed.

    python3 bench/cli_child.py TRACE_FILE COMMAND [ARG...]

Behaves like `python3 -m prefsat.cli COMMAND [ARG...]` (same stdout, same
exit code) and writes the command's spans and per-layer totals to
TRACE_FILE as JSON.  `prefsat` must be importable (PYTHONPATH=src).
"""
import json
import sys

import tracing


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import prefsat.cli

    tracer = tracing.Tracer()
    tracer.op = " ".join(argv)
    tracer.install({name: sys.modules[f"prefsat.{name}"] for name in tracing.MODULES})
    try:
        code = prefsat.cli.main(argv)
    finally:
        tracer.restore()
    with open(trace_file, "w") as fh:
        json.dump(tracer.record(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
