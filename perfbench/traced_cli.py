"""`torusq verify` with span tracing, for the traced verify-all-n16 run.

Usage: traced_cli.py SPANS_OUT SUMMARY_OUT <torusq arguments...>

Installs the tracer, runs torusq.cli.main as one operation, writes the spans
and the per-layer summary of that operation, and exits with main's status.
"""

import json
import sys

import tracer
from torusq import cli


def main(argv) -> int:
    spans_out, summary_out, cli_args = argv[0], argv[1], argv[2:]
    t = tracer.Tracer()
    missing = tracer.install(t)
    if missing:
        sys.stderr.write(f"traced_cli: not traced (missing): {', '.join(missing)}\n")
    t.begin_op()
    try:
        status = cli.main(cli_args)
    finally:
        t.end_op()
    sys.stdout.flush()
    t.write(spans_out)
    with open(summary_out, "w", encoding="utf-8") as f:
        json.dump(t.summary(0), f)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
