"""`python -m fredholm_kit.cli ARGS...` with the benchmark's layer
wrappers installed, for the traced cli-cold run.

    python3 perfbench/tracecli.py TRACE_OUT ARGS...

Writes the layer metrics of this one process to TRACE_OUT as JSON and
exits with the CLI's own exit code.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import fredholm_kit.cli as cli  # noqa: E402
import tracing  # noqa: E402


def main():
    trace_out, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        cli.main(args=args, prog_name="fredholm-kit")
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)


if __name__ == "__main__":
    main()
