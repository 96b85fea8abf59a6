"""Run the rgflow CLI with the benchmark's tracer installed.

    python -X importtime perfbench/cli_trace.py SPANS.npz <rgflow arguments>

Behaves as `python -m rgflow.cli <rgflow arguments>` (same exit code and
output) and writes the spans of the run to SPANS.npz, also when the command
fails.  rgflow is imported before anything else so that `-X importtime`
charges numpy and scipy to rgflow's cumulative import time.
"""

import sys

import rgflow.cli

from tracer import Tracer, install


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return rgflow.cli.main(argv)
    finally:
        tracer.save(spans)


if __name__ == "__main__":
    sys.exit(main())
