"""rgflow performance benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload restore-bulk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; rgflow is imported from ./src.
Workloads: restore-bulk, restore-single, train, cli (see perfbench/README.md).
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  Exit 0 when every output
checked is correct, 1 when a check fails, 2 when rgflow cannot be imported.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads; RGFLOW_THREADS stays unset.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RGFLOW_THREADS", None)
# One CPU for the benchmark and the processes it starts: the host-speed probe
# sees only the CPU it runs on, so CLI processes must run there too.
try:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
except (AttributeError, OSError):
    pass
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import rgflow from ./src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {harness.WORKLOADS}")
    result, bench = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"host slowdown {bench.host_slowdown():.4f} (the probe's fastest tenth over {harness.PROBE_REF_S} s)")
    if not args.trace:
        print("end-to-end times are scaled by the host's slowdown around each sample")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
