"""Closed-loop benchmark of narekit: one client, BLAS pinned to one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; the package is imported from its
`src/` directory, and without one the run exits 2.  Each request's inputs
come from the workload seed and the request index, every call is timed to
its return or raise, and every output is checked.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the run's context
(versions, thread counts, sample counts, failures by class).

--trace 0 reports the end-to-end metrics of harness.END_TO_END.  --trace 1
runs the same requests twice, untraced and then with the layer wrappers of
tracing.py installed, and reports the per-layer metrics of
tracing.PER_LAYER; the spans go to .bench_out/.  --selfcheck runs every
workload on n=8 problems, two requests each, through both passes.
"""

import argparse
import os
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workload_names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    # the thread counts must be fixed before numpy loads its BLAS
    env_before = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    if not (SRC / "narekit" / "__init__.py").is_file():
        print(f"run.py: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import narekit
    if Path(narekit.__file__).resolve().parent != (SRC / "narekit").resolve():
        print(f"run.py: narekit imported from {narekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.selfcheck:
        return harness.selfcheck()
    harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                args.trace, time.perf_counter() - _T0, env_before)
    return 0


if __name__ == "__main__":
    sys.exit(main())
