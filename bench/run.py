"""mpirecon benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload pipeline_100 --seed 1 --seconds 30 --trace 0

Workloads: pipeline_100, sweep_100, core_excited_160 (see workloads.py).
One run is one fresh process that

1. generates the workload's inputs from ``--seed`` in a child process
   (``prepare.py``, not timed);
2. times set-up (``import mpirecon`` and config parsing) in fresh child
   processes (``setup_probe.py``) and reports the median;
3. calls the workload's entry point in a closed loop with one caller for
   ``--seconds`` seconds, checking every call's output;
4. prints an ``env`` line, a ``report`` line, one line per metric and,
   last, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` untraced and traced calls alternate and
the metrics are the per-layer ones from the traced calls, with the
tracing overhead.  BLAS is pinned to ``BLAS_THREADS`` thread(s) before
numpy loads: the thread count changes the reduction order and with it
the last digits of the quality numbers.  Scratch files go to
``.bench_work/``.

Exits with 2, printing no result, when the mpirecon sources are missing.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mpirecon benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mpirecon" / "__init__.py").is_file():
        print(f"error: mpirecon sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness
    import mpirecon

    if Path(mpirecon.__file__).resolve().parent != (SRC / "mpirecon").resolve():
        print(f"error: imported mpirecon from {mpirecon.__file__}", file=sys.stderr)
        return 2
    if args.workload not in harness.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return harness.run(args, mpirecon)


if __name__ == "__main__":
    sys.exit(main())
