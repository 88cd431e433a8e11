"""BLAS runs on one thread, as in the benchmark, so that a run may fork
its scan-CSV writer (``pipeline._one_thread``).  Set before numpy loads."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
