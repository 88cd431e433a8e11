"""BLAS runs on one thread, as in the benchmark (``bench/run.py`` pins it
the same way): the thread count fixes the order of BLAS reductions, so
the tests see the bytes the benchmark sees.  Set before numpy loads."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
