"""A fixed block of work that measures how fast the machine runs right now.

The benchmark shares its host with other tenants, and their load changes
the speed of a core by up to half, and of memory-bound code by up to
threefold, for seconds to minutes at a time.  A call's wall time then
says as much about the neighbours as about mpirecon.

A calibration block repeats fixed pieces of the kinds of work mpirecon
spends its time in:

* ``fft``     complex 2D FFT and inverse of a 100 x 100 image (PnP Tikhonov step)
* ``denoise`` one TV-like iteration of small elementwise numpy operations
* ``spmv``    one application of a core-stage-like normal operator: products
              with a 640k x 25.6k sparse matrix with 4 entries per row and
              its transpose, weighted by two 640k velocity columns (CG)
* ``text``    ``%.17g`` formatting of a 1000 x 4 table (artifact writers)

Each workload picks how many of each piece a block runs, in proportion to
where its own time goes, so the block slows down under contention about
as much as the workload does.  The inputs are fixed and no mpirecon code
runs, so no change to the program can move the block.  Timing a block
right before and right after a call gives the machine's speed during the
call, and ``calibrated`` rescales the call's wall time to the speed at
which the block takes ``REFERENCE_S``.

The block runs in its own process (``python3 bench/calibration.py MIX``,
one block per line read on stdin, its seconds written back), so its
memory does not count toward the measured process's peak.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp

ROUNDS = 4

# Time of one block on an idle host of the baseline machine (2 vCPU
# Intel Xeon, Python 3.11, numpy 2.4, OpenBLAS on one thread).  It only
# fixes the unit: calibrated times read like seconds on that machine.
REFERENCE_S = 0.1


class Block:
    def __init__(self, mix):
        self.mix = {part: mix.get(part, 0) for part in ("fft", "denoise", "spmv", "text")}
        rng = np.random.default_rng(0)
        self.image = rng.standard_normal((100, 100))
        self.table = rng.standard_normal((1_000, 4))
        if self.mix["spmv"]:
            n_rows, per_row, n_cols = 640_000, 4, 25_600
            self.matrix = sp.csr_matrix(
                (
                    rng.standard_normal(n_rows * per_row),
                    rng.integers(0, n_cols, size=n_rows * per_row),
                    np.arange(0, n_rows * per_row + 1, per_row),
                ),
                shape=(n_rows, n_cols),
            )
            self.x = rng.standard_normal((2, n_cols))
            self.v = rng.standard_normal((n_rows, 2))

    def __call__(self) -> float:
        """Seconds one block took.  Each part's count is spread over
        ``ROUNDS`` interleaved rounds so that every part samples the
        machine across the block's length."""
        start = time.perf_counter()
        for r in range(ROUNDS):
            n = {part: count // ROUNDS + (r < count % ROUNDS) for part, count in self.mix.items()}
            for _ in range(n["fft"]):
                np.real(np.fft.ifft2(np.fft.fft2(self.image) * 1.0001))
            p = np.zeros((2, *self.image.shape))
            for _ in range(n["denoise"]):
                g = np.stack(
                    [np.roll(self.image, -1, 1) - self.image, np.roll(self.image, -1, 0) - self.image]
                )
                p = (p + 0.1 * g) / np.maximum(1.0, np.sqrt((p**2).sum(axis=0)))
            for _ in range(n["spmv"]):
                t = np.zeros(self.v.shape[0])
                for j in range(2):
                    t += (self.matrix @ self.x[j]) * self.v[:, j]
                for j in range(2):
                    self.matrix.T @ (t * self.v[:, j])
            for _ in range(n["text"]):
                np.savetxt(io.StringIO(), self.table, fmt="%.17g")
        return time.perf_counter() - start


class Calibration:
    """Runs blocks in a child process; call it for one block's seconds."""

    def __init__(self, mix):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, json.dumps(mix)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self()  # the first block pays for page faults and caches

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process exited")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def calibrated(seconds, before, after):
    """``seconds`` rescaled to the reference speed, taking the machine's
    speed during the call as the mean of the blocks around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def main():
    block = Block(json.loads(sys.argv[1]))
    for _ in sys.stdin:
        print(repr(block()), flush=True)


if __name__ == "__main__":
    main()
