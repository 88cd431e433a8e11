"""Core-stage test oracles.

``normal_operator`` applies ``S^T diag(v_j) (sum_k diag(v_k) S x_k) / L +
gamma R x_j`` sample by sample, straight from the least-squares misfit,
so it shares no assembly code with the banded normal matrix the library
builds.  ``stencil_gram_bands`` is the straightforward per-stencil-pair
bincount of the banded Gram product over the whole sampling matrix; the
Gram bands the library writes into its normal matrix from sums streamed
block by block (read back from N's blocks at gamma = 0) must match it bit
for bit.  ``normal_matrix_csr`` stacks those bands into the CSR normal
matrix block by block; the library's diagonal-stored normal matrix must
equal it entry for entry and apply it bit for bit.
``serial_normal_equations`` is the core stage's pass over the samples
on one thread, the reference for the pipelined pass.
"""

import numpy as np
import scipy.sparse as sp

from mpirecon import interpolation
from mpirecon.core_stage import PAIRS, STENCIL_PAIRS, _add_stencil_products, _stencil_buffers
from mpirecon.interpolation import csr_from_weights, interp_weights


def stencil_gram_bands(grid, sample_matrix, coefficients):
    """Upper bands ``{offset: values}`` of ``S^T diag(coefficients) S``,
    one bincount per stencil pair on the node indices it touches."""
    w = grid.shape[1]
    n_pix = grid.n_pixels
    stencil = (0, 1, w, w + 1)
    weights = sample_matrix.data.reshape(-1, 4)
    base = sample_matrix.indices.reshape(-1, 4)[:, 0]
    upper = {}
    for a in range(4):
        rows = base + stencil[a]
        scaled = coefficients * weights[:, a]
        for b in range(a, 4):
            offset = stencil[b] - stencil[a]
            band = np.bincount(rows, weights=scaled * weights[:, b], minlength=n_pix)
            band = band[: n_pix - offset]
            upper[offset] = upper[offset] + band if offset in upper else band
    return upper


def normal_matrix_csr(grid, sample_matrix, velocities, gamma, reg, n_kept):
    """``[[G00 + gamma R, G01], [G01, G11 + gamma R]]`` as one CSR matrix,
    stacked with ``hstack``/``vstack`` from ``stencil_gram_bands``."""
    n_pix = grid.n_pixels
    scale = 1.0 / max(n_kept, 1)
    reg = gamma * sp.csr_matrix(reg)

    def gram(j, k):
        upper = stencil_gram_bands(grid, sample_matrix, velocities[:, j] * velocities[:, k] * scale)
        offsets = [d for d in upper if d > 0]
        return sp.diags(
            [upper[0]] + [upper[d] for d in offsets] * 2,
            [0] + offsets + [-d for d in offsets],
            shape=(n_pix, n_pix),
            format="csr",
            dtype=float,
        )

    off = gram(0, 1)
    top = sp.hstack([gram(0, 0) + reg, off], format="csr")
    bottom = sp.hstack([off, gram(1, 1) + reg], format="csr")
    return sp.vstack([top, bottom], format="csr")


def normal_operator(sample_matrix, velocities, gamma, reg, n_kept):
    n = velocities.shape[1]
    n_pix = sample_matrix.shape[1]

    def apply(x):
        xs = x.reshape(n, n_pix)
        out = np.zeros_like(xs)
        if n_kept > 0:
            t = np.zeros(sample_matrix.shape[0])
            for j in range(n):
                t += (sample_matrix @ xs[j]) * velocities[:, j]
            for j in range(n):
                out[j] = (sample_matrix.T @ (t * velocities[:, j])) / n_kept
        if gamma > 0:
            for j in range(n):
                out[j] += gamma * (reg @ xs[j])
        return out.ravel()

    return apply


def serial_normal_equations(grid, positions, velocities, signal_values, inside, scheme):
    """The core stage's streamed pass without its worker thread: each
    block is gathered, prepared and added on the calling thread, in
    sample and block order.  The library's pipelined
    ``_normal_equations`` must return the same sums and right-hand sides
    bit for bit."""
    n_pix = grid.n_pixels
    kept = None if inside.all() else np.flatnonzero(inside)
    n_kept = len(inside) if kept is None else len(kept)
    divisor = max(n_kept, 1)
    scale = 1.0 / divisor
    sums = np.zeros((len(PAIRS), len(STENCIL_PAIRS), n_pix))
    rhs = np.zeros((n_pix, signal_values.shape[1], 2))
    size = interpolation.GRAM_BLOCK
    buffers = _stencil_buffers(size)
    for lo in range(0, n_kept, size):
        take = slice(lo, lo + size) if kept is None else kept[lo : lo + size]
        points, vel, sig = positions[take], velocities[take], signal_values[take]
        indices, weights = interp_weights(grid, points, scheme)
        m = vel.shape[0]
        coefficients = np.empty((len(PAIRS), m))
        for c, (j, k) in zip(coefficients, PAIRS):
            np.multiply(vel[:, j], vel[:, k], out=c)
            c *= scale
        _add_stencil_products(sums, indices, weights, coefficients, buffers)
        y = np.empty((m, sig.shape[1], 2))  # y[:, i, j] = s_i v_j
        for i in range(sig.shape[1]):
            for j in range(2):
                np.multiply(sig[:, i], vel[:, j], out=y[:, i, j])
        sampled = csr_from_weights(indices, weights, n_pix)
        rhs += (sampled.T @ y.reshape(m, rhs[0].size)).reshape(rhs.shape)
    return sums, [rhs[:, idx].T.ravel() / divisor for idx in range(rhs.shape[1])]
