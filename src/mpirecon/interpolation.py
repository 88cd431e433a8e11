"""Separable grid interpolation as a sparse sampling matrix.

Sampling a grid image at off-grid scan positions is the forward leg of
the core-stage data term; the matrix transpose scatters sample residuals
back to the bracketing grid nodes with the same weights, which makes the
normal matrix exactly symmetric.

The default per-axis weight is the cosine ramp ``(1 - cos(pi a)) / 2``
for fractional offset ``a`` in [0, 1]: smooth, exact at the nodes,
nonnegative and summing to one.  Bilinear weights are available for
ablation.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from .geometry import GridGeometry

if TYPE_CHECKING:
    import scipy.sparse as sp

KINDS = ("cosine", "bilinear")

# samples per pass of ``interp_weights`` and ``stencil_gram``: the block's
# four weight columns, node indices and products (about 1 MB) fit in a
# core's L2 cache
GRAM_BLOCK = 16_384


@dataclasses.dataclass(frozen=True)
class InterpolationScheme:
    kind: str = "cosine"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interpolation kind {self.kind!r}; choose from {KINDS}")


def _ramp(frac: np.ndarray, kind: str) -> np.ndarray:
    if kind == "cosine":
        ramp = np.multiply(frac, np.pi)
        np.cos(ramp, out=ramp)
        np.subtract(1.0, ramp, out=ramp)
        ramp *= 0.5
        return ramp
    return frac


def _axis_cells(coords, origin, spacing, count, atol=1e-9):
    """Cell index and fractional offset per query coordinate; clamps
    queries on (or within rounding of) the hull boundary."""
    g = (np.asarray(coords, dtype=float) - origin) / spacing
    if np.any(g < -atol) or np.any(g > count - 1 + atol):
        raise ValueError("interpolation point outside the grid hull")
    g = np.clip(g, 0.0, count - 1)
    cell = np.minimum(g.astype(np.int32), count - 2)
    return cell, g - cell


def interp_weights(
    grid: GridGeometry, points: np.ndarray, scheme: InterpolationScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices (L, 4) and weights (L, 4) for points (L, 2).

    Weight columns follow node order (y0x0, y0x1, y1x0, y1x1).  Points
    are taken in blocks of ``GRAM_BLOCK`` so that each block's
    temporaries stay in cache; every step is elementwise, so the blocks
    do not change a bit of the result.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h, w = grid.shape
    if h < 2 or w < 2:
        raise ValueError("interpolation needs at least 2 nodes per axis")
    n_points = points.shape[0]
    # int32 node indices go into the CSR matrix without a downcast copy
    indices = np.empty((n_points, 4), dtype=np.int32)
    weights = np.empty((n_points, 4))
    for lo in range(0, n_points, GRAM_BLOCK):
        block = slice(lo, min(lo + GRAM_BLOCK, n_points))
        ix, fx = _axis_cells(points[block, 0], grid.origin[0], grid.spacing[0], w)
        iy, fy = _axis_cells(points[block, 1], grid.origin[1], grid.spacing[1], h)
        wx = _ramp(fx, scheme.kind)
        wy = _ramp(fy, scheme.kind)
        vx, vy = 1 - wx, 1 - wy
        np.multiply(vy, vx, out=weights[block, 0])
        np.multiply(vy, wx, out=weights[block, 1])
        np.multiply(wy, vx, out=weights[block, 2])
        np.multiply(wy, wx, out=weights[block, 3])
        base = iy * w + ix
        for col, offset in enumerate((0, 1, w, w + 1)):
            np.add(base, offset, out=indices[block, col])
    return indices, weights


def interpolation_matrix(
    grid: GridGeometry, points: np.ndarray, scheme: InterpolationScheme
) -> sp.csr_matrix:
    """Sparse (L x n_pixels) matrix that samples a raveled grid image at
    the points; its transpose scatters sample values back to the nodes
    with the same weights, which is the exact adjoint.

    Row k stores exactly the four weights of point k, in the node order
    of ``interp_weights``; ``stencil_gram`` relies on this layout.
    """
    import scipy.sparse as sp

    points = np.atleast_2d(np.asarray(points, dtype=float))
    indices, weights = interp_weights(grid, points, scheme)
    indptr = np.arange(0, 4 * points.shape[0] + 1, 4, dtype=indices.dtype)
    return sp.csr_matrix(
        (weights.ravel(), indices.ravel(), indptr), shape=(points.shape[0], grid.n_pixels)
    )


def stencil_gram(
    grid: GridGeometry, sample_matrix: sp.csr_matrix, coefficients: np.ndarray
) -> sp.dia_matrix:
    """``S^T diag(coefficients) S`` for ``S = interpolation_matrix(grid, ...)``,
    stored by its diagonals.

    Each row of S touches the nodes ``base + (0, 1, w, w + 1)``, so the
    product is banded with the nine diagonals 0, +-1, +-(w - 1), +-w and
    +-(w + 1).  Each stencil pair ``a <= b`` sums its weight products per
    ``base`` node in sample order, as one bincount would, and adds the
    sums to the upper diagonal ``o_b - o_a``; the lower diagonals mirror
    the upper ones, which makes the result exactly symmetric.  Samples
    are read in blocks of ``GRAM_BLOCK``, copied to contiguous buffers so
    that the block's columns and products stay in cache.
    """
    import scipy.sparse as sp

    w = grid.shape[1]
    n_pix = grid.n_pixels
    stencil = (0, 1, w, w + 1)
    weights = sample_matrix.data.reshape(-1, 4)
    starts = sample_matrix.indices[::4]
    n_samples = weights.shape[0]
    size = min(GRAM_BLOCK, n_samples)
    columns = np.empty((4, size))
    base = np.empty(size, dtype=np.intp)
    scaled = np.empty(size)
    product = np.empty(size)
    sums = {(a, b): np.zeros(n_pix) for a in range(4) for b in range(a, 4)}
    for lo in range(0, n_samples, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, n_samples)
        m = hi - lo
        np.copyto(columns[:, :m], weights[lo:hi].T)
        np.copyto(base[:m], starts[lo:hi])
        for a in range(4):
            np.multiply(coefficients[lo:hi], columns[a, :m], out=scaled[:m])
            for b in range(a, 4):
                np.multiply(scaled[:m], columns[b, :m], out=product[:m])
                # adds in sample order, so the sums carry bincount's bits
                np.add.at(sums[a, b], base[:m], product[:m])
    upper: dict[int, np.ndarray] = {}
    for (a, b), counts in sums.items():
        offset = stencil[b] - stencil[a]
        # node base + stencil[a] is bin base shifted by stencil[a]
        band = np.zeros(n_pix - offset)
        band[stencil[a]:] = counts[: n_pix - offset - stencil[a]]
        upper[offset] = upper[offset] + band if offset in upper else band
    offsets = [d for d in upper if d > 0]
    return sp.diags(
        [upper[0]] + [upper[d] for d in offsets] * 2,
        [0] + offsets + [-d for d in offsets],
        shape=(n_pix, n_pix),
        format="dia",
        dtype=float,
    )
