"""Separable grid interpolation: per-point node weights and the sparse
sampling matrix they make.

Sampling a grid image at off-grid scan positions is the forward leg of
the core-stage data term; the matrix transpose scatters sample residuals
back to the bracketing grid nodes with the same weights, which makes the
normal matrix exactly symmetric.  ``interpolation_matrix`` serves the
forward simulation.  The core stage never forms the matrix for all
samples: it takes ``interp_weights`` block by block and scatters each
block's right-hand sides through that block's ``csr_from_weights``
matrix.

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

# samples per pass of ``interp_weights`` and of the core stage's normal
# equations: a block's weights, node indices, stencil products and
# right-hand-side columns take one to two MB, about a core's L2 cache
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


def _axis_cells(coords, origin, spacing, count):
    """Cell index and fractional offset per query coordinate; clamps
    queries within rounding of the hull boundary onto it."""
    g = np.clip((coords - origin) / spacing, 0.0, count - 1)
    cell = np.minimum(g.astype(np.int32), count - 2)
    return cell, g - cell


def interp_weights(
    grid: GridGeometry, points: np.ndarray, scheme: InterpolationScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices (L, 4) and weights (L, 4) for points (L, 2).

    Weight columns follow node order (y0x0, y0x1, y1x0, y1x1).  Raises
    ``ValueError`` exactly when ``grid.contains`` rejects a point.  Points
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
        if not grid.contains(points[block]).all():
            raise ValueError("interpolation point outside the grid hull")
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


def csr_from_weights(indices: np.ndarray, weights: np.ndarray, n_pixels: int) -> sp.csr_matrix:
    """Sparse (L x n_pixels) matrix whose row k stores the four weights of
    ``interp_weights`` row k at its node indices, in that node order."""
    import scipy.sparse as sp

    indptr = np.arange(0, 4 * indices.shape[0] + 1, 4, dtype=indices.dtype)
    return sp.csr_matrix(
        (weights.ravel(), indices.ravel(), indptr), shape=(indices.shape[0], n_pixels)
    )


def interpolation_matrix(
    grid: GridGeometry, points: np.ndarray, scheme: InterpolationScheme
) -> sp.csr_matrix:
    """Sparse (L x n_pixels) matrix that samples a raveled grid image at
    the points; its transpose scatters sample values back to the nodes
    with the same weights, which is the exact adjoint."""
    return csr_from_weights(*interp_weights(grid, points, scheme), grid.n_pixels)
