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


@dataclasses.dataclass(frozen=True)
class InterpolationScheme:
    kind: str = "cosine"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interpolation kind {self.kind!r}; choose from {KINDS}")


def _ramp(frac: np.ndarray, kind: str) -> np.ndarray:
    if kind == "cosine":
        return 0.5 * (1.0 - np.cos(np.pi * frac))
    return frac


def _axis_cells(coords, origin, spacing, count, atol=1e-9):
    """Cell index and fractional offset per query coordinate; clamps
    queries on (or within rounding of) the hull boundary."""
    g = (np.asarray(coords, dtype=float) - origin) / spacing
    if np.any(g < -atol) or np.any(g > count - 1 + atol):
        raise ValueError("interpolation point outside the grid hull")
    g = np.clip(g, 0.0, count - 1)
    cell = np.minimum(g.astype(int), count - 2)
    return cell, g - cell


def interp_weights(
    grid: GridGeometry, points: np.ndarray, scheme: InterpolationScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices (L, 4) and weights (L, 4) for points (L, 2).

    Weight columns follow node order (y0x0, y0x1, y1x0, y1x1).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h, w = grid.shape
    if h < 2 or w < 2:
        raise ValueError("interpolation needs at least 2 nodes per axis")
    ix, fx = _axis_cells(points[:, 0], grid.origin[0], grid.spacing[0], w)
    iy, fy = _axis_cells(points[:, 1], grid.origin[1], grid.spacing[1], h)
    wx = _ramp(fx, scheme.kind)
    wy = _ramp(fy, scheme.kind)
    weights = np.stack(
        [(1 - wy) * (1 - wx), (1 - wy) * wx, wy * (1 - wx), wy * wx], axis=-1
    )
    base = iy * w + ix
    indices = np.stack([base, base + 1, base + w, base + w + 1], axis=-1)
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
    indptr = np.arange(0, 4 * points.shape[0] + 1, 4)
    return sp.csr_matrix(
        (weights.ravel(), indices.ravel(), indptr), shape=(points.shape[0], grid.n_pixels)
    )


def stencil_gram(
    grid: GridGeometry, sample_matrix: sp.csr_matrix, coefficients: np.ndarray
) -> sp.csr_matrix:
    """``S^T diag(coefficients) S`` for ``S = interpolation_matrix(grid, ...)``.

    Each row of S touches the nodes ``base + (0, 1, w, w + 1)``, so the
    product is banded with the nine diagonals 0, +-1, +-(w - 1), +-w and
    +-(w + 1).  Each stencil pair ``a <= b`` adds one bincount to the
    upper diagonal ``o_b - o_a``; the lower diagonals mirror the upper
    ones, which makes the result exactly symmetric.
    """
    import scipy.sparse as sp

    w = grid.shape[1]
    n_pix = grid.n_pixels
    stencil = (0, 1, w, w + 1)
    weights = sample_matrix.data.reshape(-1, 4)
    base = sample_matrix.indices.reshape(-1, 4)[:, 0]
    upper: dict[int, np.ndarray] = {}
    for a in range(4):
        rows = base + stencil[a]
        scaled = coefficients * weights[:, a]
        for b in range(a, 4):
            offset = stencil[b] - stencil[a]
            band = np.bincount(rows, weights=scaled * weights[:, b], minlength=n_pix)
            band = band[: n_pix - offset]
            upper[offset] = upper[offset] + band if offset in upper else band
    offsets = [d for d in upper if d > 0]
    return sp.diags(
        [upper[0]] + [upper[d] for d in offsets] * 2,
        [0] + offsets + [-d for d in offsets],
        shape=(n_pix, n_pix),
        format="csr",
        dtype=float,
    )
