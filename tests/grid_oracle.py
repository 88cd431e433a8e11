"""Grid helpers used only as test oracles.

``interpolate`` and ``interpolation_adjoint`` evaluate the interpolation
weights point by point, without the sparse matrix the library builds;
``laplacian_apply`` applies the replicate-boundary 5-point stencil on
the image directly, without the library's sparse Laplacian.
"""

import numpy as np

from mpirecon.interpolation import interp_weights


def interpolate(field, points, grid, scheme):
    """Interpolated field value(s) at the query point(s)."""
    field = np.asarray(field, dtype=float)
    if field.shape != tuple(grid.shape):
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    points = np.asarray(points, dtype=float)
    scalar = points.ndim == 1
    indices, weights = interp_weights(grid, points, scheme)
    values = (field.ravel()[indices] * weights).sum(axis=-1)
    return float(values[0]) if scalar else values


def interpolation_adjoint(points, values, grid, scheme):
    """Scatter values to the bracketing nodes; exact adjoint of
    ``interpolate`` in the Euclidean inner products."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.shape[0] != points.shape[0]:
        raise ValueError("one value per point required")
    indices, weights = interp_weights(grid, points, scheme)
    out = np.zeros(grid.n_pixels)
    np.add.at(out, indices.ravel(), (weights * values[:, None]).ravel())
    return out.reshape(grid.shape)


def laplacian_apply(field, spacing=(1.0, 1.0)):
    """Replicate-boundary 5-point Laplacian of a grid image; ``spacing``
    is (dx, dy), with x along columns."""
    field = np.asarray(field, dtype=float)
    dx, dy = spacing
    p = np.pad(field, 1, mode="edge")
    d2x = (p[1:-1, 2:] - 2.0 * field + p[1:-1, :-2]) / dx**2
    d2y = (p[2:, 1:-1] - 2.0 * field + p[:-2, 1:-1]) / dy**2
    return d2x + d2y
