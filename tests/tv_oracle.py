"""Slice-form TV proxes and the total variation, test oracles.

The proxes here allocate fresh arrays on every step and shift with 2-D
slices.  ``tv_prox``, fast gradient projection, at its default float32
runs the loop of ``mpirecon.denoisers.tv_prox`` (``image / weight`` cast
once, the divergence summed as ``(p0 difference) + (p1 difference)``,
the result formed in float64), which must match it byte for byte; at
float64 it is the reference that the float32 loop is measured against,
and run long it is the converged prox.  ``chambolle_prox`` is
Chambolle's projection on the same dual, the loop that fast gradient
projection replaced, kept as the accuracy its step count must match.
"""

import math

import numpy as np

from mpirecon.denoisers import TV_STEPS


def _tv_gradient(image: np.ndarray) -> np.ndarray:
    out = np.zeros((2,) + image.shape, image.dtype)
    out[0, :-1, :] = image[1:, :] - image[:-1, :]
    out[1, :, :-1] = image[:, 1:] - image[:, :-1]
    return out


def _tv_divergence(p: np.ndarray) -> np.ndarray:
    """``(p0[i, j] - p0[i-1, j]) + (p1[i, j] - p1[i, j-1])`` with ``p0`` zero
    on the last row and before the first, ``p1`` on the last column and
    before the first."""
    rows = np.zeros(p.shape[1:], p.dtype)
    rows[:-1, :] = p[0, :-1, :]
    rows[1:, :] -= p[0, :-1, :]
    cols = np.zeros(p.shape[1:], p.dtype)
    cols[:, :-1] = p[1, :, :-1]
    cols[:, 1:] -= p[1, :, :-1]
    return rows + cols


def tv_prox(image: np.ndarray, weight: float, n_iterations: int = TV_STEPS,
            dtype=np.float32) -> np.ndarray:
    """Proximal operator of ``weight * TV`` via Beck and Teboulle's fast
    gradient projection, the dual loop in ``dtype``."""
    if weight <= 0.0:
        return image.copy()
    scaled = (image / weight).astype(dtype)
    p = np.zeros((2,) + image.shape, dtype)
    r = p
    t = 1.0
    for _ in range(n_iterations):
        q = r + _tv_gradient((_tv_divergence(r) - scaled) * 0.125)
        q = q / np.maximum(np.sqrt(q[0] * q[0] + q[1] * q[1]), 1.0)[None, :, :]
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        r = (q - p) * ((t - 1.0) / t_next) + q
        p, t = q, t_next
    return image - weight * _tv_divergence(p).astype(np.float64)


def chambolle_prox(image: np.ndarray, weight: float, n_iterations: int = 60,
                   dtype=np.float64) -> np.ndarray:
    """Proximal operator of ``weight * TV`` via Chambolle's dual projection,
    the dual loop in ``dtype``."""
    if weight <= 0.0:
        return image.copy()
    scaled = (image / weight).astype(dtype)
    p = np.zeros((2,) + image.shape, dtype)
    tau = 0.25
    for _ in range(n_iterations):
        grad = _tv_gradient(_tv_divergence(p) - scaled)
        magnitude = np.sqrt(np.sum(grad**2, axis=0))
        p = (p + tau * grad) / (1.0 + tau * magnitude)[None, :, :]
    return image - weight * _tv_divergence(p).astype(np.float64)


def total_variation(image: np.ndarray) -> float:
    """Isotropic discrete total variation."""
    grad = _tv_gradient(np.asarray(image, dtype=float))
    return float(np.sqrt(np.sum(grad**2, axis=0)).sum())
