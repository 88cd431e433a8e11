"""Slice-form Chambolle TV prox, used only as a test oracle.

``tv_prox`` here allocates fresh arrays on every iteration and shifts
with 2-D slices; ``mpirecon.denoisers.tv_prox`` must match it byte for
byte.
"""

import numpy as np


def _tv_gradient(image: np.ndarray) -> np.ndarray:
    out = np.zeros((2,) + image.shape)
    out[0, :-1, :] = image[1:, :] - image[:-1, :]
    out[1, :, :-1] = image[:, 1:] - image[:, :-1]
    return out


def _tv_divergence(p: np.ndarray) -> np.ndarray:
    out = np.zeros(p.shape[1:])
    out[:-1, :] += p[0, :-1, :]
    out[1:, :] -= p[0, :-1, :]
    out[:, :-1] += p[1, :, :-1]
    out[:, 1:] -= p[1, :, :-1]
    return out


def tv_prox(image: np.ndarray, weight: float, n_iterations: int = 60) -> np.ndarray:
    """Proximal operator of ``weight * TV`` via Chambolle's dual projection."""
    if weight <= 0.0:
        return image.copy()
    p = np.zeros((2,) + image.shape)
    tau = 0.25
    for _ in range(n_iterations):
        grad = _tv_gradient(_tv_divergence(p) - image / weight)
        magnitude = np.sqrt(np.sum(grad**2, axis=0))
        p = (p + tau * grad) / (1.0 + tau * magnitude)[None, :, :]
    return image - weight * _tv_divergence(p)
