"""Matrix-free normal operator of the core stage, kept as a test oracle.

It applies ``S^T diag(v_j) (sum_k diag(v_k) S x_k) / L + gamma R x_j``
sample by sample, straight from the least-squares misfit, so it shares
no assembly code with the banded normal matrix the library builds.
"""

import numpy as np


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
