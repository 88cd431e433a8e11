"""Matrix-free conjugate gradient for symmetric positive semidefinite systems."""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass
class CgResult:
    """Solution plus convergence record of one CG run.

    ``residuals[k]`` is the relative residual norm ||b - A x_k|| / ||b||
    after iteration k (entry 0 is the initial residual).
    """

    x: np.ndarray
    iterations: int
    residuals: list
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def conjugate_gradient(
    operator,
    b: np.ndarray,
    tolerance: float,
    max_iterations: int,
) -> CgResult:
    """Solve ``operator(x) = b`` by plain (unpreconditioned) CG from x = 0.

    ``operator`` must be a symmetric positive semidefinite callable.
    Terminates when the relative residual norm drops to ``tolerance`` or
    after ``max_iterations``; the iterate is returned either way.
    """
    b = np.asarray(b, dtype=float)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CgResult(x=np.zeros_like(b), iterations=0, residuals=[0.0], converged=True)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    step = np.empty_like(b)  # holds alpha p, then alpha Ap
    rr = float(r @ r)
    residuals = [np.sqrt(rr) / b_norm]
    iterations = 0
    for _ in range(max_iterations):
        if residuals[-1] <= tolerance:
            break
        ap = operator(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            break  # operator numerically lost definiteness along p
        alpha = rr / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        rr_next = float(r @ r)
        residuals.append(np.sqrt(rr_next) / b_norm)
        p *= rr_next / rr
        p += r
        rr = rr_next
        iterations += 1
    return CgResult(
        x=x,
        iterations=iterations,
        residuals=residuals,
        converged=residuals[-1] <= tolerance,
    )
