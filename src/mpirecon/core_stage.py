"""Recovery of the core operator field from scan samples.

Each matrix row of the core operator couples to one signal channel:
channel ``i`` observes ``sum_j I[A_ij](r_k) v_j(k)``.  Rows therefore
decouple into independent least-squares problems, each regularized by
the squared Laplacian and solved by conjugate gradients on the normal
equations.  All rows share one normal matrix, assembled once per solve
from banded blocks, so a CG iteration costs the same however many
samples the scan has.  With a single available channel only that row
is recovered (partial data), which is enough to deconvolve against the
matching kernel entry downstream.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .forward import CoreOperatorField
from .geometry import GridGeometry
from .interpolation import InterpolationScheme, interpolation_matrix, stencil_gram
from .solvers import CgResult, conjugate_gradient

if TYPE_CHECKING:
    import scipy.sparse as sp


def _second_difference(n: int) -> sp.csr_matrix:
    """1D second difference with replicate (Neumann) boundary."""
    import scipy.sparse as sp

    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], offsets=(-1, 0, 1), format="csr")


def laplacian_matrix(shape: tuple) -> sp.csr_matrix:
    """5-point Laplacian in pixel units on raveled row-major images,
    replicate boundary."""
    h, w = shape
    if h < 3 or w < 3:
        raise ValueError(f"Laplacian needs a grid of at least 3 x 3, got {shape}")
    import scipy.sparse as sp

    return sp.kron(sp.eye(h), _second_difference(w)) + sp.kron(
        _second_difference(h), sp.eye(w)
    )


@dataclasses.dataclass(frozen=True)
class CoreStageConfig:
    """Regularization, solver budget and reconstruction target.

    ``rows`` lists the core-operator matrix rows to recover; partial data
    provides the matching signal channels only.  The regularizer acts in
    pixel units, which makes gamma resolution-coupled and keeps its
    working value light.
    """

    grid: GridGeometry
    gamma: float = 1e-7
    cg_tolerance: float = 1e-3
    cg_max_iterations: int = 10_000
    rows: tuple = (0, 1)

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.cg_tolerance <= 0:
            raise ValueError("cg_tolerance must be positive")
        if sorted(self.rows) not in ([0], [1], [0, 1]):
            raise ValueError(f"rows must be distinct values of {{0, 1}}, got {self.rows}")


@dataclasses.dataclass
class CoreStageSolution:
    """Recovered field plus per-row solver records and the count of
    samples dropped for leaving the grid hull."""

    field: CoreOperatorField
    cg: dict
    dropped_samples: int


def _normal_blocks(grid, sample_matrix, velocities, gamma, reg, n_kept):
    """Blocks ``N[j][k] = S^T diag(v_j v_k) S / L + [j == k] gamma R`` of
    the normal matrix, with ``N[k][j]`` the same object as ``N[j][k]``.
    With no kept sample the data term vanishes and only ``gamma R`` stays."""
    scale = 1.0 / max(n_kept, 1)
    reg = gamma * reg
    blocks = [[None, None], [None, None]]
    for j in range(2):
        for k in range(j, 2):
            block = stencil_gram(grid, sample_matrix, velocities[:, j] * velocities[:, k] * scale)
            blocks[j][k] = blocks[k][j] = block + reg if j == k else block
    return blocks


def _apply_normal(blocks, x):
    xs = x.reshape(2, -1)
    return np.concatenate([sum(block @ xk for block, xk in zip(row, xs)) for row in blocks])


def solve_core_stage(
    signal_values: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    config: CoreStageConfig,
    scheme: InterpolationScheme | None = None,
) -> CoreStageSolution:
    """Minimize the per-sample misfit ``|s_k - I[A](r_k) v_k|^2`` (mean
    over samples) plus ``gamma ||Laplacian A||^2`` entry-wise, row by row.

    Positions and velocities are ``(L, 2)``; ``signal_values`` carries
    one column per entry of ``config.rows``.  Samples outside the grid
    hull are dropped with a warning; the row solves run CG to
    ``cg_tolerance`` on the relative residual and report non-convergence
    without discarding the iterate.  With gamma = 0, raises
    ``ValueError`` when some pixel's 2 x 2 data block is
    numerically rank-deficient (no kept sample touches the pixel, or the
    velocities through it span too few directions): lambda_min <= 1e-12
    lambda_max, so by Cauchy interlacing cond(N) >= 1e12.  The check is
    necessary, not sufficient: on a 5 x 5 grid, two samples with
    velocities (1, 0) and (0, 1) at each of the 16 cell centres give 32
    samples for 50 unknowns, so N is singular (rank 32), yet every pixel
    block is a positive multiple of I (0.0625 I from each cell centre next
    to the pixel, before the mean over samples) and the check passes.
    """
    if scheme is None:
        scheme = InterpolationScheme()
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    signal_values = np.atleast_2d(np.asarray(signal_values, dtype=float))
    rows = tuple(config.rows)
    if positions.shape[1:] != (2,) or velocities.shape != positions.shape:
        raise ValueError(
            "positions and velocities must both have shape (samples, 2), got "
            f"{positions.shape} and {velocities.shape}"
        )
    if signal_values.shape[0] != positions.shape[0]:
        raise ValueError(
            f"signal has {signal_values.shape[0]} samples but the trajectory has "
            f"{positions.shape[0]}"
        )
    if signal_values.shape[1] != len(rows):
        raise ValueError(
            f"signal values must have shape (samples, {len(rows)}), got {signal_values.shape}"
        )
    if not np.all(np.isfinite(velocities)):
        raise ValueError("velocities must be finite")

    inside = config.grid.contains(positions)
    n_kept = int(np.count_nonzero(inside))
    dropped = positions.shape[0] - n_kept
    if dropped:
        warnings.warn(f"dropped {dropped} samples outside the grid hull", stacklevel=2)

    grid = config.grid
    sample_matrix = interpolation_matrix(grid, positions[inside], scheme)
    kept_v = velocities[inside]
    kept_s = signal_values[inside]

    lap = laplacian_matrix(grid.shape)
    blocks = _normal_blocks(grid, sample_matrix, kept_v, config.gamma, lap.T @ lap, n_kept)
    if config.gamma == 0:
        pixel_blocks = np.array([[blocks[j][k].diagonal() for k in range(2)] for j in range(2)])
        eigenvalues = np.linalg.eigvalsh(np.moveaxis(pixel_blocks, -1, 0))
        singular = eigenvalues[:, 0] <= 1e-12 * eigenvalues[:, -1]
        if singular.any():
            raise ValueError(
                f"normal matrix is singular: {int(singular.sum())} of {grid.n_pixels} pixels "
                "have a rank-deficient data block (no kept sample, or velocities spanning "
                "too few directions) and gamma = 0"
            )

    def operator(x):
        return _apply_normal(blocks, x)

    entries = {}
    cg_records: dict[int, CgResult] = {}
    for idx, row in enumerate(rows):
        b = np.concatenate(
            [sample_matrix.T @ (kept_s[:, idx] * kept_v[:, j]) for j in range(2)]
        ) / max(n_kept, 1)
        result = conjugate_gradient(operator, b, config.cg_tolerance, config.cg_max_iterations)
        if not result.converged:
            warnings.warn(
                f"core-stage CG for row {row} stopped at relative residual "
                f"{result.final_residual:.3e} after {result.iterations} iterations",
                stacklevel=2,
            )
        cg_records[row] = result
        solution = result.x.reshape(2, grid.n_pixels)
        for j in range(2):
            entries[(row, j)] = solution[j].reshape(grid.shape)

    field = CoreOperatorField(entries=entries, geometry=grid, populated_rows=rows)
    return CoreStageSolution(field=field, cg=cg_records, dropped_samples=dropped)


def extract_trace(field: CoreOperatorField) -> np.ndarray:
    """Pixel-wise sum of the diagonal entries; requires all of them."""
    missing = [r for r in range(2) if not field.has_entry(r, r)]
    if missing:
        raise ValueError(
            f"diagonal entries {missing} are not populated (partial data: "
            "use field.entry on an available row instead)"
        )
    return sum(field.entry(r, r) for r in range(2))
