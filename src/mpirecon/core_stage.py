"""Recovery of the core operator field from scan samples.

Each matrix row of the core operator couples to one signal channel:
channel ``i`` observes ``sum_j I[A_ij](r_k) v_j(k)``.  Rows therefore
decouple into independent least-squares problems, each regularized by
the squared Laplacian and solved by conjugate gradients on the normal
equations.  The normal equations are streamed: one pass over blocks of
samples adds each block's share of the stencil-pair sums of the Gram
blocks and of every row's right-hand side, so the solve holds no
per-sample array beyond its inputs, a one-byte hull mask and, only when
samples are dropped, one index per kept sample; its memory is otherwise
O(pixels + block).  The pass is pipelined over one worker thread: the
worker prepares the next block (its weights and coefficients) and adds
its right-hand sides while the caller's thread adds the current block's
stencil products, whose ``np.add.at`` holds the GIL that the worker's
numpy calls release.  All rows share one normal matrix, stored by its
diagonals, which are written straight from those sums; a CG iteration
is one sparse product that reads no column indices and whose cost does
not grow with the number of samples.  The rows' CG solves run
concurrently: the caller's thread solves the first row and one worker
thread the second, both reading the one N; the sparse products and BLAS
dot products release the GIL, so the two solves overlap.  In both
stages every number sees the same operations in the same order as in a
serial run, so the threads change no bit of the result, and at most one
worker thread is alive at a time.  With a single available channel only
that row is recovered (partial data), which is enough to deconvolve
against the matching kernel entry downstream.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import interpolation
from .forward import CoreOperatorField, check_rows
from .geometry import GridGeometry
from .interpolation import InterpolationScheme, csr_from_weights, interp_weights
from .solvers import CgResult, conjugate_gradient

if TYPE_CHECKING:
    import scipy.sparse as sp


def _second_difference_diagonal(n: int) -> np.ndarray:
    """Main diagonal of the 1D second difference with replicate (Neumann)
    boundary; its off-diagonals are ones."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    return main


def _check_laplacian_shape(shape: tuple) -> None:
    if min(shape) < 3:
        raise ValueError(f"Laplacian needs a grid of at least 3 x 3, got {shape}")


def laplacian_matrix(shape: tuple) -> sp.dia_matrix:
    """5-point Laplacian in pixel units on raveled row-major images,
    replicate boundary, stored by its five diagonals."""
    _check_laplacian_shape(shape)
    h, w = shape
    import scipy.sparse as sp

    main = np.add.outer(_second_difference_diagonal(h), _second_difference_diagonal(w))
    across = np.ones(h * w - 1)
    across[w - 1 :: w] = 0.0  # no x neighbour across an image row's end
    vertical = np.ones(h * w - w)
    return sp.diags(
        [vertical, across, main.ravel(), across, vertical], (-w, -1, 0, 1, w), format="dia"
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
        _check_laplacian_shape(self.grid.shape)
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")
        if self.cg_tolerance <= 0:
            raise ValueError("cg_tolerance must be positive")
        if not self.cg_tolerance < 1:  # CG would stop at x = 0
            raise ValueError(f"cg_tolerance must lie in (0, 1), got {self.cg_tolerance!r}")
        if self.cg_max_iterations < 1:
            raise ValueError(f"cg_max_iterations must be at least 1, got {self.cg_max_iterations}")
        check_rows(self.rows)


@dataclasses.dataclass
class CoreStageSolution:
    """Recovered field plus per-row solver records and the count of
    samples dropped for leaving the grid hull."""

    field: CoreOperatorField
    cg: dict
    dropped_samples: int


# the velocity pairs (j, k) of the Gram blocks Gjk; G10 is G01
PAIRS = ((0, 0), (1, 1), (0, 1))
# the stencil pairs a <= b of a sample's four nodes base + (0, 1, w, w + 1)
STENCIL_PAIRS = tuple((a, b) for a in range(4) for b in range(a, 4))


def _stencil_buffers(size):
    """Work buffers of ``_add_stencil_products`` for blocks of up to
    ``size`` samples: node bases, weight columns and two products."""
    return np.empty(size, np.intp), np.empty((4, size)), np.empty(size), np.empty(size)


def _add_stencil_products(sums, indices, weights, coefficients, buffers):
    """Add one block of samples to the stencil-pair sums ``_normal_matrix``
    places.

    ``indices`` and ``weights`` are the block's ``interp_weights``
    (m, 4), ``coefficients`` is (P, m) and ``sums`` (P, 10, n_pixels).
    For each coefficient row ``c`` and stencil pair ``(a, b)`` of
    ``STENCIL_PAIRS``, ``c w_a w_b`` is added at each sample's first node.
    ``np.add.at`` adds in sample order, so blocks added in sample order
    give the bits of one bincount over all samples.  ``buffers`` come
    from ``_stencil_buffers``; nothing is allocated per block.
    """
    base, columns, scaled, product = (buffer[..., : len(indices)] for buffer in buffers)
    np.copyto(base, indices[:, 0])
    np.copyto(columns, weights.T)  # contiguous weight columns stay in cache
    for pair_sums, c in zip(sums, coefficients):
        for counts, (a, b) in zip(pair_sums, STENCIL_PAIRS):
            if a == b:  # each a's pairs start with (a, a)
                np.multiply(c, columns[a], out=scaled)
            np.multiply(scaled, columns[b], out=product)
            np.add.at(counts, base, product)


def _normal_equations(grid, positions, velocities, signal_values, inside, scheme):
    """Stencil-pair sums of the Gram blocks ``Gjk = S^T diag(v_j v_k) S / L``
    (one ``(10, n_pixels)`` array per pair of ``PAIRS``) and, per signal
    column ``s_i``, the right-hand side ``[S^T (s_i v_0), S^T (s_i v_1)]
    / L``, from one pass over the samples where ``inside`` holds; S
    samples the grid at the L kept positions.

    Blocks of ``GRAM_BLOCK`` kept samples are gathered through one index
    of the kept samples, so dropping a sample gives the bits of never
    having it.  Each block computes its interpolation weights, its
    ``v_j v_k / L`` coefficients and its ``s_i v_j`` columns, adds its
    stencil products into the sums in sample order, so they carry the
    bits of one bincount over all samples, and adds its right-hand sides
    as one product ``S_b^T Y_b`` with the block's own sampling matrix.
    Those block sums are added in block order, so with more than one
    block the right-hand sides differ from the one transposed product
    ``S^T (s_i v_j)`` by rounding.

    The pass is pipelined over one worker thread: while the caller's
    thread adds block k's stencil products, the worker prepares block
    k + 1 (gather, weights, coefficients) and adds its right-hand sides.
    The worker takes block k + 1 only after handing over block k, so both
    kinds of sum are still added in sample and block order and keep the
    bits of the serial pass; the worker's numpy calls release the GIL
    that ``np.add.at`` holds.  At most one block is prepared ahead, and
    the caller's stencil buffers are allocated once per pass, so the peak
    memory (the worker's next block beside them) does not depend on how
    the two threads are scheduled.  Leaving the pass joins the worker,
    also on an error, which reaches the caller unchanged.  With no kept
    sample no thread is started.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_pix = grid.n_pixels
    kept = None if inside.all() else np.flatnonzero(inside)
    n_kept = len(inside) if kept is None else len(kept)
    divisor = max(n_kept, 1)
    scale = 1.0 / divisor
    sums = np.zeros((len(PAIRS), len(STENCIL_PAIRS), n_pix))
    rhs = np.zeros((n_pix, signal_values.shape[1], 2))
    size = interpolation.GRAM_BLOCK

    def prepare(lo):
        """Add the right-hand sides of the block at ``lo`` and return what
        its stencil products need."""
        take = slice(lo, lo + size) if kept is None else kept[lo : lo + size]
        points, vel, sig = positions[take], velocities[take], signal_values[take]
        indices, weights = interp_weights(grid, points, scheme)
        m = vel.shape[0]
        coefficients = np.empty((len(PAIRS), m))
        for c, (j, k) in zip(coefficients, PAIRS):
            np.multiply(vel[:, j], vel[:, k], out=c)
            c *= scale
        y = np.empty((m, sig.shape[1], 2))  # y[:, i, j] = s_i v_j
        for i in range(sig.shape[1]):
            for j in range(2):
                np.multiply(sig[:, i], vel[:, j], out=y[:, i, j])
        sampled = csr_from_weights(indices, weights, n_pix)
        np.add(rhs, (sampled.T @ y.reshape(m, rhs[0].size)).reshape(rhs.shape), out=rhs)
        return indices, weights, coefficients

    buffers = _stencil_buffers(size)
    with ThreadPoolExecutor(1, thread_name_prefix="core-stage-block") as pool:
        ahead = pool.submit(prepare, 0) if n_kept else None
        for lo in range(0, n_kept, size):
            indices, weights, coefficients = ahead.result()
            if lo + size < n_kept:
                ahead = pool.submit(prepare, lo + size)
            _add_stencil_products(sums, indices, weights, coefficients, buffers)
    return sums, [rhs[:, idx].T.ravel() / divisor for idx in range(rhs.shape[1])]


def _normal_matrix(grid, sums, gamma):
    """The normal matrix ``N = [[G00 + gamma R, G01], [G01, G11 + gamma R]]``
    with ``R = L^T L`` (L from ``laplacian_matrix``), stored by its
    diagonals and written straight from the stencil-pair sums of
    ``_normal_equations``.

    A sample touches the nodes ``base + o`` for ``o`` in (0, 1, w, w + 1).
    The sum of stencil pair ``a <= b`` at node ``base`` is the Gram entry
    ``(base + o_a, base + o_b)``: band ``o_b - o_a``, which a diagonal
    stores at column ``base + o_b``, and its mirror, stored at column
    ``base + o_a``.  Band ``d`` of Gjj is N's diagonal ``d`` (G00 in the
    first ``n_pix`` columns, G11 in the rest); band ``d`` of G01 is N's
    diagonals ``d + n_pix`` and ``d - n_pix``.  Pairs are added in pair
    order, then gamma R.  Offsets that coincide on small grids share one
    stored row, on disjoint columns.  Offsets ascend, so each row of
    ``N @ x`` sums in column order, as CSR does.  Each block is exactly
    symmetric and G01 is used twice, so N is exactly symmetric.  With no
    kept sample only ``gamma R`` stays."""
    import scipy.sparse as sp

    n_pix = grid.n_pixels
    w = grid.shape[1]
    stencil = (0, 1, w, w + 1)
    lap = laplacian_matrix(grid.shape)
    reg = gamma * sp.dia_matrix(lap.T @ lap)
    bands = np.array([stencil[b] - stencil[a] for a, b in STENCIL_PAIRS])
    bands = np.concatenate([bands, -bands])
    offsets = np.unique(np.concatenate([reg.offsets, bands, bands + n_pix, bands - n_pix]))
    row = {d: k for k, d in enumerate(offsets.tolist())}
    data = np.zeros((len(offsets), 2 * n_pix))
    # (stencil-pair sums, shift from a Gram offset to N's, N's first column)
    blocks = ((sums[0], 0, 0), (sums[1], 0, n_pix), (sums[2], n_pix, n_pix), (sums[2], -n_pix, 0))
    for pair_sums, shift, start in blocks:
        for (a, b), counts in zip(STENCIL_PAIRS, pair_sums):
            offset = stencil[b] - stencil[a]
            n_base = n_pix - stencil[b]  # first nodes whose node base + o_b is on the grid
            for d, first in {offset: stencil[b], -offset: stencil[a]}.items():
                lo = start + first
                data[row[d + shift], lo : lo + n_base] += counts[:n_base]
    for d, values in zip(reg.offsets.tolist(), reg.data):
        for start in (0, n_pix):
            data[row[d], start : start + len(values)] += values
    return sp.dia_matrix((data, offsets), shape=(2 * n_pix, 2 * n_pix))


def solve_core_stage(
    signal_values: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    config: CoreStageConfig,
    scheme: InterpolationScheme | None = None,
) -> CoreStageSolution:
    """Minimize the per-sample misfit ``|s_k - I[A](r_k) v_k|^2`` (mean
    over samples) plus ``gamma ||Laplacian A||^2`` entry-wise, row by row.

    The normal equations of all rows come from one blocked pass over the
    samples (``_normal_equations``); no sample matrix and no per-sample
    weight array is formed, so beyond its inputs, a one-byte hull mask
    per sample and, only when samples are dropped, one index per kept
    sample, the solve holds O(pixels + ``GRAM_BLOCK``) memory.

    Positions and velocities are ``(L, 2)``; ``signal_values`` carries
    one column per entry of ``config.rows``.  Samples outside the grid
    hull are dropped with a warning, with the bits of a solve that never
    had them; non-finite positions, velocities or signal values raise
    ``ValueError``.  The row solves run CG to ``cg_tolerance`` on the
    relative residual and report non-convergence without discarding the
    iterate; a row whose CG stops at a non-finite residual (its normal
    equations overflow) raises ``ValueError``.  The pass prepares each
    next block, and adds its right-hand sides, on one worker thread while
    the caller's thread adds the
    current block's stencil products; with two rows the second row's CG
    runs on one worker thread while the caller's thread solves the first.
    The result is bit-identical to a serial pass and to solving the rows
    in turn, each worker is joined before the next step starts, also on
    an error, and the non-convergence warnings and any exception are
    raised on the caller's thread, in row order.  With gamma = 0, raises
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
    for name, values in (
        ("positions", positions),
        ("velocities", velocities),
        ("signal values", signal_values),
    ):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")

    grid = config.grid
    inside = grid.contains(positions)
    dropped = positions.shape[0] - int(np.count_nonzero(inside))
    if dropped:
        warnings.warn(f"dropped {dropped} samples outside the grid hull", stacklevel=2)

    sums, rhs = _normal_equations(grid, positions, velocities, signal_values, inside, scheme)
    normal = _normal_matrix(grid, sums, config.gamma)
    del sums  # CG needs only N
    if config.gamma == 0:
        n_pix = grid.n_pixels
        diagonal, off = normal.diagonal(), normal.diagonal(n_pix)
        pixel_blocks = np.array([[diagonal[:n_pix], off], [off, diagonal[n_pix:]]])
        eigenvalues = np.linalg.eigvalsh(np.moveaxis(pixel_blocks, -1, 0))
        singular = eigenvalues[:, 0] <= 1e-12 * eigenvalues[:, -1]
        if singular.any():
            raise ValueError(
                f"normal matrix is singular: {int(singular.sum())} of {grid.n_pixels} pixels "
                "have a rank-deficient data block (no kept sample, or velocities spanning "
                "too few directions) and gamma = 0"
            )

    from concurrent.futures import ThreadPoolExecutor

    def solve(b):
        return conjugate_gradient(normal.dot, b, config.cg_tolerance, config.cg_max_iterations)

    # leaving the block joins the worker, also on an error
    with ThreadPoolExecutor(1, thread_name_prefix="core-stage-row") as pool:
        rest = [pool.submit(solve, b) for b in rhs[1:]]
        results = [solve(rhs[0])] + [future.result() for future in rest]

    cg_records: dict[int, CgResult] = {}
    for row, result in zip(rows, results):
        stopped = (
            f"core-stage CG for row {row} stopped at relative residual "
            f"{result.final_residual:.3e} after {result.iterations} iterations"
        )
        if not np.isfinite(result.final_residual):
            raise ValueError(f"{stopped}: the normal equations overflow")
        if not result.converged:
            warnings.warn(stopped, stacklevel=2)
        cg_records[row] = result

    values = np.stack([cg_records[row].x for row in sorted(rows)])
    field = CoreOperatorField(values.reshape(len(rows), 2, *grid.shape), grid, rows)
    return CoreStageSolution(field=field, cg=cg_records, dropped_samples=dropped)


def extract_trace(field: CoreOperatorField) -> np.ndarray:
    """Pixel-wise sum of the diagonal entries; requires all of them."""
    missing = [r for r in range(2) if r not in field.populated_rows]
    if missing:
        raise ValueError(
            f"diagonal entries {missing} are not populated (partial data: "
            "use field.entry on an available row instead)"
        )
    return sum(field.entry(r, r) for r in range(2))
