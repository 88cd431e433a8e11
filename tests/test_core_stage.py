"""Core-stage solve: Laplacian regularizer, normal equations, round trips."""

import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from core_oracle import (
    normal_matrix_csr,
    normal_operator,
    serial_normal_equations,
    stencil_gram_bands,
)
from grid_oracle import laplacian_apply

from mpirecon import core_stage, interpolation
from mpirecon.core_stage import (
    PAIRS,
    CoreStageConfig,
    _normal_equations,
    _normal_matrix,
    extract_trace,
    laplacian_matrix,
    solve_core_stage,
)
from mpirecon.forward import fft_convolve, simulate_signal
from mpirecon.geometry import ConcentrationImage, GridGeometry
from mpirecon.interpolation import InterpolationScheme, interpolation_matrix
from mpirecon.kernels import KernelSpec, discretize_kernel
from mpirecon.scanner import ScannerConfig, lissajous
from mpirecon.solvers import conjugate_gradient


def dense_scan(n, samples_per_cell, fx, fy):
    """Scanner whose one-period Lissajous covers an n x n grid densely."""
    grid = GridGeometry.node_centered((24e-3, 24e-3), (n, n))
    config = ScannerConfig(
        gradient=(-1.0, -1.0),
        drive_amplitudes=(0.012, 0.012),
        drive_frequencies=(fx, fy),
        sample_rate=float(samples_per_cell * n * n),
        repetition_time=1.0,
    )
    field_step = abs(config.gradient_field()[0]) * grid.spacing[0]
    spec = KernelSpec(h=2.0 * field_step)
    return grid, config, spec


def delta_round_trip_error(n, samples_per_cell, fx=33.0, fy=32.0):
    grid, config, spec = dense_scan(n, samples_per_cell, fx, fy)
    rho = np.zeros(grid.shape)
    rho[n // 2, n // 2] = 1.0
    traj = lissajous(config)
    sig = simulate_signal(ConcentrationImage(rho, grid), traj, spec, config)
    cfg = CoreStageConfig(grid=grid)
    sol = solve_core_stage(sig.values, traj.positions, traj.velocities, cfg)
    trace = extract_trace(sol.field)
    expected = fft_convolve(
        rho, discretize_kernel(grid, spec, "trace", config.gradient_field()), grid.pixel_area
    )
    inner = (slice(2, -2), slice(2, -2))
    err = np.linalg.norm(trace[inner] - expected[inner]) / np.linalg.norm(expected[inner])
    return err, sol


def laplacian_via_matrix(field):
    return (laplacian_matrix(field.shape) @ field.ravel()).reshape(field.shape)


# every stencil check runs on the library's sparse matrix and on the
# independent padded-image oracle
LAPLACIANS = (laplacian_via_matrix, laplacian_apply)


class TestLaplacian:
    def test_constant_in_kernel(self):
        for apply in LAPLACIANS:
            out = apply(np.full((5, 7), 4.2))
            assert np.allclose(out, 0.0, atol=1e-12)

    def test_linear_ramp_zero_in_interior(self):
        x = np.arange(7)[None, :] * np.ones((5, 1))
        for apply in LAPLACIANS:
            out = apply(2.0 * x)
            assert np.allclose(out[:, 1:-1], 0.0, atol=1e-12)

    def test_spike_stencil_values(self):
        field = np.zeros((5, 5))
        field[2, 2] = 1.0
        for apply in LAPLACIANS:
            out = apply(field)
            assert out[2, 2] == -4.0
            for iy, ix in [(1, 2), (3, 2), (2, 1), (2, 3)]:
                assert out[iy, ix] == 1.0
            assert out[0, 0] == 0.0

    def test_replicate_boundary_edge_row(self):
        field = np.zeros((5, 5))
        field[0, 2] = 1.0
        for apply in LAPLACIANS:
            out = apply(field)
            # top edge: the missing north neighbor replicates the center
            assert out[0, 2] == pytest.approx(-3.0)

    def test_too_small_grid(self):
        for shape in ((2, 5), (5, 2)):
            message = re.escape(f"Laplacian needs a grid of at least 3 x 3, got {shape}")
            with pytest.raises(ValueError, match=message):
                laplacian_matrix(shape)
            grid = GridGeometry(shape=shape, spacing=(1.0, 1.0), origin=(0.0, 0.0))
            with pytest.raises(ValueError, match=message):
                CoreStageConfig(grid=grid)

    def test_matrix_matches_apply(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(6, 8))
        assert np.allclose(laplacian_via_matrix(field), laplacian_apply(field), rtol=1e-14)


def kept_sums(grid, pts, vel, scheme):
    """The streamed stencil-pair sums for samples that are all kept."""
    n = len(pts)
    return _normal_equations(grid, pts, vel, np.zeros((n, 1)), np.ones(n, bool), scheme)[0]


def assembled_normal(grid, pts, vel, gamma, scheme):
    """The library's diagonal-stored N for samples that are all kept."""
    return _normal_matrix(grid, kept_sums(grid, pts, vel, scheme), gamma)


def gram_blocks(grid, sums):
    """The Gram blocks Gjk by ``PAIRS``, read from N's blocks ``[:n, :n]``,
    ``[n:, n:]`` and ``[:n, n:]`` at gamma = 0."""
    n = grid.n_pixels
    normal = _normal_matrix(grid, sums, 0.0).tocsr()
    return dict(zip(PAIRS, (normal[:n, :n], normal[n:, n:], normal[:n, n:])))


def assert_bands_bit_equal(grid, blocks, mat, vel):
    """Every band of each Gjk carries the bits of the per-pair bincount of
    ``S^T diag(v_j v_k / L) S`` over the whole sampling matrix."""
    scale = 1.0 / max(len(vel), 1)
    for (j, k), gram in blocks.items():
        upper = stencil_gram_bands(grid, mat, vel[:, j] * vel[:, k] * scale)
        for offset, band in upper.items():
            assert gram.diagonal(offset).tobytes() == band.tobytes(), (j, k, offset)
            assert gram.diagonal(-offset).tobytes() == band.tobytes(), (j, k, -offset)


def random_normal_instance(rng, scheme, n_samples):
    """Random grid, samples (some on the far hull edges, in clamped
    cells) and velocities, with the assembled and the oracle operator."""
    h = int(rng.integers(3, 8))
    w = int(rng.integers(3, 8))
    grid = GridGeometry(shape=(h, w), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    pts = np.stack(
        [rng.uniform(0, w - 1, n_samples), rng.uniform(0, h - 1, n_samples)], axis=-1
    )
    pts[: n_samples // 4, 0] = w - 1
    pts[n_samples // 4 : n_samples // 2, 1] = h - 1
    vel = rng.normal(size=(n_samples, 2))
    mat = interpolation_matrix(grid, pts, scheme)
    lap = laplacian_matrix(grid.shape)
    reg = (lap.T @ lap).tocsr()
    gamma = 10.0 ** rng.uniform(-8, -2)
    normal = assembled_normal(grid, pts, vel, gamma, scheme)
    oracle = normal_operator(mat, vel, gamma=gamma, reg=reg, n_kept=n_samples)
    return grid, normal, oracle


def oracle_solve(signal_values, positions, velocities, config, scheme):
    """Row solves of ``solve_core_stage`` run on the matrix-free oracle."""
    grid = config.grid
    mat = interpolation_matrix(grid, positions, scheme)
    lap = laplacian_matrix(grid.shape)
    op = normal_operator(mat, velocities, config.gamma, (lap.T @ lap).tocsr(), len(positions))
    results = {}
    for idx, row in enumerate(config.rows):
        b = np.concatenate(
            [mat.T @ (signal_values[:, idx] * velocities[:, j]) for j in range(2)]
        ) / len(positions)
        results[row] = conjugate_gradient(op, b, config.cg_tolerance, config.cg_max_iterations)
    return results


class TestNormalOperatorSymmetry:
    def test_symmetric_on_random_instances(self):
        # symmetric to 1e-10 and equal to the matrix-free oracle to 1e-12
        rng = np.random.default_rng(1)
        for i in range(200):
            scheme = InterpolationScheme(("cosine", "bilinear")[i % 2])
            grid, normal, oracle = random_normal_instance(rng, scheme, int(rng.integers(1, 40)))
            u = rng.normal(size=2 * grid.n_pixels)
            v = rng.normal(size=2 * grid.n_pixels)
            nu = normal @ u
            lhs = float(np.dot(nu, v))
            rhs = float(np.dot(u, normal @ v))
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10
            expected = oracle(u)
            assert np.linalg.norm(nu - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_blocks_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        _, normal, _ = random_normal_instance(rng, InterpolationScheme(), 30)
        assert (normal != normal.T).nnz == 0

    def test_no_kept_samples_leaves_regularizer(self):
        grid = GridGeometry(shape=(5, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        mat = sp.csr_matrix((0, grid.n_pixels))
        vel = np.zeros((0, 2))
        lap = laplacian_matrix(grid.shape)
        reg = (lap.T @ lap).tocsr()
        normal = assembled_normal(grid, np.zeros((0, 2)), vel, 1e-3, InterpolationScheme())
        oracle = normal_operator(mat, vel, gamma=1e-3, reg=reg, n_kept=0)
        u = np.random.default_rng(3).normal(size=2 * grid.n_pixels)
        expected = oracle(u)
        assert np.linalg.norm(normal @ u - expected) <= 1e-12 * np.linalg.norm(expected)


def oracle_instance(seed, shape, kind, gamma, n_samples):
    """A random normal system on ``shape``: its grid, the library's
    diagonal-stored N and the CSR oracle N."""
    rng = np.random.default_rng(seed)
    h, w = shape
    grid = GridGeometry(shape=shape, spacing=(1.0, 1.0), origin=(0.0, 0.0))
    pts = np.stack(
        [rng.uniform(0, w - 1, n_samples), rng.uniform(0, h - 1, n_samples)], axis=-1
    )
    pts[: n_samples // 4, 0] = w - 1
    vel = rng.normal(size=(n_samples, 2))
    scheme = InterpolationScheme(kind)
    mat = interpolation_matrix(grid, pts, scheme)
    lap = laplacian_matrix(shape)
    reg = lap.T @ lap
    normal = assembled_normal(grid, pts, vel, gamma, scheme)
    oracle = normal_matrix_csr(grid, mat, vel, gamma, reg, n_samples)
    return grid, normal, oracle


# with height 3 the cross offset n_pix - w equals the block offset 2w (6 on
# 3 x 3, 16 on 3 x 8), so two bands share one stored diagonal
ORACLE_CASES = [
    (seed, shape, kind, gamma, n_samples)
    for seed, (shape, gamma, n_samples) in enumerate(
        [
            ((3, 3), 1e-3, 30),
            ((3, 3), 0.0, 30),
            ((3, 3), 1e-3, 0),
            ((3, 8), 1e-5, 17),
            ((8, 3), 1e-2, 40),
            ((4, 6), 0.0, 60),
            ((7, 5), 1e-4, 0),
            ((8, 8), 1e-7, 200),
            ((6, 6), 1e-3, 1),
        ]
    )
    for kind in ("cosine", "bilinear")
]


class TestNormalMatrixMatchesCsrOracle:
    @pytest.mark.parametrize("seed, shape, kind, gamma, n_samples", ORACLE_CASES)
    def test_entries_equal(self, seed, shape, kind, gamma, n_samples):
        grid, normal, oracle = oracle_instance(seed, shape, kind, gamma, n_samples)
        assert normal.format == "dia"
        assert np.all(np.diff(normal.offsets) > 0)
        assert normal.shape == oracle.shape == (2 * grid.n_pixels,) * 2
        assert np.array_equal(normal.toarray(), oracle.toarray())

    @pytest.mark.parametrize("seed, shape, kind, gamma, n_samples", ORACLE_CASES)
    def test_product_bit_equal(self, seed, shape, kind, gamma, n_samples):
        grid, normal, oracle = oracle_instance(seed, shape, kind, gamma, n_samples)
        x = np.random.default_rng(seed).normal(size=2 * grid.n_pixels)
        assert (normal @ x).tobytes() == (oracle @ x).tobytes()

    def test_three_by_three_shares_a_stored_diagonal(self):
        _, normal, _ = oracle_instance(0, (3, 3), "cosine", 1e-3, 30)
        # block offsets 0, 1, 2, 3, 4, 6 and cross offsets 5 ... 13, each with
        # its mirror: 6 is both 2w and n_pix - w
        assert len(normal.offsets) == 27
        assert 6 in normal.offsets and -6 in normal.offsets

    @pytest.mark.parametrize("shape", [(3, 3), (5, 7)])
    def test_pixel_blocks_read_from_the_diagonals(self, shape):
        grid, normal, oracle = oracle_instance(3, shape, "cosine", 0.0, 50)
        n_pix = grid.n_pixels
        for k in (0, n_pix, -n_pix):
            assert normal.diagonal(k).tobytes() == oracle.diagonal(k).tobytes(), k

    @pytest.mark.parametrize("rows", [(0, 1), (1,)])
    def test_cg_bit_equal(self, rows):
        grid = GridGeometry(shape=(9, 11), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, 8.0, size=(900, 2))
        velocities = rng.normal(size=(900, 2))
        values = rng.normal(size=(900, len(rows)))
        cfg = CoreStageConfig(grid=grid, gamma=1e-4, cg_tolerance=1e-8, rows=rows)
        sol = solve_core_stage(values, positions, velocities, cfg)
        mat = interpolation_matrix(grid, positions, InterpolationScheme())
        lap = laplacian_matrix(grid.shape)
        oracle = normal_matrix_csr(grid, mat, velocities, cfg.gamma, lap.T @ lap, 900)
        for idx, row in enumerate(rows):
            b = np.concatenate(
                [mat.T @ (values[:, idx] * velocities[:, j]) for j in range(2)]
            ) / 900
            want = conjugate_gradient(oracle.dot, b, cfg.cg_tolerance, cfg.cg_max_iterations)
            got = sol.cg[row]
            assert got.iterations == want.iterations > 10
            assert got.residuals == want.residuals
            assert got.x.tobytes() == want.x.tobytes()

    def test_singular_check_reads_the_diagonals(self):
        # the unvisited-pixel rejection of TestSolveCoreStage, on a 3 x 3
        # grid where a cross offset shares a stored diagonal with a block one
        grid = GridGeometry(shape=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        args = (np.ones((2, 2)), np.full((2, 2), 0.5), np.eye(2))
        with pytest.raises(ValueError, match="singular: 5 of 9 pixels"):
            solve_core_stage(*args, CoreStageConfig(grid=grid, gamma=0.0))


# the streamed right-hand sides add their blocks' sums in block order, one
# transposed product adds sample by sample: they agree to rounding
RHS_TOLERANCE = 1e-14


def streamed_instance(seed, kind, n_samples, n_columns):
    """Random samples on a 5 x 6 grid (a quarter on the far x edge, in
    clamped cells), their oracle sampling matrix and the streamed normal
    equations."""
    rng = np.random.default_rng(seed)
    grid = GridGeometry(shape=(5, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    pts = np.stack([rng.uniform(0, 5, n_samples), rng.uniform(0, 4, n_samples)], axis=-1)
    pts[: n_samples // 4, 0] = 5.0
    vel = rng.normal(size=(n_samples, 2))
    values = rng.normal(size=(n_samples, n_columns))
    scheme = InterpolationScheme(kind)
    sums, rhs = _normal_equations(grid, pts, vel, values, np.ones(n_samples, bool), scheme)
    mat = interpolation_matrix(grid, pts, scheme)
    return grid, pts, vel, values, mat, sums, rhs


def transposed_product_rhs(mat, values, vel, idx):
    """``[S^T (s_idx v_0), S^T (s_idx v_1)] / L`` as two full products."""
    stacked = np.concatenate([mat.T @ (values[:, idx] * vel[:, j]) for j in range(2)])
    return stacked / max(len(vel), 1)


# in blocks of 7, no sample makes no block, one sample one block, 47 samples
# seven blocks (the last of 5) and 300 samples 43
STREAMED_CASES = [(n, kind) for n in (0, 1, 47, 300) for kind in ("cosine", "bilinear")]


class TestStreamedNormalEquations:
    @pytest.mark.parametrize("n_samples, kind", STREAMED_CASES)
    def test_gram_bands_bit_equal_to_the_per_pair_bincount(self, monkeypatch, n_samples, kind):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid, _, vel, _, mat, sums, _ = streamed_instance(n_samples, kind, n_samples, 2)
        assert_bands_bit_equal(grid, gram_blocks(grid, sums), mat, vel)

    @pytest.mark.parametrize("n_samples, kind", STREAMED_CASES)
    def test_normal_matrix_equals_the_csr_oracle(self, monkeypatch, n_samples, kind):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid, _, vel, _, mat, sums, _ = streamed_instance(n_samples, kind, n_samples, 2)
        lap = laplacian_matrix(grid.shape)
        normal = _normal_matrix(grid, sums, 1e-3)
        oracle = normal_matrix_csr(grid, mat, vel, 1e-3, lap.T @ lap, n_samples)
        assert np.array_equal(normal.toarray(), oracle.toarray())

    @pytest.mark.parametrize("rows", [(0, 1), (1,), (1, 0)])
    @pytest.mark.parametrize("n_samples, kind", STREAMED_CASES)
    def test_right_hand_sides_match_the_transposed_product(
        self, monkeypatch, n_samples, kind, rows
    ):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        _, _, vel, values, mat, _, rhs = streamed_instance(n_samples, kind, n_samples, len(rows))
        assert len(rhs) == len(rows)
        for idx in range(len(rows)):
            want = transposed_product_rhs(mat, values, vel, idx)
            assert np.linalg.norm(rhs[idx] - want) <= RHS_TOLERANCE * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["cosine", "bilinear"])
    def test_one_block_right_hand_sides_bit_equal_to_the_transposed_product(self, kind):
        _, _, vel, values, mat, _, rhs = streamed_instance(9, kind, 300, 2)
        for idx in range(2):
            assert rhs[idx].tobytes() == transposed_product_rhs(mat, values, vel, idx).tobytes()

    @pytest.mark.parametrize("rows", [(0, 1), (1,), (1, 0)])
    def test_each_row_solves_its_signal_column(self, monkeypatch, rows):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid, pts, vel, values, _, sums, rhs = streamed_instance(3, "cosine", 300, len(rows))
        cfg = CoreStageConfig(grid=grid, gamma=1e-3, cg_tolerance=1e-8, rows=rows)
        sol = solve_core_stage(values, pts, vel, cfg)
        normal = _normal_matrix(grid, sums, cfg.gamma)
        # the columns in row order, solved as rows (0, 1) or (1,)
        ordered = CoreStageConfig(grid=grid, gamma=1e-3, cg_tolerance=1e-8, rows=tuple(sorted(rows)))
        in_order = solve_core_stage(values[:, np.argsort(rows)], pts, vel, ordered)
        for idx, row in enumerate(rows):
            want = conjugate_gradient(normal.dot, rhs[idx], cfg.cg_tolerance, cfg.cg_max_iterations)
            assert sol.cg[row].x.tobytes() == want.x.tobytes(), row
            assert in_order.cg[row].x.tobytes() == want.x.tobytes(), row

    def test_peak_memory_does_not_grow_with_the_samples(self):
        per_sample = peak_growth_per_sample(dropped=False)
        assert per_sample < 4.0, f"peak grows by {per_sample:.1f} bytes per added sample"

    def test_peak_memory_with_dropped_samples_grows_by_the_kept_index(self):
        # every 10th sample leaves the hull: the 8-byte index of the kept
        # samples adds 7.2 bytes per sample; measured 10.5 in all
        with pytest.warns(UserWarning, match="dropped"):
            per_sample = peak_growth_per_sample(dropped=True)
        assert per_sample < 12.0, f"peak grows by {per_sample:.1f} bytes per added sample"


def peak_growth_per_sample(dropped):
    """Growth of the solve's traced peak per added sample, from 2 to 16
    blocks of samples on a 20 x 20 grid; with ``dropped`` every 10th
    sample lies outside the grid hull.  A warm-up solve runs first, so
    that the lazy scipy imports are not counted."""
    block = interpolation.GRAM_BLOCK
    grid = GridGeometry(shape=(20, 20), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    cfg = CoreStageConfig(grid=grid, gamma=1e-3)
    rng = np.random.default_rng(7)

    def inputs(n):
        values, positions = rng.normal(size=(n, 2)), rng.uniform(0, 19, (n, 2))
        if dropped:
            positions[::10] += 40.0
        return values, positions, rng.normal(size=(n, 2))

    solve_core_stage(*inputs(100), cfg)
    peaks = []
    for n in (2 * block, 16 * block):
        args = inputs(n)
        tracemalloc.start()
        try:
            solve_core_stage(*args, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (14 * block)


def hull_points(rng, grid, n):
    """``n`` points uniform in the grid hull, the first (up to) three on
    hull corners, in clamped cells."""
    h, w = grid.shape
    x_end = grid.origin[0] + grid.spacing[0] * (w - 1)
    y_end = grid.origin[1] + grid.spacing[1] * (h - 1)
    pts = np.stack(
        [rng.uniform(grid.origin[0], x_end, n), rng.uniform(grid.origin[1], y_end, n)], axis=-1
    )
    corners = [[x_end, y_end], [grid.origin[0], grid.origin[1]], [x_end, grid.origin[1]]]
    pts[: min(n, 3)] = corners[: min(n, 3)]
    return pts


class TestGramBlocksOfNormalMatrix:
    """N at gamma = 0 holds the Gram blocks alone: ``[:n, :n]`` is G00,
    ``[n:, n:]`` G11 and ``[:n, n:]`` G01."""

    @pytest.mark.parametrize("kind", ["cosine", "bilinear"])
    def test_blocks_match_the_dense_product(self, kind):
        grid = GridGeometry(shape=(9, 11), spacing=(0.5, 0.25), origin=(-1.0, -2.0))
        rng = np.random.default_rng(8)
        pts = hull_points(rng, grid, 200)
        vel = rng.normal(size=(200, 2))
        scheme = InterpolationScheme(kind)
        dense_s = interpolation_matrix(grid, pts, scheme).toarray()
        w = grid.shape[1]
        for (j, k), gram in gram_blocks(grid, kept_sums(grid, pts, vel, scheme)).items():
            dense = dense_s.T @ ((vel[:, j] * vel[:, k] / 200)[:, None] * dense_s)
            assert np.allclose(gram.toarray(), dense, rtol=0, atol=1e-13 * np.abs(dense).max())
            assert (gram != gram.T).nnz == 0
            coo = gram.tocoo()
            assert set(np.abs(coo.col - coo.row)) <= {0, 1, w - 1, w, w + 1}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["cosine", "bilinear"])
    def test_bands_bit_equal_to_the_per_pair_loop(self, kind, seed):
        # grid sides from 3 up: the regularizer's Laplacian needs 3 x 3
        rng = np.random.default_rng(100 + seed)
        h, w = rng.integers(3, 13, size=2)
        grid = GridGeometry(shape=(h, w), spacing=(0.5, 0.25), origin=(-1.0, -2.0))
        n = int(rng.integers(1, 400))
        pts = hull_points(rng, grid, n)
        vel = rng.normal(size=(n, 2))
        scheme = InterpolationScheme(kind)
        mat = interpolation_matrix(grid, pts, scheme)
        assert_bands_bit_equal(grid, gram_blocks(grid, kept_sums(grid, pts, vel, scheme)), mat, vel)

    @pytest.mark.parametrize("kind", ["cosine", "bilinear"])
    def test_bands_sum_across_blocks_in_sample_order(self, kind, monkeypatch):
        # six full blocks of 7 samples and a remainder of 5 on a 3 x 4 grid,
        # so every node collects samples from several blocks
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid = GridGeometry(shape=(3, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        rng = np.random.default_rng(9)
        pts = hull_points(rng, grid, 47)
        vel = rng.normal(size=(47, 2))
        scheme = InterpolationScheme(kind)
        mat = interpolation_matrix(grid, pts, scheme)
        assert_bands_bit_equal(grid, gram_blocks(grid, kept_sums(grid, pts, vel, scheme)), mat, vel)

    def test_large_grid_stores_31_ascending_offsets(self):
        # the 13 offsets of R and the 9 Gram bands shifted by +-n_pix (the
        # 3 x 3 case, where two coincide, is in TestNormalMatrixMatchesCsrOracle)
        grid = GridGeometry(shape=(160, 160), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        normal = _normal_matrix(grid, np.zeros((3, 10, grid.n_pixels)), 1e-3)
        assert len(normal.offsets) == 31
        assert np.all(np.diff(normal.offsets) > 0)


class TestAssembledMatchesOracleSolve:
    @pytest.mark.parametrize("rows", [(0, 1), (0,)])
    @pytest.mark.parametrize("kind", ["cosine", "bilinear"])
    def test_lissajous_33_same_iterations_and_field(self, rows, kind):
        grid, config, spec = dense_scan(33, 64, 65.0, 64.0)
        rho = np.zeros(grid.shape)
        rho[16, 14:19] = 1.0
        scheme = InterpolationScheme(kind)
        traj = lissajous(config)
        sig = simulate_signal(ConcentrationImage(rho, grid), traj, spec, config, scheme)
        values = sig.values[:, list(rows)]
        cfg = CoreStageConfig(grid=grid, rows=rows)
        sol = solve_core_stage(values, traj.positions, traj.velocities, cfg, scheme)
        assert sol.dropped_samples == 0
        expected = oracle_solve(values, traj.positions, traj.velocities, cfg, scheme)
        for row in rows:
            assert sol.cg[row].iterations == expected[row].iterations
            got = sol.cg[row].x
            want = expected[row].x
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


class TestSolveCoreStage:
    def test_zero_signal_gives_zero_field(self):
        grid, config, spec = dense_scan(9, 16, 9.0, 8.0)
        traj = lissajous(config)
        cfg = CoreStageConfig(grid=grid)
        sol = solve_core_stage(
            np.zeros((len(traj), 2)), traj.positions, traj.velocities, cfg
        )
        for key, img in sol.field.entries.items():
            assert np.allclose(img, 0.0, atol=1e-15), key

    def test_single_node_sample_matches_dense_normal_system(self):
        # One sample on the center node of a 3x3 grid with v = e_x: the
        # data term is a rank-one update on the first entry image.  The
        # whole normal system is small enough to assemble by hand.
        grid = GridGeometry(shape=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        gamma = 1e-3
        cfg = CoreStageConfig(grid=grid, gamma=gamma, cg_tolerance=1e-12, rows=(0,))
        s_val = 0.7
        sol = solve_core_stage(
            np.array([[s_val]]),
            np.array([[1.0, 1.0]]),
            np.array([[1.0, 0.0]]),
            cfg,
        )

        # dense replicate-boundary Laplacian assembled independently
        lap = np.zeros((9, 9))
        for iy in range(3):
            for ix in range(3):
                r = iy * 3 + ix
                for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ny, nx = min(max(iy + dy, 0), 2), min(max(ix + dx, 0), 2)
                    lap[r, ny * 3 + nx] += 1.0
                lap[r, r] -= 4.0
        reg = gamma * lap.T @ lap
        e_center = np.zeros(9)
        e_center[4] = 1.0
        normal = np.zeros((18, 18))
        normal[:9, :9] = np.outer(e_center, e_center) + reg
        normal[9:, 9:] = reg
        rhs = np.concatenate([s_val * e_center, np.zeros(9)])
        expected = np.linalg.solve(normal, rhs)

        got = np.concatenate(
            [sol.field.entry(0, 0).ravel(), sol.field.entry(0, 1).ravel()]
        )
        assert np.allclose(got, expected, rtol=1e-6, atol=1e-12)
        assert np.allclose(sol.field.entry(0, 1), 0.0, atol=1e-12)

    def test_round_trip_recovers_trace(self):
        err, sol = delta_round_trip_error(17, 64)
        assert err < 0.05
        assert all(rec.converged for rec in sol.cg.values())

    def test_round_trip_error_decreases_with_density(self):
        errs = [delta_round_trip_error(13, spc)[0] for spc in (2, 8, 32)]
        assert errs[0] > errs[1] > errs[2]

    def test_cg_residuals_non_increasing(self):
        _, sol = delta_round_trip_error(13, 16)
        for rec in sol.cg.values():
            res = np.asarray(rec.residuals)
            assert np.all(np.diff(res) <= 1e-12 * res[:-1])

    def test_partial_rows_match_full_solve(self):
        grid, config, spec = dense_scan(11, 32, 11.0, 10.0)
        rho = np.zeros(grid.shape)
        rho[5, 5] = 1.0
        traj = lissajous(config)
        sig = simulate_signal(ConcentrationImage(rho, grid), traj, spec, config)
        full = solve_core_stage(
            sig.values, traj.positions, traj.velocities, CoreStageConfig(grid=grid)
        )
        partial = solve_core_stage(
            sig.values[:, :1],
            traj.positions,
            traj.velocities,
            CoreStageConfig(grid=grid, rows=(0,)),
        )
        assert partial.field.populated_rows == (0,)
        for col in range(2):
            a = full.field.entry(0, col)
            b = partial.field.entry(0, col)
            assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)

    def test_out_of_hull_samples_dropped_with_warning(self):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid)
        positions = np.array([[1.0, 1.0], [40.0, 1.0]])
        velocities = np.ones((2, 2))
        with pytest.warns(UserWarning, match="dropped 1 samples"):
            sol = solve_core_stage(np.ones((2, 2)), positions, velocities, cfg)
        assert sol.dropped_samples == 1

    def test_out_of_hull_sample_leaves_the_kept_solve_unchanged(self):
        grid = GridGeometry(shape=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid, gamma=1e-3)
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.0, 5.0, size=(200, 2))
        velocities = rng.normal(size=(200, 2))
        values = rng.normal(size=(200, 2))
        kept = solve_core_stage(values, positions, velocities, cfg)
        with pytest.warns(UserWarning, match="dropped 1 samples"):
            sol = solve_core_stage(
                np.insert(values, 80, [5.0, -5.0], axis=0),
                np.insert(positions, 80, [7.0, 2.0], axis=0),
                np.insert(velocities, 80, [1.0, 1.0], axis=0),
                cfg,
            )
        assert kept.dropped_samples == 0 and sol.dropped_samples == 1
        for key, entry in kept.field.entries.items():
            assert sol.field.entry(*key).tobytes() == entry.tobytes(), key

    @pytest.mark.parametrize(
        "n_kept, at",
        [
            # 13 dropped samples drawn to interleave 15 blocks of 7 kept ones
            (100, None),
            (100, [0, 100]),  # the first and the last sample
            (100, [7, 14, 14]),  # on the edges of the first two blocks
            (100, [10] * 7),  # a whole block of consecutive drops
            (1, [0] * 10 + [1] * 10),  # all samples but one
        ],
        ids=["interleaved", "first-and-last", "block-edge", "whole-block", "all-but-one"],
    )
    def test_out_of_hull_samples_across_blocks_leave_the_kept_solve_unchanged(
        self, monkeypatch, n_kept, at
    ):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid = GridGeometry(shape=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid, gamma=1e-3)
        rng = np.random.default_rng(6)
        positions = rng.uniform(0.0, 5.0, size=(n_kept, 2))
        velocities = rng.normal(size=(n_kept, 2))
        values = rng.normal(size=(n_kept, 2))
        kept = solve_core_stage(values, positions, velocities, cfg)
        at = np.sort(rng.choice(101, size=13)) if at is None else at
        n_out = len(at)
        sides = rng.choice([-1.0, 1.0], size=(n_out, 1))
        outside = rng.uniform(5.5, 9.0, size=(n_out, 2)) * sides
        with pytest.warns(UserWarning, match=f"^dropped {n_out} samples outside the grid hull$"):
            sol = solve_core_stage(
                np.insert(values, at, rng.normal(size=(n_out, 2)), axis=0),
                np.insert(positions, at, outside, axis=0),
                np.insert(velocities, at, rng.normal(size=(n_out, 2)), axis=0),
                cfg,
            )
        assert kept.dropped_samples == 0 and sol.dropped_samples == n_out
        for row in (0, 1):
            assert sol.cg[row].residuals == kept.cg[row].residuals, row
        for key, entry in kept.field.entries.items():
            assert sol.field.entry(*key).tobytes() == entry.tobytes(), key

    def test_sample_just_outside_the_hull_is_kept_and_clamped(self):
        # 5e-13 m left of the hull is within the 1e-12 m that contains allows,
        # but more than 1e-9 grid units (2.4e-13 m) on 100 x 100 over 24 mm
        grid = GridGeometry.node_centered((24e-3, 24e-3), (100, 100))
        cfg = CoreStageConfig(grid=grid, gamma=1e-3)
        rng = np.random.default_rng(11)
        positions = rng.uniform(-12e-3, 12e-3, size=(400, 2))
        velocities = rng.normal(size=(400, 2))
        values = rng.normal(size=(400, 2))
        positions[0] = (grid.origin[0], 0.0)
        on_edge = solve_core_stage(values, positions, velocities, cfg)
        positions[0, 0] -= 5e-13
        sol = solve_core_stage(values, positions, velocities, cfg)
        assert sol.dropped_samples == 0
        for key, entry in on_edge.field.entries.items():
            assert sol.field.entry(*key).tobytes() == entry.tobytes(), key

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_position_rejected(self, bad):
        grid = GridGeometry(shape=(8, 8), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        positions = np.full((3, 2), 2.5)
        positions[1, 0] = bad
        with pytest.raises(ValueError, match="^positions must be finite$"):
            solve_core_stage(np.ones((3, 2)), positions, np.ones((3, 2)), CoreStageConfig(grid))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_signal_rejected(self, bad):
        grid = GridGeometry(shape=(8, 8), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        values = np.ones((3, 2))
        values[2, 1] = bad
        with pytest.raises(ValueError, match="^signal values must be finite$"):
            solve_core_stage(values, np.full((3, 2), 2.5), np.eye(3, 2), CoreStageConfig(grid))

    def test_no_samples_without_regularization_rejected(self):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid, gamma=0.0)
        with pytest.warns(UserWarning, match="dropped"), pytest.raises(
            ValueError, match="25 of 25 pixels"
        ):
            solve_core_stage(
                np.zeros((1, 2)), np.array([[99.0, 99.0]]), np.ones((1, 2)), cfg
            )

    def test_no_samples_with_regularization_gives_zero_field(self):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid, gamma=1e-3)
        with pytest.warns(UserWarning, match="dropped"):
            sol = solve_core_stage(
                np.ones((1, 2)), np.array([[99.0, 99.0]]), np.ones((1, 2)), cfg
            )
        assert all(rec.converged for rec in sol.cg.values())
        for img in sol.field.entries.values():
            assert np.all(img == 0.0)

    def test_unvisited_pixels_without_regularization_rejected(self):
        # two samples mid-cell, with orthogonal velocities, touch 4 of the
        # 25 nodes and give each of them a full-rank data block
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        args = (np.ones((2, 2)), np.full((2, 2), 1.5), np.eye(2))
        with pytest.raises(ValueError, match="singular: 21 of 25 pixels"):
            solve_core_stage(*args, CoreStageConfig(grid=grid, gamma=0.0))
        sol = solve_core_stage(*args, CoreStageConfig(grid=grid, gamma=1e-3, cg_tolerance=1e-10))
        assert all(rec.converged for rec in sol.cg.values())
        assert np.all(np.isfinite(sol.field.entry(0, 0)))

    def test_parallel_velocities_without_regularization_rejected(self):
        # v = (1, 1) everywhere gives every pixel the rank-1 data block
        # [[a, a], [a, a]]: only the sum of the two entries is determined
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 4.0, size=(400, 2))
        args = (rng.normal(size=(400, 2)), positions, np.ones((400, 2)))
        with pytest.raises(ValueError, match="singular: 25 of 25 pixels"):
            solve_core_stage(*args, CoreStageConfig(grid=grid, gamma=0.0))
        sol = solve_core_stage(*args, CoreStageConfig(grid=grid, gamma=1e-3, cg_tolerance=1e-10))
        assert all(rec.converged for rec in sol.cg.values())
        assert all(np.all(np.isfinite(img)) for img in sol.field.entries.values())

    def test_signal_shape_mismatch_rejected(self):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid, rows=(0,))
        with pytest.raises(ValueError):
            solve_core_stage(
                np.zeros((3, 2)), np.ones((3, 2)), np.ones((3, 2)), cfg
            )

    @pytest.mark.parametrize("position_axes, velocity_axes", [(2, 3), (3, 3), (3, 2)])
    def test_third_axis_rejected(self, position_axes, velocity_axes):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        with pytest.raises(ValueError, match=r"must both have shape \(samples, 2\), got "
                           rf"\(3, {position_axes}\) and \(3, {velocity_axes}\)$"):
            solve_core_stage(
                np.zeros((3, 2)), np.ones((3, position_axes)), np.ones((3, velocity_axes)),
                CoreStageConfig(grid=grid),
            )

    @pytest.mark.parametrize("rows", [(), (0, 0), (2,), (1, 2), (0, 1, 0)])
    def test_rows_must_be_distinct_zero_or_one(self, rows):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        with pytest.raises(ValueError, match=r"^rows must be distinct values of \{0, 1\}"):
            CoreStageConfig(grid=grid, rows=rows)

    def test_signal_length_mismatch_names_both_counts(self):
        grid = GridGeometry(shape=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        cfg = CoreStageConfig(grid=grid, rows=(0,))
        with pytest.raises(ValueError, match=r"^signal has 4 samples but the trajectory has 3$"):
            solve_core_stage(np.zeros((4, 1)), np.ones((3, 2)), np.ones((3, 2)), cfg)


def small_two_row_instance():
    grid = GridGeometry(shape=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    rng = np.random.default_rng(0)
    positions = rng.uniform(0.0, 5.0, size=(200, 2))
    velocities = rng.normal(size=(200, 2))
    return grid, rng.normal(size=(200, 2)), positions, velocities


# A 100 x 100 solve in a fresh interpreter at the BLAS thread count of
# its environment: the pipelined pass over three blocks against the
# serial pass, and two concurrent solves against conjugate_gradient run
# row by row on the same N.  Its 20,000 unknowns exceed OpenBLAS's
# 10,000-element threshold for threaded dot products.
DETERMINISM_SCRIPT = """
import json
import numpy as np
from core_oracle import serial_normal_equations
from mpirecon.core_stage import CoreStageConfig, _normal_equations, _normal_matrix, solve_core_stage
from mpirecon.geometry import GridGeometry
from mpirecon.interpolation import InterpolationScheme
from mpirecon.solvers import conjugate_gradient

grid = GridGeometry(shape=(100, 100), spacing=(1.0, 1.0), origin=(0.0, 0.0))
rng = np.random.default_rng(3)
positions = rng.uniform(0.0, 99.0, size=(40_000, 2))
velocities = rng.normal(size=(40_000, 2))
values = rng.normal(size=(40_000, 2))
config = CoreStageConfig(grid=grid, gamma=1e-6, cg_tolerance=1e-6, cg_max_iterations=400)
inside = grid.contains(positions)
args = (grid, positions, velocities, values, inside, InterpolationScheme())
sums, rhs = _normal_equations(*args)
serial_sums, serial_rhs = serial_normal_equations(*args)
normal = _normal_matrix(grid, sums, config.gamma)
want = [
    conjugate_gradient(normal.dot, b, config.cg_tolerance, config.cg_max_iterations) for b in rhs
]
runs = [solve_core_stage(values, positions, velocities, config) for _ in range(2)]
print(json.dumps({
    "pass_bit_equal": sums.tobytes() == serial_sums.tobytes()
    and [b.tobytes() for b in rhs] == [b.tobytes() for b in serial_rhs],
    "iterations": [w.iterations for w in want],
    "bit_equal": [
        [run.cg[row].x.tobytes() == w.x.tobytes() and run.cg[row].residuals == w.residuals
         for row, w in zip(config.rows, want)]
        for run in runs
    ],
}))
"""


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("row", [0, 1])
def test_a_row_whose_equations_overflow_raises_naming_it(row):
    # the row's right-hand side has a norm past float64's range, so its
    # CG stops at a nan residual, and the error names that row
    grid, values, positions, velocities = small_two_row_instance()
    cfg = CoreStageConfig(grid=grid, gamma=1e-3)
    values[:, row] *= 1e300
    with pytest.raises(ValueError, match=rf"^core-stage CG for row {row} stopped at relative "
                                         r"residual nan after 0 iterations: the normal "
                                         r"equations overflow$"):
        solve_core_stage(values, positions, velocities, cfg)


class RowAbort(BaseException):
    """A row solve's failure that is not an ``Exception``."""


class TestConcurrentRows:
    """The second row's CG runs on one worker thread; what the caller sees
    is what solving the rows in turn gives."""

    @pytest.mark.parametrize("rows", [(0, 1), (1, 0)])
    def test_non_convergence_warnings_reach_the_caller_in_row_order(self, rows):
        grid, values, positions, velocities = small_two_row_instance()
        cfg = CoreStageConfig(grid=grid, gamma=1e-3, cg_max_iterations=1, rows=rows)
        before = threading.active_count()
        with pytest.warns(UserWarning, match="core-stage CG") as record:
            solve_core_stage(values, positions, velocities, cfg)
        assert [str(w.message).split(" stopped")[0] for w in record] == [
            f"core-stage CG for row {row}" for row in rows
        ]
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "failing, error",
        [(1, RuntimeError), (0, RuntimeError), (1, RowAbort)],
        ids=["extra-thread", "caller", "extra-thread-base-exception"],
    )
    def test_a_row_solve_failure_reaches_the_caller(self, monkeypatch, failing, error):
        # a zero signal column gives that row the zero right-hand side
        grid, values, positions, velocities = small_two_row_instance()
        values[:, failing] = 0.0
        real = core_stage.conjugate_gradient
        finished = []

        def fail_on_zero(operator, b, *args):
            if not b.any():
                raise error(f"no data for column {failing}")
            time.sleep(0.05)  # still running when the other row fails
            result = real(operator, b, *args)
            finished.append(result)
            return result

        monkeypatch.setattr(core_stage, "conjugate_gradient", fail_on_zero)
        before = threading.active_count()
        with pytest.raises(error, match=f"^no data for column {failing}$"):
            solve_core_stage(values, positions, velocities, CoreStageConfig(grid=grid, gamma=1e-3))
        # the other row's solve ended before the failure reached the caller
        assert len(finished) == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("rows", [(0, 1), (1,)])
    def test_rows_minus_one_extra_threads(self, monkeypatch, rows):
        grid, values, positions, velocities = small_two_row_instance()
        real = core_stage.conjugate_gradient
        threads = []

        def recording(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(core_stage, "conjugate_gradient", recording)
        cfg = CoreStageConfig(grid=grid, gamma=1e-3, rows=rows)
        solve_core_stage(values[:, : len(rows)], positions, velocities, cfg)
        assert threading.current_thread() in threads
        assert len(set(threads)) == len(threads) == len(rows)

    def test_bit_equal_to_row_by_row_under_frequent_thread_switches(self):
        grid, values, positions, velocities = small_two_row_instance()
        cfg = CoreStageConfig(grid=grid, gamma=1e-3, cg_tolerance=1e-10)
        inside = grid.contains(positions)
        sums, rhs = _normal_equations(
            grid, positions, velocities, values, inside, InterpolationScheme()
        )
        normal = _normal_matrix(grid, sums, cfg.gamma)
        want = [conjugate_gradient(normal.dot, b, cfg.cg_tolerance, 1000) for b in rhs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [solve_core_stage(values, positions, velocities, cfg) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            for row, w in zip(cfg.rows, want):
                assert run.cg[row].iterations == w.iterations > 10
                assert run.cg[row].x.tobytes() == w.x.tobytes()

    def test_bit_equal_to_row_by_row_at_two_blas_threads(self):
        # On a one-core host OpenBLAS runs one thread whatever is asked,
        # so there this test cannot fail; it is not skipped, since at one
        # BLAS thread the comparison still holds.
        here = os.path.dirname(__file__)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, "..", "src"), here]))
        env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
        done = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["pass_bit_equal"]
        assert min(result["iterations"]) > 50
        assert result["bit_equal"] == [[True, True], [True, True]]


class PassAbort(BaseException):
    """A block's failure that is not an ``Exception``."""


def pipelined_instance(dropped):
    """300 samples on a 6 x 6 grid, 43 blocks at ``GRAM_BLOCK = 7``; with
    ``dropped`` every 3rd sample lies outside the grid hull."""
    grid = GridGeometry(shape=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    rng = np.random.default_rng(11)
    positions = rng.uniform(0.0, 5.0, size=(300, 2))
    if dropped:
        positions[::3] += 10.0
    velocities = rng.normal(size=(300, 2))
    values = rng.normal(size=(300, 2))
    return grid, positions, velocities, values, grid.contains(positions)


class TestPipelinedPass:
    """A worker prepares block k + 1 while the caller adds block k; the
    sums and right-hand sides keep the bits of the serial pass."""

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("dropped", [False, True], ids=["all-kept", "every-3rd-dropped"])
    def test_bit_equal_to_the_serial_pass_under_frequent_thread_switches(
        self, monkeypatch, dropped, columns
    ):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid, positions, velocities, values, inside = pipelined_instance(dropped)
        args = (grid, positions, velocities, values[:, :columns], inside, InterpolationScheme())
        want_sums, want_rhs = serial_normal_equations(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_normal_equations(*args) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for sums, rhs in runs:
            assert sums.tobytes() == want_sums.tobytes()
            assert len(rhs) == len(want_rhs) == columns
            assert all(b.tobytes() == w.tobytes() for b, w in zip(rhs, want_rhs))

    def test_blocks_are_prepared_on_one_worker_thread(self, monkeypatch):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid, positions, velocities, values, inside = pipelined_instance(False)
        real = core_stage.interp_weights
        seen = []

        def recording(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return real(*args)

        monkeypatch.setattr(core_stage, "interp_weights", recording)
        before = threading.active_count()
        _normal_equations(grid, positions, velocities, values, inside, InterpolationScheme())
        assert len(seen) == 43
        assert len({thread for thread, _ in seen}) == 1
        assert seen[0][0] is not threading.current_thread()
        assert {count for _, count in seen} == {before + 1}
        assert threading.active_count() == before

    def test_no_kept_sample_starts_no_thread(self):
        grid, positions, velocities, values, _ = pipelined_instance(False)
        before = threading.active_count()
        sums, rhs = _normal_equations(
            grid, positions, velocities, values, np.zeros(300, bool), InterpolationScheme()
        )
        assert threading.active_count() == before
        assert not sums.any() and not any(b.any() for b in rhs)

    @pytest.mark.parametrize("error", [RuntimeError, PassAbort])
    def test_a_block_failure_reaches_the_caller(self, monkeypatch, error):
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid, positions, velocities, values, _ = pipelined_instance(False)
        real = core_stage.interp_weights
        calls = []
        raised = error("third block")

        def fail_on_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise raised
            return real(*args)

        monkeypatch.setattr(core_stage, "interp_weights", fail_on_third)
        before = threading.active_count()
        with pytest.raises(error) as caught:
            solve_core_stage(values, positions, velocities, CoreStageConfig(grid=grid, gamma=1e-3))
        assert caught.value is raised
        # no block is prepared past the failing one
        assert len(calls) == 3
        assert threading.active_count() == before


class TestExtract:
    def make_field(self, rows=(0, 1)):
        grid, config, spec = dense_scan(9, 8, 9.0, 8.0)
        rho = np.zeros(grid.shape)
        rho[4, 4] = 1.0
        traj = lissajous(config)
        sig = simulate_signal(ConcentrationImage(rho, grid), traj, spec, config)
        cols = [list(range(2)).index(r) for r in rows]
        sol = solve_core_stage(
            sig.values[:, cols], traj.positions, traj.velocities,
            CoreStageConfig(grid=grid, rows=rows),
        )
        return sol.field

    def test_trace_is_diagonal_sum(self):
        field = self.make_field()
        assert np.allclose(extract_trace(field), field.entry(0, 0) + field.entry(1, 1))

    def test_trace_on_partial_field_rejected(self):
        field = self.make_field(rows=(0,))
        with pytest.raises(ValueError, match="partial data"):
            extract_trace(field)

    def test_extract_entry_partial_rows(self):
        field = self.make_field(rows=(0,))
        assert field.entry(0, 0).shape == field.geometry.shape
        assert field.entry(0, 1).shape == field.geometry.shape
        with pytest.raises(KeyError):
            field.entry(1, 1)
