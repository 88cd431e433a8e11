"""Core-stage solve: Laplacian regularizer, normal equations, round trips."""

import numpy as np
import pytest
import scipy.sparse as sp
from core_oracle import normal_operator
from grid_oracle import laplacian_apply

from mpirecon.core_stage import (
    CoreStageConfig,
    _apply_normal,
    _normal_blocks,
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
        with pytest.raises(ValueError):
            laplacian_matrix((2, 5))

    def test_matrix_matches_apply(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(6, 8))
        assert np.allclose(laplacian_via_matrix(field), laplacian_apply(field), rtol=1e-14)


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
    blocks = _normal_blocks(grid, mat, vel, gamma, reg, n_samples)
    oracle = normal_operator(mat, vel, gamma=gamma, reg=reg, n_kept=n_samples)
    return grid, blocks, oracle


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
            grid, blocks, oracle = random_normal_instance(rng, scheme, int(rng.integers(1, 40)))
            u = rng.normal(size=2 * grid.n_pixels)
            v = rng.normal(size=2 * grid.n_pixels)
            nu = _apply_normal(blocks, u)
            lhs = float(np.dot(nu, v))
            rhs = float(np.dot(u, _apply_normal(blocks, v)))
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10
            expected = oracle(u)
            assert np.linalg.norm(nu - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_blocks_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        _, blocks, _ = random_normal_instance(rng, InterpolationScheme(), 30)
        assert blocks[1][0] is blocks[0][1]
        for row in blocks:
            for block in row:
                assert (block != block.T).nnz == 0

    def test_no_kept_samples_leaves_regularizer(self):
        grid = GridGeometry(shape=(5, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        mat = sp.csr_matrix((0, grid.n_pixels))
        vel = np.zeros((0, 2))
        lap = laplacian_matrix(grid.shape)
        reg = (lap.T @ lap).tocsr()
        blocks = _normal_blocks(grid, mat, vel, 1e-3, reg, 0)
        oracle = normal_operator(mat, vel, gamma=1e-3, reg=reg, n_kept=0)
        u = np.random.default_rng(3).normal(size=2 * grid.n_pixels)
        expected = oracle(u)
        assert np.linalg.norm(_apply_normal(blocks, u) - expected) <= 1e-12 * np.linalg.norm(
            expected
        )


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
