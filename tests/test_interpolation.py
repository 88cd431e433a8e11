"""Cosine/bilinear interpolation and its adjoint."""

import numpy as np
import pytest
from core_oracle import stencil_gram_bands
from grid_oracle import interpolate, interpolation_adjoint

from mpirecon import interpolation
from mpirecon.geometry import GridGeometry
from mpirecon.interpolation import (
    InterpolationScheme,
    add_stencil_products,
    interp_weights,
    interpolation_matrix,
    stencil_gram,
)

GRID = GridGeometry(shape=(9, 11), spacing=(0.5, 0.25), origin=(-1.0, -2.0))
COSINE = InterpolationScheme("cosine")
BILINEAR = InterpolationScheme("bilinear")


def blocked_gram(grid, pts, coefficients, scheme):
    """``stencil_gram`` of the stencil products added in blocks of
    ``GRAM_BLOCK``, in sample order, as the core stage adds them."""
    sums = np.zeros((1, 10, grid.n_pixels))
    for lo in range(0, len(pts), interpolation.GRAM_BLOCK):
        block = slice(lo, lo + interpolation.GRAM_BLOCK)
        indices, weights = interp_weights(grid, pts[block], scheme)
        add_stencil_products(sums, indices, weights, coefficients[None, block])
    return stencil_gram(grid, sums[0])


def random_points(rng, n):
    x = rng.uniform(GRID.origin[0], GRID.origin[0] + GRID.spacing[0] * (GRID.shape[1] - 1), n)
    y = rng.uniform(GRID.origin[1], GRID.origin[1] + GRID.spacing[1] * (GRID.shape[0] - 1), n)
    return np.stack([x, y], axis=-1)


class TestInterpolate:
    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_exact_at_nodes(self, scheme):
        rng = np.random.default_rng(0)
        field = rng.normal(size=GRID.shape)
        for iy, ix in [(0, 0), (3, 7), (8, 10), (4, 0)]:
            p = (GRID.origin[0] + ix * GRID.spacing[0], GRID.origin[1] + iy * GRID.spacing[1])
            assert interpolate(field, p, GRID, scheme) == pytest.approx(field[iy, ix], rel=1e-13)

    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_constant_field(self, scheme):
        field = np.full(GRID.shape, 3.25)
        pts = random_points(np.random.default_rng(1), 200)
        assert np.allclose(interpolate(field, pts, GRID, scheme), 3.25, rtol=1e-14)

    def test_midpoint_is_mean(self):
        field = np.zeros(GRID.shape)
        field[0, 0], field[0, 1] = 2.0, 6.0
        p = (GRID.origin[0] + 0.5 * GRID.spacing[0], GRID.origin[1])
        assert interpolate(field, p, GRID, COSINE) == pytest.approx(4.0, rel=1e-13)

    def test_weights_nonnegative_and_normalized(self):
        pts = random_points(np.random.default_rng(2), 500)
        for scheme in (COSINE, BILINEAR):
            _, w = interp_weights(GRID, pts, scheme)
            assert np.all(w >= 0)
            assert np.allclose(w.sum(axis=-1), 1.0, rtol=1e-14)

    def test_outside_hull_raises(self):
        field = np.zeros(GRID.shape)
        with pytest.raises(ValueError):
            interpolate(field, (GRID.origin[0] - 0.1, GRID.origin[1]), GRID, COSINE)

    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_weights_in_blocks_are_bit_equal_to_one_pass(self, scheme, monkeypatch):
        # 47 points: six blocks of 7 and a remainder of 5, hull corners included
        rng = np.random.default_rng(10)
        pts = random_points(rng, 47)
        x_end = GRID.origin[0] + GRID.spacing[0] * (GRID.shape[1] - 1)
        y_end = GRID.origin[1] + GRID.spacing[1] * (GRID.shape[0] - 1)
        pts[[0, 20, 46]] = [[x_end, y_end], [GRID.origin[0], y_end], [x_end, GRID.origin[1]]]
        whole = interp_weights(GRID, pts, scheme)
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        blocked = interp_weights(GRID, pts, scheme)
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        pts[40, 1] = y_end + 0.1  # in the last full block
        with pytest.raises(ValueError, match="^interpolation point outside the grid hull$"):
            interp_weights(GRID, pts, scheme)

    def test_hull_edge_ok(self):
        field = np.ones(GRID.shape)
        edge = (
            GRID.origin[0] + GRID.spacing[0] * (GRID.shape[1] - 1),
            GRID.origin[1] + GRID.spacing[1] * (GRID.shape[0] - 1),
        )
        assert interpolate(field, edge, GRID, COSINE) == pytest.approx(1.0)


class TestAdjoint:
    def test_node_point_scatters_to_single_node(self):
        p = (GRID.origin[0] + 2 * GRID.spacing[0], GRID.origin[1] + 5 * GRID.spacing[1])
        img = interpolation_adjoint([p], [2.5], GRID, COSINE)
        assert img[5, 2] == pytest.approx(2.5, rel=1e-14)
        assert np.count_nonzero(img) == 1

    def test_total_mass_preserved(self):
        pts = random_points(np.random.default_rng(3), 100)
        values = np.random.default_rng(4).normal(size=100)
        img = interpolation_adjoint(pts, values, GRID, COSINE)
        assert img.sum() == pytest.approx(values.sum(), rel=1e-12)

    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_dot_product_identity(self, scheme):
        rng = np.random.default_rng(5)
        for _ in range(20):
            field = rng.normal(size=GRID.shape)
            pts = random_points(rng, 50)
            values = rng.normal(size=50)
            lhs = np.dot(interpolate(field, pts, GRID, scheme), values)
            rhs = np.sum(field * interpolation_adjoint(pts, values, GRID, scheme))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMatrix:
    def test_matches_pointwise_interpolation(self):
        rng = np.random.default_rng(6)
        field = rng.normal(size=GRID.shape)
        pts = random_points(rng, 300)
        mat = interpolation_matrix(GRID, pts, COSINE)
        direct = interpolate(field, pts, GRID, COSINE)
        assert np.allclose(mat @ field.ravel(), direct, rtol=1e-14)

    def test_transpose_matches_adjoint(self):
        rng = np.random.default_rng(7)
        pts = random_points(rng, 100)
        values = rng.normal(size=100)
        mat = interpolation_matrix(GRID, pts, COSINE)
        scattered = (mat.T @ values).reshape(GRID.shape)
        direct = interpolation_adjoint(pts, values, GRID, COSINE)
        assert np.allclose(scattered, direct, atol=1e-15)

    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_stencil_gram_matches_dense_product(self, scheme):
        rng = np.random.default_rng(8)
        pts = random_points(rng, 200)
        # corners and far edges land in clamped cells
        x_end = GRID.origin[0] + GRID.spacing[0] * (GRID.shape[1] - 1)
        y_end = GRID.origin[1] + GRID.spacing[1] * (GRID.shape[0] - 1)
        pts[:3] = [[x_end, y_end], [GRID.origin[0], y_end], [x_end, GRID.origin[1]]]
        coefficients = rng.normal(size=200)
        mat = interpolation_matrix(GRID, pts, scheme)
        gram = blocked_gram(GRID, pts, coefficients, scheme)
        dense = mat.T.toarray() @ (coefficients[:, None] * mat.toarray())
        assert np.allclose(gram.toarray(), dense, rtol=0, atol=1e-13 * np.abs(dense).max())
        assert (gram != gram.T).nnz == 0
        w = GRID.shape[1]
        bands = {0, 1, w - 1, w, w + 1}
        assert set(np.abs(gram.tocoo().col - gram.tocoo().row)) <= bands

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_stencil_gram_is_bit_equal_to_the_per_pair_loop(self, scheme, seed):
        rng = np.random.default_rng(100 + seed)
        h, w = rng.integers(2, 13, size=2)
        grid = GridGeometry(shape=(h, w), spacing=(0.5, 0.25), origin=(-1.0, -2.0))
        n = int(rng.integers(1, 400))
        x_end = grid.origin[0] + grid.spacing[0] * (w - 1)
        y_end = grid.origin[1] + grid.spacing[1] * (h - 1)
        pts = np.stack([rng.uniform(grid.origin[0], x_end, n),
                        rng.uniform(grid.origin[1], y_end, n)], axis=-1)
        pts[: min(n, 2)] = [[x_end, y_end], [grid.origin[0], grid.origin[1]]][: min(n, 2)]
        coefficients = rng.normal(size=n) * rng.normal(size=n)
        mat = interpolation_matrix(grid, pts, scheme)
        gram = blocked_gram(grid, pts, coefficients, scheme)
        for offset, band in stencil_gram_bands(grid, mat, coefficients).items():
            assert gram.diagonal(offset).tobytes() == band.tobytes(), offset
            assert gram.diagonal(-offset).tobytes() == band.tobytes(), -offset

    @pytest.mark.parametrize("scheme", [COSINE, BILINEAR])
    def test_stencil_gram_sums_across_blocks_in_sample_order(self, scheme, monkeypatch):
        # six full blocks of 7 samples and a remainder of 5 on a 3 x 4 grid,
        # so every node collects samples from several blocks
        monkeypatch.setattr(interpolation, "GRAM_BLOCK", 7)
        grid = GridGeometry(shape=(3, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        rng = np.random.default_rng(9)
        pts = np.stack([rng.uniform(0, 3, 47), rng.uniform(0, 2, 47)], axis=-1)
        pts[:2] = [[3.0, 2.0], [0.0, 0.0]]
        coefficients = rng.normal(size=47) * rng.normal(size=47)
        mat = interpolation_matrix(grid, pts, scheme)
        gram = blocked_gram(grid, pts, coefficients, scheme)
        for offset, band in stencil_gram_bands(grid, mat, coefficients).items():
            assert gram.diagonal(offset).tobytes() == band.tobytes(), offset
            assert gram.diagonal(-offset).tobytes() == band.tobytes(), -offset


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        InterpolationScheme("cubic")
