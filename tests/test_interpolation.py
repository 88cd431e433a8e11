"""Cosine/bilinear interpolation and its adjoint."""

import numpy as np
import pytest
from grid_oracle import interpolate, interpolation_adjoint

from mpirecon import interpolation
from mpirecon.geometry import GridGeometry
from mpirecon.interpolation import InterpolationScheme, interp_weights, interpolation_matrix

GRID = GridGeometry(shape=(9, 11), spacing=(0.5, 0.25), origin=(-1.0, -2.0))
COSINE = InterpolationScheme("cosine")
BILINEAR = InterpolationScheme("bilinear")


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

    @pytest.mark.parametrize(
        "grid", [GRID, GridGeometry.node_centered((24e-3, 24e-3), (100, 100))], ids=["9x11", "100"]
    )
    def test_raises_exactly_where_contains_rejects(self, grid):
        # contains widens the hull by 1e-12 m; a grid unit is 0.25 to 0.5 m
        # on 9 x 11 and 2.4e-4 m on 100 x 100
        h, w = grid.shape
        low = np.array(grid.origin)
        high = low + np.array(grid.spacing) * (w - 1, h - 1)
        for axis in range(2):
            for edge, outward in ((low, -1.0), (high, 1.0)):
                for distance in (0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-11, -1e-11):
                    point = (low + high) / 2
                    point[axis] = edge[axis] + outward * distance
                    if grid.contains(point)[0]:
                        interp_weights(grid, point, COSINE)
                    else:
                        assert distance > 1e-12
                        with pytest.raises(ValueError, match="^interpolation point outside"):
                            interp_weights(grid, point, COSINE)

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


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        InterpolationScheme("cubic")
