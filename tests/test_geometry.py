"""Grid geometry construction and containment."""

import numpy as np
import pytest

from mpirecon.geometry import ConcentrationImage, GridGeometry


class TestGridGeometry:
    def test_node_centered_spans_extent(self):
        grid = GridGeometry.node_centered((24e-3, 12e-3), (7, 13))
        x = grid.x_coords()
        y = grid.y_coords()
        assert x[0] == pytest.approx(-12e-3)
        assert x[-1] == pytest.approx(12e-3)
        assert y[0] == pytest.approx(-6e-3)
        assert y[-1] == pytest.approx(6e-3)

    def test_degenerate_spacing_rejected(self):
        with pytest.raises(ValueError):
            GridGeometry(shape=(5, 5), spacing=(0.0, 1.0), origin=(0.0, 0.0))

    @pytest.mark.parametrize(
        "spacing, origin", [((np.inf, 1.0), (0.0, 0.0)), ((1.0, 1.0), (0.0, np.nan))]
    )
    def test_non_finite_spacing_or_origin_rejected(self, spacing, origin):
        with pytest.raises(ValueError, match="^grid spacing and origin must be finite"):
            GridGeometry(shape=(5, 5), spacing=spacing, origin=origin)

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            GridGeometry(shape=(0, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))

    def test_contains(self):
        grid = GridGeometry(shape=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        points = np.array([[0.0, 0.0], [2.0, 2.0], [2.1, 0.0], [-0.1, 1.0], [1.0, 1.0]])
        assert np.array_equal(grid.contains(points), [True, True, False, False, True])

    def test_meshgrid_matches_coords(self):
        grid = GridGeometry(shape=(2, 3), spacing=(0.5, 0.25), origin=(1.0, -1.0))
        X, Y = grid.meshgrid()
        assert X.shape == (2, 3)
        assert X[0, 2] == pytest.approx(2.0)
        assert Y[1, 0] == pytest.approx(-0.75)


class TestConcentrationImage:
    def test_shape_mismatch_rejected(self):
        grid = GridGeometry(shape=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        with pytest.raises(ValueError):
            ConcentrationImage(values=np.zeros((2, 3)), geometry=grid)

