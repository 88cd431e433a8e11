"""Phantom rasterization."""

import numpy as np
import pytest
from scipy.ndimage import label

from mpirecon.geometry import GridGeometry
from mpirecon.phantoms import PhantomSpec, generate_phantom

GRID = GridGeometry.node_centered((24e-3, 24e-3), (25, 25))


class TestDot:
    def test_offset_from_center(self):
        spec = PhantomSpec(kind="dot", grid=GRID, dot_center_mm=(6.0, 6.0), dot_size_mm=1.5)
        img = generate_phantom(spec)
        components, count = label(img.values > 0)
        assert count == 1
        ys, xs = np.nonzero(img.values)
        x_m = GRID.origin[0] + xs.mean() * GRID.spacing[0]
        y_m = GRID.origin[1] + ys.mean() * GRID.spacing[1]
        assert x_m == pytest.approx(6e-3, abs=GRID.spacing[0])
        assert y_m == pytest.approx(6e-3, abs=GRID.spacing[1])

    def test_binary_values(self):
        img = generate_phantom(PhantomSpec(kind="dot", grid=GRID))
        assert set(np.unique(img.values)) <= {0.0, 1.0}


class TestTwoBar:
    def test_components_at_pixel_separation(self):
        # 3 mm separation at 1 mm spacing: component centers 3 px apart
        spec = PhantomSpec(
            kind="two-bar",
            grid=GRID,
            separation_mm=3.0,
            bar_lengths_mm=(15.0, 15.0),
            bar_width_mm=1.0,
        )
        img = generate_phantom(spec)
        components, count = label(img.values > 0)
        assert count == 2
        centers = []
        for c in (1, 2):
            _, xs = np.nonzero(components == c)
            centers.append(xs.mean())
        assert abs(centers[1] - centers[0]) == pytest.approx(3.0, abs=1e-9)

    def test_unequal_lengths(self):
        spec = PhantomSpec(
            kind="two-bar",
            grid=GRID,
            separation_mm=6.0,
            bar_lengths_mm=(20.0, 10.0),
            bar_width_mm=0.9,
        )
        img = generate_phantom(spec)
        components, count = label(img.values > 0)
        assert count == 2
        sizes = sorted(np.sum(components == c) for c in (1, 2))
        assert sizes[0] < sizes[1]


class TestBounds:
    def test_empty_spec_gives_zero_image(self):
        img = generate_phantom(PhantomSpec(kind="empty", grid=GRID))
        assert np.count_nonzero(img.values) == 0

    def test_out_of_bounds_rejected(self):
        spec = PhantomSpec(kind="dot", grid=GRID, dot_center_mm=(20.0, 0.0))
        with pytest.raises(ValueError, match="outside"):
            generate_phantom(spec)

    def test_margin_enforced(self):
        ok = PhantomSpec(kind="dot", grid=GRID, dot_center_mm=(9.0, 0.0), dot_size_mm=2.0)
        generate_phantom(ok)
        tight = PhantomSpec(
            kind="dot", grid=GRID, dot_center_mm=(9.0, 0.0), dot_size_mm=2.0, margin_mm=4.0
        )
        with pytest.raises(ValueError):
            generate_phantom(tight)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("margin_mm", np.nan),
            ("dot_center_mm", (0.0, np.inf)),
            ("dot_size_mm", np.inf),
            ("separation_mm", np.nan),
            ("bar_lengths_mm", (np.nan, 12.0)),
            ("bar_width_mm", -np.inf),
        ],
    )
    def test_non_finite_size_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            PhantomSpec(kind="two-bar", grid=GRID, **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("dot_size_mm", 0.0),
            ("dot_size_mm", -1.0),
            ("dot_size_mm", -30.0),
            ("bar_width_mm", 0.0),
            ("bar_width_mm", -1.0),
            ("bar_lengths_mm", (-30.0, 12.0)),
            ("bar_lengths_mm", (12.0, 0.0)),
        ],
    )
    @pytest.mark.parametrize("kind", ["dot", "two-bar"])
    def test_size_that_is_not_positive_rejected(self, name, value, kind):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got"):
            PhantomSpec(kind=kind, grid=GRID, **{name: value})

    def test_positive_sub_pixel_size_snaps_to_one_pixel(self):
        for size in (1e-3, 0.5):
            spec = PhantomSpec(kind="dot", grid=GRID, dot_center_mm=(6.0, 6.0), dot_size_mm=size)
            assert generate_phantom(spec).values.sum() == 1.0
        bars = PhantomSpec(
            kind="two-bar", grid=GRID, bar_width_mm=1e-3, bar_lengths_mm=(1e-3, 1e-3)
        )
        assert generate_phantom(bars).values.sum() == 2.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(kind="triangle", grid=GRID)


class TestCompositePhantoms:
    def test_snake_is_connected(self):
        grid = GridGeometry.node_centered((34e-3, 30e-3), (61, 69))
        img = generate_phantom(PhantomSpec(kind="snake", grid=grid))
        components, count = label(img.values > 0)
        assert count == 1
        assert np.count_nonzero(img.values) > 50

    def test_ice_cream_has_cone_and_scoop(self):
        grid = GridGeometry.node_centered((30e-3, 30e-3), (61, 61))
        img = generate_phantom(PhantomSpec(kind="ice-cream", grid=grid))
        values = img.values
        assert np.count_nonzero(values) > 50
        # widens from the cone tip upward
        rows = np.count_nonzero(values, axis=1)
        tip = np.nonzero(rows)[0][0]
        mid = (tip + np.nonzero(rows)[0][-1]) // 2
        assert rows[mid] > rows[tip]

    def test_snail_spirals(self):
        grid = GridGeometry.node_centered((30e-3, 30e-3), (61, 61))
        img = generate_phantom(PhantomSpec(kind="snail", grid=grid))
        components, count = label(img.values > 0)
        assert count == 1
        # a spiral leaves background between its windings along a ray
        center = 30
        row = img.values[center, center:]
        transitions = np.count_nonzero(np.diff(row > 0))
        assert transitions >= 3
