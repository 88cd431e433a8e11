"""Regular 2D grids and scalar fields defined on them.

Conventions used throughout the package:

* images are row-major arrays indexed ``values[iy, ix]``,
* the physical position of pixel ``(iy, ix)`` is
  ``(origin[0] + ix * spacing[0], origin[1] + iy * spacing[1])``,
* positions are ``(x, y)`` vectors in meters.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class GridGeometry:
    """Pixel-center lattice of a regular 2D grid.

    shape   -- (height, width) pixel counts
    spacing -- (dx, dy) pixel spacing in meters
    origin  -- (x0, y0) physical position of pixel center (0, 0) in meters
    """

    shape: tuple[int, int]
    spacing: tuple[float, float]
    origin: tuple[float, float]

    def __post_init__(self):
        h, w = self.shape
        if h < 1 or w < 1:
            raise ValueError(f"degenerate grid shape {self.shape}")
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")
        if not np.all(np.isfinite((self.spacing, self.origin))):
            raise ValueError(
                f"grid spacing and origin must be finite, got {self.spacing} and {self.origin}"
            )

    @classmethod
    def node_centered(cls, extent: tuple[float, float], shape: tuple[int, int]) -> "GridGeometry":
        """Grid whose outermost pixel centers sit on the boundary of the
        centered window ``extent = (width_m, height_m)``."""
        h, w = shape
        ex, ey = extent
        dx = ex / (w - 1) if w > 1 else ex
        dy = ey / (h - 1) if h > 1 else ey
        return cls(shape=shape, spacing=(dx, dy), origin=(-ex / 2.0, -ey / 2.0))

    @property
    def pixel_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    @property
    def n_pixels(self) -> int:
        return self.shape[0] * self.shape[1]

    def x_coords(self) -> np.ndarray:
        return self.origin[0] + self.spacing[0] * np.arange(self.shape[1])

    def y_coords(self) -> np.ndarray:
        return self.origin[1] + self.spacing[1] * np.arange(self.shape[0])

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) position arrays of shape ``shape``."""
        return np.meshgrid(self.x_coords(), self.y_coords())

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points (L, 2) inside the pixel-center hull, widened
        by a fixed 1e-12 m against rounding."""
        atol = 1e-12
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x_lo, x_hi = self.origin[0], self.origin[0] + self.spacing[0] * (self.shape[1] - 1)
        y_lo, y_hi = self.origin[1], self.origin[1] + self.spacing[1] * (self.shape[0] - 1)
        return (
            (pts[:, 0] >= x_lo - atol)
            & (pts[:, 0] <= x_hi + atol)
            & (pts[:, 1] >= y_lo - atol)
            & (pts[:, 1] <= y_hi + atol)
        )


@dataclasses.dataclass
class ConcentrationImage:
    """Scalar concentration field on a regular grid.

    Generated phantoms are nonnegative; reconstructions may carry negative
    values until trimmed, so the sign is not checked.
    """

    values: np.ndarray
    geometry: GridGeometry

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.geometry.shape):
            raise ValueError(
                f"image shape {self.values.shape} does not match grid {self.geometry.shape}"
            )
