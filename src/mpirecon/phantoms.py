"""Binary phantom rasterization.

Shapes are described in millimeters and rasterized to 0/1 images by
pixel-center inclusion (half-open boxes, so abutting shapes do not
double-count boundary pixels).  Every shape must fit inside the grid
window, optionally keeping a clear margin to suppress wrap-around in
the periodic convolutions downstream.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import ConcentrationImage, GridGeometry

KINDS = ("empty", "dot", "two-bar", "snake", "ice-cream", "snail")

MM = 1e-3

# Fixed geometry of the composite phantoms, in millimeters; no config key
# reaches them.
SNAKE_LENGTHS_MM = (20.0, 17.5, 15.0, 8.75, 5.0)
SNAKE_WIDTH_MM = 2.5
CONE_HEIGHT_MM = 14.0
CONE_WIDTH_MM = 9.0
SCOOP_RADIUS_MM = 4.5
SNAIL_TURNS = 2.25
SNAIL_RADIUS_MM = 9.0
SNAIL_WIDTH_MM = 2.0


@dataclasses.dataclass(frozen=True)
class PhantomSpec:
    """Phantom kind, geometry in millimeters, and the target grid.

    dot:     square sample of ``dot_size_mm`` at ``dot_center_mm``
    two-bar: upright bars of lengths ``bar_lengths_mm`` and width
             ``bar_width_mm`` side by side, centers ``separation_mm``
             apart along x
    snake:   five rods of ``SNAKE_LENGTHS_MM`` and square cross-section
             ``SNAKE_WIDTH_MM`` in a winding layout
    ice-cream: downward cone topped by a disk, overall ``CONE_HEIGHT_MM``
    snail:   spiral polyline of ``SNAIL_TURNS`` turns and stroke width
             ``SNAIL_WIDTH_MM``

    Sizes and lengths are positive; a positive size below one pixel
    snaps to one pixel.  The composite kinds have the fixed sizes of the
    module constants.
    """

    kind: str
    grid: GridGeometry
    margin_mm: float = 0.0
    dot_center_mm: tuple = (6.0, 6.0)
    dot_size_mm: float = 1.5
    separation_mm: float = 3.0
    bar_lengths_mm: tuple = (20.0, 17.5)
    bar_width_mm: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown phantom kind {self.kind!r}; choose from {KINDS}")
        if self.margin_mm < 0:
            raise ValueError("margin_mm must be nonnegative")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name.endswith("_mm") and not np.all(np.isfinite(value)):
                raise ValueError(f"{field.name} must be finite, got {value}")
        for name in ("dot_size_mm", "bar_lengths_mm", "bar_width_mm"):
            if not np.all(np.asarray(getattr(self, name), dtype=float) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def _pixel_centers(grid: GridGeometry):
    return grid.meshgrid()  # (X, Y) in meters


def _check_bounds(grid: GridGeometry, margin_mm: float, x_lo, x_hi, y_lo, y_hi):
    """Shape bounding box (meters) must fit inside the grid window minus
    the margin."""
    margin = margin_mm * MM
    gx_lo = grid.origin[0] - grid.spacing[0] / 2.0 + margin
    gx_hi = grid.origin[0] + grid.spacing[0] * (grid.shape[1] - 0.5) - margin
    gy_lo = grid.origin[1] - grid.spacing[1] / 2.0 + margin
    gy_hi = grid.origin[1] + grid.spacing[1] * (grid.shape[0] - 0.5) - margin
    if x_lo < gx_lo or x_hi > gx_hi or y_lo < gy_lo or y_hi > gy_hi:
        raise ValueError(
            f"shape spans x [{x_lo / MM:.2f}, {x_hi / MM:.2f}] mm, "
            f"y [{y_lo / MM:.2f}, {y_hi / MM:.2f}] mm, outside the usable window"
        )


def _box(grid, mask, center_mm, size_mm, margin_mm):
    cx, cy = center_mm[0] * MM, center_mm[1] * MM
    wx, wy = size_mm[0] * MM, size_mm[1] * MM
    _check_bounds(grid, margin_mm, cx - wx / 2, cx + wx / 2, cy - wy / 2, cy + wy / 2)
    x, y = grid.x_coords(), grid.y_coords()
    # nudge the half-open box so edges landing exactly on pixel centers
    # resolve deterministically under float rounding
    ex = 1e-6 * grid.spacing[0]
    ey = 1e-6 * grid.spacing[1]
    in_x = (x >= cx - wx / 2 - ex) & (x < cx + wx / 2 - ex)
    in_y = (y >= cy - wy / 2 - ey) & (y < cy + wy / 2 - ey)
    # sub-pixel extents snap to the nearest pixel line instead of vanishing
    if not in_x.any():
        in_x[np.argmin(np.abs(x - cx))] = True
    if not in_y.any():
        in_y[np.argmin(np.abs(y - cy))] = True
    mask |= in_y[:, None] & in_x[None, :]


def _disk(grid, mask, center_mm, radius_mm, margin_mm):
    cx, cy, r = center_mm[0] * MM, center_mm[1] * MM, radius_mm * MM
    _check_bounds(grid, margin_mm, cx - r, cx + r, cy - r, cy + r)
    X, Y = _pixel_centers(grid)
    mask |= (X - cx) ** 2 + (Y - cy) ** 2 <= r**2


def _two_bar(spec: PhantomSpec, mask):
    sep = spec.separation_mm
    la, lb = spec.bar_lengths_mm
    w = spec.bar_width_mm
    _box(spec.grid, mask, (-sep / 2, 0.0), (w, la), spec.margin_mm)
    _box(spec.grid, mask, (+sep / 2, 0.0), (w, lb), spec.margin_mm)


def _snake(spec: PhantomSpec, mask):
    l1, l2, l3, l4, l5 = SNAKE_LENGTHS_MM
    w = SNAKE_WIDTH_MM
    top = l2 / 2
    # winding meander: horizontal rods joined by vertical connectors,
    # turning right-down-left-up-left
    _box(spec.grid, mask, (0.0, top - w / 2), (l1, w), spec.margin_mm)
    _box(spec.grid, mask, (l1 / 2 - w / 2, 0.0), (w, l2), spec.margin_mm)
    _box(spec.grid, mask, (l1 / 2 - l3 / 2, -(top - w / 2)), (l3, w), spec.margin_mm)
    _box(spec.grid, mask, (l1 / 2 - l3 + w / 2, -top + l4 / 2), (w, l4), spec.margin_mm)
    _box(spec.grid, mask, (l1 / 2 - l3 - l5 / 2 + w, -top + l4 - w / 2), (l5, w), spec.margin_mm)


def _ice_cream(spec: PhantomSpec, mask):
    h = CONE_HEIGHT_MM * MM
    w = CONE_WIDTH_MM * MM
    r = SCOOP_RADIUS_MM
    tip_y = -h / 2
    base_y = h / 2
    _check_bounds(spec.grid, spec.margin_mm, -w / 2, w / 2, tip_y, base_y)
    X, Y = _pixel_centers(spec.grid)
    frac = np.clip((Y - tip_y) / h, 0.0, 1.0)
    mask |= (Y >= tip_y) & (Y <= base_y) & (np.abs(X) <= frac * w / 2)
    _disk(spec.grid, mask, (0.0, base_y / MM + r * 0.6), r, spec.margin_mm)


def _snail(spec: PhantomSpec, mask):
    turns = SNAIL_TURNS
    r_max = SNAIL_RADIUS_MM * MM
    width = SNAIL_WIDTH_MM * MM
    _check_bounds(
        spec.grid, spec.margin_mm, -r_max - width / 2, r_max + width / 2,
        -r_max - width / 2, r_max + width / 2,
    )
    theta = np.linspace(0.0, 2 * np.pi * turns, max(32, int(256 * turns)))
    radius = r_max * theta / theta[-1]
    px, py = radius * np.cos(theta), radius * np.sin(theta)
    X, Y = _pixel_centers(spec.grid)
    hit = np.zeros(X.shape, dtype=bool)
    for cx, cy in zip(px, py):
        hit |= (X - cx) ** 2 + (Y - cy) ** 2 <= (width / 2) ** 2
    mask |= hit


def generate_phantom(spec: PhantomSpec) -> ConcentrationImage:
    """Rasterize the phantom as a binary concentration image."""
    mask = np.zeros(spec.grid.shape, dtype=bool)
    if spec.kind == "empty":
        pass
    elif spec.kind == "dot":
        _box(
            spec.grid,
            mask,
            spec.dot_center_mm,
            (spec.dot_size_mm, spec.dot_size_mm),
            spec.margin_mm,
        )
    elif spec.kind == "two-bar":
        _two_bar(spec, mask)
    elif spec.kind == "snake":
        _snake(spec, mask)
    elif spec.kind == "ice-cream":
        _ice_cream(spec, mask)
    elif spec.kind == "snail":
        _snail(spec, mask)
    return ConcentrationImage(values=mask.astype(float), geometry=spec.grid)
