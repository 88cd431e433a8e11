"""Closed-form Langevin-model quantities.

The magnetization response of superparamagnetic particles in the
equilibrium (Langevin) approximation induces a matrix-valued convolution
kernel in field space.  This module evaluates the Langevin function and
its derivative, the saturation field scale of a particle ensemble, the
matrix kernel and its trace, and samples either of them on a regular
reconstruction grid.

All evaluations work in normalized field coordinates ``y / h`` to avoid
overflow; ``h`` (ampere per meter) rescales the kernel resolution and is
usually the saturation field of the particles.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import GridGeometry

BOLTZMANN_CONSTANT = 1.38064852e-23  # J/K
VACUUM_PERMEABILITY = 4.0e-7 * np.pi  # H/m

# Below this argument magnitude the closed forms give way to truncated
# series.  Near the switch L, L' and L/z keep about 2e-12 relative error on
# the closed-form side and 3e-13 on the series side.  The rank-one weight
# (L' - L/z)/z^2 is a 0/0 cancellation: just above the cutoff it keeps
# about 5e-8 relative error (5e-9 below it, from the series tail).  The
# kernel scales that weight by |y/h|^2 <= 4e-4 there, so diagonal entries
# stay near 1e-12 relative, while off-diagonal entries, which are the
# rank-one part alone, carry the 5e-8.
TAYLOR_CUTOFF = 2e-2


@dataclasses.dataclass(frozen=True)
class ParticleModel:
    """Physical parameters of the particle ensemble (all strictly positive)."""

    temperature: float  # K
    saturation_magnetization: float  # J/(m^3 T)
    core_diameter: float  # m

    def __post_init__(self):
        for name in dataclasses.fields(self):
            value = getattr(self, name.name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"ParticleModel.{name.name} must be strictly positive, got {value}")


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """Resolution scale ``h`` (A/m) of the 2D kernel."""

    h: float

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValueError(f"kernel resolution h must be positive, got {self.h}")


def saturation_field(model: ParticleModel) -> float:
    """Saturation field of the ensemble in A/m.

    ``k_b T / (mu0 M_sat (pi/6) d^3)``: thermal energy over the magnetic
    energy of one particle core per unit field.
    """
    core_volume = (np.pi / 6.0) * model.core_diameter**3
    return float(
        BOLTZMANN_CONSTANT
        * model.temperature
        / (VACUUM_PERMEABILITY * model.saturation_magnetization * core_volume)
    )


def _taylor_split(z, closed_form, series):
    """``closed_form`` where ``|z| >= TAYLOR_CUTOFF`` (and at inf and NaN),
    the truncated ``series`` below; a float for a scalar ``z``."""
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = np.abs(z) < TAYLOR_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[~small] = closed_form(z[~small])
    out[small] = series(z[small])
    return float(out[0]) if scalar else out


def langevin(z):
    """Langevin function ``coth(z) - 1/z``: odd, bounded by 1 in magnitude,
    saturating to +-1 for large arguments."""
    return _taylor_split(
        z,
        lambda z: 1.0 / np.tanh(z) - 1.0 / z,
        lambda z: z / 3.0 - z**3 / 45.0 + 2.0 * z**5 / 945.0,
    )


def langevin_prime(z):
    """Derivative of the Langevin function, ``1/z^2 - 1/sinh(z)^2``: even,
    with values in (0, 1/3] and the limit 1/3 at zero.  For very large
    arguments ``sinh^2`` overflows to inf, leaving ``1/z^2``."""
    return _taylor_split(
        z,
        lambda z: 1.0 / z**2 - 1.0 / np.sinh(z) ** 2,
        lambda z: 1.0 / 3.0 - z**2 / 15.0 + 2.0 * z**4 / 189.0,
    )


def _langevin_over_z(z):
    """``L(z)/z``, the weight of the isotropic part."""
    return _taylor_split(
        z,
        lambda z: (1.0 / np.tanh(z) - 1.0 / z) / z,
        lambda z: 1.0 / 3.0 - z**2 / 45.0 + 2.0 * z**4 / 945.0,
    )


def _anisotropic_coefficient(z):
    """``(L'(z) - L(z)/z) / z^2``, the weight of the rank-one part; a 0/0
    cancellation near zero (see ``TAYLOR_CUTOFF``)."""
    return _taylor_split(
        z,
        lambda z: (langevin_prime(z) - _langevin_over_z(z)) / z**2,
        lambda z: -2.0 / 45.0 + 8.0 * z**2 / 945.0,
    )


def _normalized_field(y, spec: KernelSpec):
    """``(y/h, |y/h|)`` with at least one batch axis; single shared code
    path so that identities between kernel flavours hold bit-for-bit."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != 2:
        raise ValueError(f"expected trailing axis of size 2, got shape {y.shape}")
    yh = np.atleast_2d(y) / spec.h
    return yh, np.linalg.norm(yh, axis=-1)


def kernel_matrix(y, spec: KernelSpec) -> np.ndarray:
    """Matrix-valued kernel at field offset ``y`` (A/m), rescaled by ``h``.

    Eigenvalue ``L'(|y/h|)`` along ``y``, ``L(|y/h|)/|y/h|`` on the
    orthogonal complement, both divided by ``h``; continuous limit
    ``I/(3h)`` at the origin.  Symmetric positive semidefinite.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ValueError(f"expected field vector of shape (2,), got {y.shape}")
    yh, z = _normalized_field(y, spec)
    iso = _langevin_over_z(z)[0]
    aniso = _anisotropic_coefficient(z)[0]
    return (iso * np.eye(2) + aniso * np.outer(yh[0], yh[0])) / spec.h


def kernel_entry(y, row: int, col: int, spec: KernelSpec):
    """Single entry of the matrix kernel; ``y`` may carry leading batch axes."""
    if not (0 <= row < 2 and 0 <= col < 2):
        raise IndexError(f"entry ({row}, {col}) out of range for dimension 2")
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    yh, z = _normalized_field(y, spec)
    aniso = _anisotropic_coefficient(z)
    value = aniso * yh[..., row] * yh[..., col]
    if row == col:
        value = value + _langevin_over_z(z)
    value = value / spec.h
    return float(value[0]) if scalar else value


def trace_kernel(y, spec: KernelSpec):
    """Trace of the matrix kernel: ``(L'(z) + L(z)/z) / h`` with
    ``z = |y/h|``.

    Radially symmetric, strictly positive, peaking at ``2/(3h)`` in the
    origin.  ``y`` may carry leading batch axes.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    _, z = _normalized_field(y, spec)
    value = (langevin_prime(z) + _langevin_over_z(z)) / spec.h
    return float(value[0]) if scalar else value


def _wrap_offsets(n: int) -> np.ndarray:
    """Signed pixel offsets in circular-convolution order: 0, 1, ..., -1."""
    k = np.arange(n)
    return np.where(k <= (n - 1) // 2, k, k - n)


def check_kernel_scale(grid: GridGeometry, spec: KernelSpec, gradient) -> np.ndarray:
    """Raise ``ValueError`` when ``|y/h|`` overflows at the largest field
    offset of ``grid``'s pixel-offset lattice, where sampling the kernel
    would overflow; returns ``gradient`` as a flat 2-vector.  The rule
    ``discretize_kernel`` applies, evaluated without sampling."""
    gradient = np.asarray(gradient, dtype=float).reshape(-1)
    if gradient.shape != (2,):
        raise ValueError(f"expected 2 gradient diagonal entries, got {gradient.shape}")
    largest = [
        np.abs(_wrap_offsets(n)).max() * spacing * abs(g)
        for n, spacing, g in zip(grid.shape[::-1], grid.spacing, gradient)
    ]
    with np.errstate(over="ignore"):
        _, z = _normalized_field(largest, spec)
    if not np.isfinite(z[0]):
        raise ValueError(
            f"kernel resolution h = {spec.h!r} A/m is too small for the grid: its largest "
            f"field offset ({largest[0]:.6g}, {largest[1]:.6g}) A/m overflows in units of h"
        )
    return gradient


def discretize_kernel(
    grid: GridGeometry,
    spec: KernelSpec,
    entry_selector,
    gradient,
) -> np.ndarray:
    """Sample a kernel entry on the pixel-offset lattice of ``grid``.

    ``entry_selector`` is the string ``"trace"`` or a ``(row, col)`` pair.
    ``gradient`` holds the per-axis diagonal entries of the selection-field
    gradient in (A/m)/m; pixel offsets are mapped to field space through it
    before evaluation.  The returned image has the same pixel count as the
    grid, with the kernel peak on the zero-shift pixel ``[0, 0]`` of the
    circular-convolution convention (values are raw kernel samples, no
    pixel-area factor).
    """
    gradient = check_kernel_scale(grid, spec, gradient)
    h_pix, w_pix = grid.shape
    off_x = _wrap_offsets(w_pix) * grid.spacing[0] * gradient[0]
    off_y = _wrap_offsets(h_pix) * grid.spacing[1] * gradient[1]
    field = np.stack(np.meshgrid(off_x, off_y), axis=-1)  # (H, W, 2)
    if entry_selector == "trace":
        return trace_kernel(field, spec)
    row, col = entry_selector
    return kernel_entry(field, int(row), int(col), spec)
