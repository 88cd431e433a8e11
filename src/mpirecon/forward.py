"""Forward simulation of FFP scan signals from a known concentration.

The induced signal is modeled as the core operator field (concentration
convolved with the matrix kernel) evaluated along the trajectory and
projected on the FFP velocity, channel by channel.  The proportionality
constant of the physical signal chain is fixed to one: reconstructions
are defined up to positive scale and all comparisons normalize first.

All convolutions are circular (periodic); phantoms are expected to keep
a zero margin inside their grid to suppress wrap-around.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import ConcentrationImage, GridGeometry
from .interpolation import InterpolationScheme, interpolation_matrix
from .kernels import KernelSpec, discretize_kernel
from .scanner import ScannerConfig, Trajectory


def nonuniform_stamps(times: np.ndarray, step: float) -> np.ndarray:
    """Indices k whose step ``t[k] - t[k-1]`` differs from ``step`` by more
    than 1e-6 relative (a NaN step included).  Stamps ``T k / L`` round to
    about 1e-10 relative at 640k samples."""
    return np.flatnonzero(~(np.abs(np.diff(times) - step) <= 1e-6 * step)) + 1


# a signal's time step is t[1] - t[0]
MIN_SAMPLES = 2


@dataclasses.dataclass
class ScanSignal:
    """Per-channel time series with the time stamps it was sampled at: two
    channels (x and y), or one for partial data (the measured row).  The
    stamps increase in uniform steps, checked here once for simulated and
    loaded signals alike."""

    values: np.ndarray  # (L, C), C in {1, 2}
    times: np.ndarray  # (L,) s

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] not in (1, 2):
            raise ValueError(
                f"signal values must be a (samples, 1 or 2 channels) array, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal carries non-finite values")
        if self.times.shape != (self.n_samples,) or self.n_samples < MIN_SAMPLES:
            raise ValueError(
                f"signal needs one time stamp per sample and at least {MIN_SAMPLES} samples, got "
                f"{self.times.shape} stamps for {self.n_samples} samples"
            )
        step = self.times[1] - self.times[0]
        if not step > 0:
            raise ValueError(f"signal time stamps must increase, got t[1] - t[0] = {step:g}")
        bad = nonuniform_stamps(self.times, step)
        if bad.size:
            raise ValueError(f"non-uniform time stamps at t[{bad[0]}]")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclasses.dataclass
class CoreOperatorField:
    """Grid of 2 x 2 matrices stored entry-wise as scalar images.

    ``populated_rows`` marks which matrix rows carry data; partial
    reconstructions populate a subset.  Entries built by forward
    convolution share arrays across the symmetric pair (row, col) and
    (col, row).
    """

    entries: dict
    geometry: GridGeometry
    populated_rows: tuple

    def entry(self, row: int, col: int) -> np.ndarray:
        key = (row, col)
        if key not in self.entries:
            raise KeyError(f"core-operator entry {key} is not populated")
        return self.entries[key]

    def has_entry(self, row: int, col: int) -> bool:
        return (row, col) in self.entries


def fft_convolve(image: np.ndarray, kernel_image: np.ndarray, pixel_area: float) -> np.ndarray:
    """Circular convolution scaled by the pixel area, so the result
    approximates the continuous convolution integral."""
    if image.shape != kernel_image.shape:
        raise ValueError(f"image {image.shape} and kernel {kernel_image.shape} differ in shape")
    return np.fft.irfft2(
        np.fft.rfft2(image) * np.fft.rfft2(kernel_image), s=image.shape
    ) * pixel_area


def core_operator(
    rho: ConcentrationImage, spec: KernelSpec, config: ScannerConfig
) -> CoreOperatorField:
    """Convolve the concentration with every matrix-kernel entry.

    Pixel offsets are mapped to field units through the gradient before
    kernel evaluation; the kernel symmetry is exploited by computing each
    unordered entry pair once.
    """
    grid = rho.geometry
    gradient = config.gradient_field()
    entries = {}
    for row in range(2):
        for col in range(row, 2):
            kernel_img = discretize_kernel(grid, spec, (row, col), gradient)
            entries[(row, col)] = fft_convolve(rho.values, kernel_img, grid.pixel_area)
            if col != row:
                entries[(col, row)] = entries[(row, col)]
    return CoreOperatorField(entries=entries, geometry=grid, populated_rows=(0, 1))


def simulate_signal(
    rho: ConcentrationImage,
    trajectory: Trajectory,
    spec: KernelSpec,
    config: ScannerConfig,
    interpolation: InterpolationScheme | None = None,
) -> ScanSignal:
    """Evaluate the core operator along the trajectory and project on the
    velocity: ``s_i(t_k) = sum_j I[A_ij](r_k) v_j(k)``.  Channel i is row i
    of the core operator: the receive chain is the identity.

    The signal carries the trajectory's own time stamps, decimated or read
    from a file alike; of ``config`` only the gradient is read."""
    if interpolation is None:
        interpolation = InterpolationScheme()
    grid = rho.geometry
    inside = grid.contains(trajectory.positions)
    if not np.all(inside):
        raise ValueError(
            f"{np.count_nonzero(~inside)} trajectory samples exit the image geometry"
        )
    field = core_operator(rho, spec, config)
    sample_matrix = interpolation_matrix(grid, trajectory.positions, interpolation)
    signal = np.zeros((len(trajectory), 2))
    # entry (1, 0) is entry (0, 1): sample it once for both channels
    for row, col in ((0, 0), (0, 1), (1, 1)):
        values = sample_matrix @ field.entry(row, col).ravel()
        signal[:, row] += values * trajectory.velocities[:, col]
        if col != row:
            signal[:, col] += values * trajectory.velocities[:, row]
    return ScanSignal(values=signal, times=trajectory.times)


def apply_analog_filter(signal: ScanSignal, kernel: np.ndarray) -> ScanSignal:
    """Circular convolution of each channel with one period of the analog
    filter kernel, computed in the Fourier domain.

    ``kernel`` is one series applied to every channel, or one per channel
    with shape (L, C).
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim == 1:
        kernel = np.repeat(kernel[:, None], signal.n_channels, axis=1)
    if kernel.shape != signal.values.shape:
        raise ValueError(
            f"filter kernel shape {kernel.shape} does not match signal {signal.values.shape}"
        )
    spectrum = np.fft.rfft(signal.values, axis=0) * np.fft.rfft(kernel, axis=0)
    out = np.fft.irfft(spectrum, n=signal.n_samples, axis=0)
    return ScanSignal(values=out, times=signal.times)


def add_noise(signal: ScanSignal, relative_level: float, rng_seed: int) -> ScanSignal:
    """Add white Gaussian noise with per-channel standard deviation
    ``relative_level`` times that channel's RMS; reproducible from the seed."""
    if relative_level < 0:
        raise ValueError("relative_level must be nonnegative")
    if relative_level == 0:
        return ScanSignal(values=signal.values.copy(), times=signal.times)
    rng = np.random.default_rng(rng_seed)
    rms = np.sqrt(np.mean(signal.values**2, axis=0))
    noise = rng.standard_normal(signal.values.shape) * (relative_level * rms)[None, :]
    return ScanSignal(values=signal.values + noise, times=signal.times)
