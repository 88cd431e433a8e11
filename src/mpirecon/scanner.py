"""FFP scanner geometry and scanning trajectories.

A field-free-point scanner superposes a static selection field with a
diagonal gradient on a spatially homogeneous drive field, so the applied
field is ``H(x, t) = G (x - r(t))`` with the field-free point ``r(t)``
tracing the scanning trajectory.  Gradient and drive amplitudes are
stored mu0-scaled (tesla per meter, tesla), the convention scanner data
sheets use; division by mu0 recovers A/m units.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .kernels import VACUUM_PERMEABILITY


@dataclasses.dataclass(frozen=True)
class ScannerConfig:
    """Static description of a 2D FFP scan sequence.

    gradient          -- (x, y) diagonal entries of mu0*G in T/m
    drive_amplitudes  -- (x, y) positive drive amplitudes in T (mu0-scaled)
    drive_frequencies -- (x, y) positive drive frequencies in Hz
    sample_rate       -- acquisition rate in Hz
    repetition_time   -- length of one drive period in s
    excitation_*      -- optional fast 1D excitation on x: positive amplitude
                         in T (mu0-scaled) and frequency in Hz, both set or
                         neither

    The receive chain is the identity: channel i records the signal of
    row i of the core operator.
    """

    gradient: tuple
    drive_amplitudes: tuple
    drive_frequencies: tuple
    sample_rate: float
    repetition_time: float
    excitation_amplitude: float | None = None
    excitation_frequency: float | None = None

    def __post_init__(self):
        for name in ("gradient", "drive_amplitudes", "drive_frequencies"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} needs an x and a y entry, got {getattr(self, name)}")
        g = np.asarray(self.gradient, dtype=float)
        if np.any(g == 0.0) or not np.all(np.isfinite(g)):
            raise ValueError("gradient diagonal entries must be nonzero and finite")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{field.name} must be finite, got {value}")
        # a zero entry collapses the trajectory onto a line
        for name in ("drive_amplitudes", "drive_frequencies"):
            if not np.all(np.asarray(getattr(self, name), dtype=float) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        n_samples = self.sample_rate * self.repetition_time
        if not 0 < n_samples < np.inf or (
            abs(n_samples - round(n_samples)) > 1e-9 * max(n_samples, 1.0)
        ):
            raise ValueError(
                "sample_rate * repetition_time must be a positive integer, "
                f"got {n_samples}"
            )
        if (self.excitation_amplitude is None) != (self.excitation_frequency is None):
            raise ValueError("excitation amplitude and frequency are set together or not at all")
        # a zero entry adds nothing to the trajectory
        for name in ("excitation_amplitude", "excitation_frequency"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def samples_per_period(self) -> int:
        return int(round(self.sample_rate * self.repetition_time))

    def gradient_field(self) -> np.ndarray:
        """Per-axis gradient diagonal in (A/m) per meter."""
        return np.asarray(self.gradient, dtype=float) / VACUUM_PERMEABILITY

    def position_amplitudes(self) -> np.ndarray:
        """Per-axis FFP excursion in meters: drive amplitude over |gradient|."""
        return np.asarray(self.drive_amplitudes, dtype=float) / np.abs(
            np.asarray(self.gradient, dtype=float)
        )


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Time-stamped 2D FFP positions and velocities (SI units)."""

    times: np.ndarray  # (L,) s
    positions: np.ndarray  # (L, 2) m
    velocities: np.ndarray  # (L, 2) m/s

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "velocities", np.asarray(self.velocities, dtype=float))
        expected = (self.times.shape[0], 2)
        for name in ("positions", "velocities"):
            shape = getattr(self, name).shape
            if shape != expected:
                raise ValueError(f"trajectory {name} must have shape {expected}, got {shape}")
        for name in ("times", "positions", "velocities"):
            finite = np.isfinite(getattr(self, name))
            if not finite.all():
                sample = np.argmin(finite.reshape(len(self.times), -1).all(axis=1))
                raise ValueError(f"trajectory {name} are not finite at sample {sample}")

    def __len__(self) -> int:
        return self.times.shape[0]


def _period_times(config: ScannerConfig) -> np.ndarray:
    n = config.samples_per_period
    return config.repetition_time * np.arange(n) / n


def lissajous(config: ScannerConfig) -> Trajectory:
    """Co-sinusoidal trajectory ``r_i(t) = A_i cos(2 pi f_i t)`` over one
    repetition period, with analytic velocities.

    Position amplitudes are the drive amplitudes divided by the absolute
    gradient entry per axis.
    """
    t = _period_times(config)
    amps = config.position_amplitudes()
    freqs = np.asarray(config.drive_frequencies, dtype=float)
    phase = 2.0 * np.pi * freqs[None, :] * t[:, None]
    positions = amps[None, :] * np.cos(phase)
    velocities = -2.0 * np.pi * freqs[None, :] * amps[None, :] * np.sin(phase)
    return Trajectory(times=t, positions=positions, velocities=velocities)


def excited_trajectory(config: ScannerConfig) -> Trajectory:
    """Sinusoidal trajectory with a fast 1D excitation superposed on x:
    ``r_x = A_x sin(2 pi f_x t) + A_e sin(2 pi f_e t)``,
    ``r_y = A_y sin(2 pi f_y t)``; analytic velocities."""
    if config.excitation_amplitude is None:
        raise ValueError("excitation amplitude and frequency must be set")
    t = _period_times(config)
    amps = config.position_amplitudes()
    freqs = np.asarray(config.drive_frequencies, dtype=float)
    a_exc = config.excitation_amplitude / abs(config.gradient[0])
    f_exc = config.excitation_frequency

    phase = 2.0 * np.pi * freqs[None, :] * t[:, None]
    positions = amps[None, :] * np.sin(phase)
    velocities = 2.0 * np.pi * freqs[None, :] * amps[None, :] * np.cos(phase)
    exc_phase = 2.0 * np.pi * f_exc * t
    positions[:, 0] += a_exc * np.sin(exc_phase)
    velocities[:, 0] += 2.0 * np.pi * f_exc * a_exc * np.cos(exc_phase)
    return Trajectory(times=t, positions=positions, velocities=velocities)


def trajectory_from_samples(positions: np.ndarray, times: np.ndarray) -> Trajectory:
    """Trajectory from sampled positions, velocities by forward differences.

    ``v_k = (r_{k+1} - r_k) / (t_{k+1} - t_k)``; the final sample repeats
    the last computed velocity so the trajectory keeps its length.
    """
    positions = np.asarray(positions, dtype=float)
    times = np.asarray(times, dtype=float)
    if positions.ndim != 2 or positions.shape[0] < 2:
        raise ValueError("need at least two position samples")
    if times.shape != (positions.shape[0],):
        raise ValueError("times must be one value per position sample")
    dt = np.diff(times)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    velocities = np.empty_like(positions)
    velocities[:-1] = np.diff(positions, axis=0) / dt[:, None]
    velocities[-1] = velocities[-2]
    return Trajectory(times=times, positions=positions, velocities=velocities)


def decimate(trajectory: Trajectory, keep_every: int) -> Trajectory:
    """Keep every ``keep_every``-th sample; velocities carry over unchanged
    (they were computed at the full rate first)."""
    if keep_every < 1:
        raise ValueError("keep_every must be at least 1")
    sl = slice(None, None, keep_every)
    return Trajectory(
        times=trajectory.times[sl],
        positions=trajectory.positions[sl],
        velocities=trajectory.velocities[sl],
    )
