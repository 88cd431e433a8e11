"""Scanner configuration, trajectories and field evaluation."""

import numpy as np
import pytest

from mpirecon.kernels import VACUUM_PERMEABILITY
from mpirecon.scanner import (
    ScannerConfig,
    Trajectory,
    decimate,
    excited_trajectory,
    field_at,
    lissajous,
    trajectory_from_samples,
)


def reference_config():
    """Preclinical-scanner parameters: 2.5 MHz base frequency with
    dividers 102/96, 12 mT drive, unit gradient, 1632 samples/period."""
    return ScannerConfig(
        gradient=(-1.0, -1.0),
        drive_amplitudes=(0.012, 0.012),
        drive_frequencies=(2.5e6 / 102, 2.5e6 / 96),
        sample_rate=2.5e6,
        repetition_time=6.528e-4,
    )


def excited_config(a_exc=2e-3):
    return ScannerConfig(
        gradient=(1.39, -3.16),
        drive_amplitudes=(0.012, 0.012),
        drive_frequencies=(50.0, 1.0),
        sample_rate=6e6,
        repetition_time=1.0,
        excitation_amplitude=a_exc,
        excitation_frequency=25e3,
    )


class TestScannerConfig:
    def test_samples_per_period(self):
        assert reference_config().samples_per_period == 1632

    def test_position_amplitudes(self):
        amps = reference_config().position_amplitudes()
        assert np.allclose(amps, [0.012, 0.012])  # 12 mm per axis, 24 mm FoV

    def test_rejects_zero_gradient(self):
        with pytest.raises(ValueError):
            ScannerConfig(
                gradient=(0.0, -1.0),
                drive_amplitudes=(0.012, 0.012),
                drive_frequencies=(1e3, 1e3),
                sample_rate=1e4,
                repetition_time=1e-2,
            )

    @pytest.mark.parametrize("name", ["gradient", "drive_amplitudes", "drive_frequencies"])
    def test_rejects_a_third_axis(self, name):
        fields = {
            "gradient": (-1.0, -1.0),
            "drive_amplitudes": (0.012, 0.012),
            "drive_frequencies": (1e3, 1e3),
        }
        fields[name] += fields[name][:1]
        with pytest.raises(ValueError, match=f"^{name} needs an x and a y entry"):
            ScannerConfig(sample_rate=1e4, repetition_time=1e-2, **fields)

    def test_rejects_fractional_samples_per_period(self):
        with pytest.raises(ValueError):
            ScannerConfig(
                gradient=(-1.0, -1.0),
                drive_amplitudes=(0.012, 0.012),
                drive_frequencies=(1e3, 1e3),
                sample_rate=1e4,
                repetition_time=1.05e-4,
            )


class TestLissajous:
    def test_starts_at_amplitude(self):
        traj = lissajous(reference_config())
        assert np.allclose(traj.positions[0], [0.012, 0.012], rtol=1e-15)

    def test_uniform_sampling(self):
        traj = lissajous(reference_config(), 1632)
        assert len(traj) == 1632
        dt = np.diff(traj.times)
        assert np.allclose(dt, 4e-7, rtol=1e-12)

    def test_positions_within_amplitude(self):
        traj = lissajous(reference_config(), 5000)
        amps = reference_config().position_amplitudes()
        assert np.all(np.abs(traj.positions) <= amps[None, :] + 1e-15)

    def test_velocities_are_analytic_derivative(self):
        config = reference_config()
        n = 1 << 20
        traj = lissajous(config, n)
        central = (traj.positions[2:] - traj.positions[:-2]) / (
            traj.times[2:, None] - traj.times[:-2, None]
        )
        scale = np.abs(traj.velocities).max()
        err = np.abs(central - traj.velocities[1:-1]).max()
        assert err / scale < 1e-8

    def test_forward_difference_convergence_order(self):
        config = reference_config()
        errs = []
        for n in (4096, 8192, 16384):
            traj = lissajous(config, n)
            resampled = trajectory_from_samples(traj.positions, traj.times)
            errs.append(np.abs(resampled.velocities[:-1] - traj.velocities[:-1]).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.95


class TestExcitedTrajectory:
    def test_zero_excitation_reduces_to_sinusoid(self):
        config = excited_config(a_exc=0.0)
        traj = excited_trajectory(config, 4096)
        amps = config.position_amplitudes()
        freqs = np.asarray(config.drive_frequencies)
        expected = amps[None, :] * np.sin(2 * np.pi * freqs[None, :] * traj.times[:, None])
        assert np.allclose(traj.positions, expected, atol=1e-15)

    def test_starts_at_origin(self):
        traj = excited_trajectory(excited_config(), 1024)
        assert np.allclose(traj.positions[0], [0.0, 0.0], atol=1e-15)

    def test_excitation_dominates_x_velocity(self):
        config = excited_config(a_exc=2e-3)
        traj = excited_trajectory(config, 1 << 16)
        a_x = config.position_amplitudes()[0]
        a_e = config.excitation_amplitude / abs(config.gradient[0])
        slow = 2 * np.pi * config.drive_frequencies[0] * a_x
        fast = 2 * np.pi * config.excitation_frequency * a_e
        assert fast > 50 * slow
        assert np.abs(traj.velocities[:, 0]).max() > 0.9 * fast

    def test_x_positions_bounded_by_combined_amplitude(self):
        config = excited_config()
        traj = excited_trajectory(config, 1 << 16)
        bound = config.position_amplitudes()[0] + config.excitation_amplitude / abs(
            config.gradient[0]
        )
        assert np.all(np.abs(traj.positions[:, 0]) <= bound + 1e-15)

    def test_requires_excitation_parameters(self):
        with pytest.raises(ValueError):
            excited_trajectory(reference_config(), 16)


class TestTrajectoryFromSamples:
    def test_linear_positions_give_constant_velocity(self):
        t = np.linspace(0.0, 1.0, 50)
        c = np.array([1.5, -2.0])
        traj = trajectory_from_samples(t[:, None] * c[None, :], t)
        assert np.allclose(traj.velocities, c[None, :], rtol=1e-12)

    def test_two_samples_duplicate_velocity(self):
        traj = trajectory_from_samples([[0.0, 0.0], [1.0, 2.0]], [0.0, 0.5])
        assert np.allclose(traj.velocities, [[2.0, 4.0], [2.0, 4.0]])

    def test_sinusoid_forward_difference_bound(self):
        f, amp, rate = 50.0, 3e-3, 6e6
        t = np.arange(30_000) / rate
        pos = np.stack([amp * np.sin(2 * np.pi * f * t), np.zeros_like(t)], axis=-1)
        traj = trajectory_from_samples(pos, t)
        analytic = 2 * np.pi * f * amp * np.cos(2 * np.pi * f * t)
        err = np.abs(traj.velocities[:-1, 0] - analytic[:-1]).max()
        # Taylor remainder bound, with headroom for float rounding of the
        # difference quotient (~ amp * eps / dt).
        assert err <= 2 * np.pi**2 * f**2 * amp / rate * (1 + 1e-6)

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError):
            trajectory_from_samples([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0.0, 0.2, 0.1])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            trajectory_from_samples([[0.0, 0.0]], [0.0])


class TestDecimate:
    def make(self, n):
        t = np.linspace(0.0, 1.0, n, endpoint=False)
        pos = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return trajectory_from_samples(pos, t)

    def test_identity(self):
        traj = self.make(100)
        out = decimate(traj, 1)
        assert np.array_equal(out.positions, traj.positions)
        assert np.array_equal(out.velocities, traj.velocities)

    def test_hundredfold(self):
        traj = self.make(60_000)
        out = decimate(traj, 100)
        assert len(out) == 600

    def test_velocities_carried_from_full_rate(self):
        traj = self.make(1000)
        out = decimate(traj, 7)
        assert np.array_equal(out.velocities, traj.velocities[::7])

    def test_composition_length(self):
        traj = self.make(10_000)
        a_then_b = decimate(decimate(traj, 4), 5)
        combined = decimate(traj, 20)
        assert abs(len(a_then_b) - len(combined)) <= 1

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            decimate(self.make(10), 0)


class TestFieldAt:
    def test_zero_at_ffp(self):
        config = reference_config()
        traj = lissajous(config, 64)
        assert np.allclose(field_at(config, traj.positions[10], 10, traj), 0.0)

    def test_diagonal_action(self):
        config = reference_config()
        traj = lissajous(config, 64)
        delta = np.array([2e-3, 0.0])
        h = field_at(config, traj.positions[3] + delta, 3, traj)
        assert h[1] == pytest.approx(0.0, abs=1e-12)
        assert h[0] == pytest.approx(-1.0 / VACUUM_PERMEABILITY * 2e-3, rel=1e-12)

    def test_millimetre_offset_gives_minus_one_millitesla(self):
        config = reference_config()
        traj = lissajous(config, 64)
        x = traj.positions[0] + np.array([1e-3, 0.0])
        h = field_at(config, x, 0, traj)
        assert h[0] * VACUUM_PERMEABILITY == pytest.approx(-1e-3, rel=1e-12)


class TestTrajectoryType:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.zeros(3),
                positions=np.zeros((3, 2)),
                velocities=np.zeros((2, 2)),
            )

    def test_third_axis_rejected(self):
        with pytest.raises(ValueError, match=r"positions must have shape \(4, 2\), got \(4, 3\)"):
            Trajectory(times=np.arange(4.0), positions=np.zeros((4, 3)),
                       velocities=np.zeros((4, 3)))

    @pytest.mark.parametrize("name", ["times", "positions", "velocities"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, name, bad):
        arrays = {
            "times": np.arange(4.0),
            "positions": np.zeros((4, 2)),
            "velocities": np.ones((4, 2)),
        }
        arrays[name][2, ...] = bad
        with pytest.raises(ValueError, match=f"trajectory {name} are not finite at sample 2"):
            Trajectory(**arrays)
