"""Forward simulation: core operator, signal synthesis, filtering, noise."""

import dataclasses
import os

import numpy as np
import pytest
from grid_oracle import interpolate

from mpirecon.forward import (
    CoreOperatorField,
    ScanSignal,
    add_noise,
    apply_analog_filter,
    core_operator,
    fft_convolve,
    simulate_signal,
)
from mpirecon.geometry import ConcentrationImage, GridGeometry
from mpirecon.interpolation import InterpolationScheme, interpolation_matrix
from mpirecon.kernels import KernelSpec, discretize_kernel
from mpirecon.phantoms import generate_phantom
from mpirecon.pipeline import PipelineConfig
from mpirecon.scanner import ScannerConfig, Trajectory, decimate, lissajous

TWO_BAR_33 = os.path.join(os.path.dirname(__file__), "..", "configs", "two_bar_33.ini")


def desk_config():
    return ScannerConfig(
        gradient=(-1.0, -1.0),
        drive_amplitudes=(0.012, 0.012),
        drive_frequencies=(2.5e6 / 102, 2.5e6 / 96),
        sample_rate=2.5e6,
        repetition_time=6.528e-4,
    )


def sampled(config, n):
    """``config`` sampled ``n`` times per repetition period."""
    return dataclasses.replace(config, sample_rate=n / config.repetition_time)


def desk_grid(n=17):
    return GridGeometry.node_centered((24e-3, 24e-3), (n, n))


def desk_spec(grid, config, pixels=2.0):
    """Kernel resolution of ``pixels`` grid steps in field units."""
    field_step = abs(config.gradient_field()[0]) * grid.spacing[0]
    return KernelSpec(h=pixels * field_step)


def naive_circular_convolution(image, kernel, pixel_area):
    """Shift-and-add spatial convolution; independent of the FFT path."""
    out = np.zeros_like(image)
    h, w = image.shape
    for iy in range(h):
        for ix in range(w):
            if image[iy, ix] != 0.0:
                out += image[iy, ix] * np.roll(kernel, (iy, ix), axis=(0, 1))
    return out * pixel_area


class TestCoreOperator:
    def test_delta_reproduces_kernel_images(self):
        grid = desk_grid(17)
        config = desk_config()
        spec = desk_spec(grid, config)
        rho = np.zeros(grid.shape)
        rho[8, 8] = 1.0
        field = core_operator(ConcentrationImage(rho, grid), spec, config)
        for row in range(2):
            for col in range(2):
                kernel_img = discretize_kernel(grid, spec, (row, col), config.gradient_field())
                expected = np.roll(kernel_img, (8, 8), axis=(0, 1)) * grid.pixel_area
                assert np.allclose(field.entry(row, col), expected, rtol=1e-10, atol=1e-12)

    def test_zero_concentration(self):
        grid = desk_grid(9)
        config = desk_config()
        field = core_operator(
            ConcentrationImage(np.zeros(grid.shape), grid), desk_spec(grid, config), config
        )
        assert np.allclose(field.values, 0.0, atol=1e-15)

    def test_two_deltas_match_naive_convolution(self):
        grid = desk_grid(16)
        config = desk_config()
        spec = desk_spec(grid, config)
        rho = np.zeros(grid.shape)
        rho[4, 11], rho[10, 3] = 1.0, 2.0
        field = core_operator(ConcentrationImage(rho, grid), spec, config)
        for row in range(2):
            for col in range(2):
                kernel_img = discretize_kernel(grid, spec, (row, col), config.gradient_field())
                oracle = naive_circular_convolution(rho, kernel_img, grid.pixel_area)
                scale = np.abs(oracle).max()
                assert np.abs(field.entry(row, col) - oracle).max() <= 1e-8 * scale

    def test_symmetric_entries_shared(self):
        grid = desk_grid(9)
        config = desk_config()
        rho = np.random.default_rng(0).uniform(size=grid.shape)
        field = core_operator(ConcentrationImage(rho, grid), desk_spec(grid, config), config)
        assert np.array_equal(field.entry(0, 1), field.entry(1, 0))
        assert field.populated_rows == (0, 1)

    def test_trace_equals_trace_kernel_convolution(self):
        grid = desk_grid(17)
        config = desk_config()
        spec = desk_spec(grid, config)
        rho = np.random.default_rng(9).uniform(size=grid.shape)
        field = core_operator(ConcentrationImage(rho, grid), spec, config)
        trace = field.entry(0, 0) + field.entry(1, 1)
        kernel_img = discretize_kernel(grid, spec, "trace", config.gradient_field())
        expected = fft_convolve(rho, kernel_img, grid.pixel_area)
        assert np.abs(trace - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_trace_has_central_symmetry(self):
        grid = desk_grid(17)
        config = desk_config()
        rho = np.zeros(grid.shape)
        rho[5, 3] = 1.0
        rho[11, 13] = 1.0  # mirror of (5, 3) about the center pixel (8, 8)
        field = core_operator(ConcentrationImage(rho, grid), desk_spec(grid, config), config)
        trace = field.entry(0, 0) + field.entry(1, 1)
        assert np.allclose(trace, np.rot90(trace, 2), rtol=1e-10, atol=1e-14)


class TestCoreOperatorField:
    GRID = GridGeometry(shape=(3, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))

    def test_slices_in_ascending_row_order_whatever_the_listed_order(self):
        values = np.arange(24.0).reshape(1, 2, 3, 4)
        field = CoreOperatorField(values=values, geometry=self.GRID, populated_rows=(1,))
        assert field.populated_rows == (1,)
        assert np.array_equal(field.entry(1, 1), values[0, 1])
        with pytest.raises(KeyError, match=r"\(0, 0\) is not populated"):
            field.entry(0, 0)
        with pytest.raises(KeyError, match=r"\(1, 2\) is not populated"):
            field.entry(1, 2)
        values = np.arange(48.0).reshape(2, 2, 3, 4)
        field = CoreOperatorField(values=values, geometry=self.GRID, populated_rows=(1, 0))
        assert field.populated_rows == (1, 0)
        assert np.array_equal(field.entry(0, 1), values[0, 1])
        assert np.array_equal(field.entry(1, 0), values[1, 0])

    @pytest.mark.parametrize("rows", [(), (0, 0), (2,), (1, 7), (0, 1, 1)])
    def test_rows_outside_the_rule_rejected(self, rows):
        values = np.zeros((len(rows), 2, 3, 4))
        with pytest.raises(ValueError, match="rows must be distinct values of"):
            CoreOperatorField(values=values, geometry=self.GRID, populated_rows=rows)

    @pytest.mark.parametrize("shape", [(2, 2, 3, 4), (1, 1, 3, 4), (1, 2, 4, 3), (2, 3, 4)])
    def test_values_not_one_slice_pair_per_row_rejected(self, shape):
        with pytest.raises(ValueError, match=r"do not hold rows \(0,\) on grid \(3, 4\)$"):
            CoreOperatorField(values=np.zeros(shape), geometry=self.GRID, populated_rows=(0,))


class TestFftConvolve:
    def test_matches_naive_on_random_images(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            img = rng.normal(size=(16, 16))
            ker = rng.normal(size=(16, 16))
            fast = fft_convolve(img, ker, 0.7)
            slow = naive_circular_convolution(img, ker, 0.7)
            assert np.abs(fast - slow).max() <= 1e-8 * np.abs(slow).max()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fft_convolve(np.zeros((4, 4)), np.zeros((5, 5)), 1.0)


class TestSimulateSignal:
    def test_zero_phantom_gives_zero_signal(self):
        grid = desk_grid(17)
        config = desk_config()
        traj = lissajous(sampled(config, 256))
        sig = simulate_signal(
            ConcentrationImage(np.zeros(grid.shape), grid), traj, desk_spec(grid, config), config
        )
        assert np.allclose(sig.values, 0.0, atol=1e-15)
        assert sig.n_channels == 2

    def test_stationary_trajectory_gives_zero_signal(self):
        grid = desk_grid(17)
        config = desk_config()
        rho = np.random.default_rng(2).uniform(size=grid.shape)
        traj = Trajectory(
            times=np.arange(64) / config.sample_rate,
            positions=np.zeros((64, 2)),
            velocities=np.zeros((64, 2)),
        )
        sig = simulate_signal(ConcentrationImage(rho, grid), traj, desk_spec(grid, config), config)
        assert np.allclose(sig.values, 0.0, atol=1e-15)

    def test_delta_phantom_matches_pointwise_oracle(self):
        grid = desk_grid(17)
        config = desk_config()
        spec = desk_spec(grid, config)
        scheme = InterpolationScheme()
        rho = np.zeros(grid.shape)
        rho[8, 8] = 1.0
        image = ConcentrationImage(rho, grid)
        traj = lissajous(sampled(config, 64))
        sig = simulate_signal(image, traj, spec, config, scheme)
        field = core_operator(image, spec, config)
        for k in (0, 17, 45):
            for row in range(2):
                expected = sum(
                    interpolate(field.entry(row, col), traj.positions[k], grid, scheme)
                    * traj.velocities[k, col]
                    for col in range(2)
                )
                assert sig.values[k, row] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_bytes_match_the_four_product_form(self):
        # sampling the shared off-diagonal entry once keeps every bit of
        # one product per matrix entry
        config = PipelineConfig.from_file(TWO_BAR_33)
        scanner = config.scanner()
        image = generate_phantom(config.phantom())
        traj = decimate(lissajous(scanner), 3)
        scheme = config.interpolation()
        sig = simulate_signal(image, traj, config.kernel_spec(), scanner, scheme)
        field = core_operator(image, config.kernel_spec(), scanner)
        sample_matrix = interpolation_matrix(image.geometry, traj.positions, scheme)
        expected = np.zeros((len(traj), 2))
        for row in range(2):
            for col in range(2):
                values = sample_matrix @ field.entry(row, col).ravel()
                expected[:, row] += values * traj.velocities[:, col]
        assert sig.values.tobytes() == expected.tobytes()

    def test_linearity(self):
        grid = desk_grid(17)
        config = desk_config()
        spec = desk_spec(grid, config)
        rng = np.random.default_rng(3)
        rho1 = rng.uniform(size=grid.shape)
        rho2 = rng.uniform(size=grid.shape)
        traj = lissajous(sampled(config, 128))
        a, b = 2.5, -1.25
        combo = simulate_signal(ConcentrationImage(a * rho1 + b * rho2, grid), traj, spec, config)
        s1 = simulate_signal(ConcentrationImage(rho1, grid), traj, spec, config)
        s2 = simulate_signal(ConcentrationImage(rho2, grid), traj, spec, config)
        expected = a * s1.values + b * s2.values
        scale = np.abs(expected).max()
        assert np.abs(combo.values - expected).max() <= 1e-8 * scale

    def test_decimated_trajectory_keeps_its_stamps(self):
        config = PipelineConfig.from_file(TWO_BAR_33)
        scanner = config.scanner()
        traj = decimate(lissajous(scanner), 4)
        sig = simulate_signal(
            generate_phantom(config.phantom()), traj, config.kernel_spec(), scanner,
            config.interpolation(),
        )
        assert sig.n_samples == 17424
        assert np.array_equal(sig.times, traj.times)
        assert sig.times[-1] == pytest.approx(0.99994, abs=1e-5)

    def test_trajectory_outside_geometry_rejected(self):
        grid = GridGeometry.node_centered((12e-3, 12e-3), (9, 9))  # half the scan FoV
        config = desk_config()
        traj = lissajous(sampled(config, 64))
        with pytest.raises(ValueError):
            simulate_signal(
                ConcentrationImage(np.zeros(grid.shape), grid), traj, desk_spec(grid, config), config
            )


class TestAnalogFilter:
    def make_signal(self, n=64, channels=2, seed=4):
        rng = np.random.default_rng(seed)
        return ScanSignal(values=rng.normal(size=(n, channels)), times=np.arange(n) / 1e3)

    def test_delta_kernel_is_identity(self):
        sig = self.make_signal()
        kernel = np.zeros(sig.n_samples)
        kernel[0] = 1.0
        out = apply_analog_filter(sig, kernel)
        assert np.allclose(out.values, sig.values, atol=1e-12)

    def test_shifted_delta_rolls_signal(self):
        sig = self.make_signal()
        kernel = np.zeros(sig.n_samples)
        kernel[1] = 1.0
        out = apply_analog_filter(sig, kernel)
        assert np.allclose(out.values, np.roll(sig.values, 1, axis=0), atol=1e-12)

    def test_convolution_theorem(self):
        sig = self.make_signal()
        kernel = np.random.default_rng(5).normal(size=sig.n_samples)
        out = apply_analog_filter(sig, kernel)
        lhs = np.fft.rfft(out.values, axis=0)
        rhs = np.fft.rfft(sig.values, axis=0) * np.fft.rfft(kernel)[:, None]
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_length_mismatch(self):
        sig = self.make_signal()
        with pytest.raises(ValueError):
            apply_analog_filter(sig, np.zeros(sig.n_samples + 1))


class TestAddNoise:
    def make_signal(self):
        t = np.linspace(0.0, 1.0, 20_000, endpoint=False)
        values = np.stack([np.sin(2 * np.pi * 5 * t), 2 * np.cos(2 * np.pi * 3 * t)], axis=-1)
        return ScanSignal(values=values, times=t)

    def test_zero_level_identity(self):
        sig = self.make_signal()
        out = add_noise(sig, 0.0, rng_seed=0)
        assert np.array_equal(out.values, sig.values)

    def test_reproducible_from_seed(self):
        sig = self.make_signal()
        a = add_noise(sig, 0.1, rng_seed=42)
        b = add_noise(sig, 0.1, rng_seed=42)
        assert np.array_equal(a.values, b.values)

    def test_noise_std_tracks_rms(self):
        sig = self.make_signal()
        out = add_noise(sig, 0.1, rng_seed=7)
        rms = np.sqrt(np.mean(sig.values**2, axis=0))
        measured = np.std(out.values - sig.values, axis=0)
        assert np.all(np.abs(measured - 0.1 * rms) <= 0.05 * 0.1 * rms)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_noise(self.make_signal(), -0.1, rng_seed=0)
