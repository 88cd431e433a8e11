"""Langevin functions, matrix kernel, trace kernel and discretization."""

import mpmath as mp
import numpy as np
import pytest

from mpirecon.geometry import GridGeometry
from mpirecon.kernels import (
    TAYLOR_CUTOFF,
    KernelSpec,
    ParticleModel,
    check_kernel_scale,
    discretize_kernel,
    kernel_entry,
    kernel_matrix,
    langevin,
    langevin_prime,
    saturation_field,
    trace_kernel,
)

mp.mp.dps = 40

# Frozen from the arbitrary-precision oracle below (40 digits).
LANGEVIN_AT_1 = 0.31303528549933130364
LANGEVIN_AT_10 = 0.90000000412230725337
LANGEVIN_PRIME_AT_1 = 0.27593833903368953359


def mp_langevin(z):
    return mp.coth(z) - 1 / mp.mpf(z)


def mp_langevin_prime(z):
    return 1 / mp.mpf(z) ** 2 - 1 / mp.sinh(z) ** 2


class TestLangevin:
    def test_zero(self):
        assert langevin(0.0) == 0.0

    def test_spot_values(self):
        assert langevin(1.0) == pytest.approx(LANGEVIN_AT_1, rel=1e-12)
        assert langevin(10.0) == pytest.approx(LANGEVIN_AT_10, rel=1e-12)

    def test_odd_and_bounded(self):
        z = np.linspace(-40.0, 40.0, 401)
        vals = langevin(z)
        assert np.allclose(vals, -langevin(-z), atol=1e-15)
        assert np.all(np.abs(vals) < 1.0)

    def test_saturates(self):
        assert langevin(1e4) == pytest.approx(1.0, abs=1e-3)
        assert langevin(-1e4) == pytest.approx(-1.0, abs=1e-3)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-50.0, 50.0, size=10_000)
        z = z[np.abs(z) >= TAYLOR_CUTOFF]
        vals = langevin(z)
        oracle = np.array([float(mp_langevin(v)) for v in z])
        rel = np.abs(vals - oracle) / np.abs(oracle)
        assert rel.max() < 1e-10

    def test_series_continuity_at_cutoff(self):
        for z in (TAYLOR_CUTOFF, -TAYLOR_CUTOFF):
            closed = 1.0 / np.tanh(z) - 1.0 / z
            series = z / 3.0 - z**3 / 45.0 + 2.0 * z**5 / 945.0
            assert abs(closed - series) < 1e-12


class TestLangevinPrime:
    def test_zero_limit(self):
        assert langevin_prime(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_spot_value(self):
        assert langevin_prime(1.0) == pytest.approx(LANGEVIN_PRIME_AT_1, rel=1e-12)

    def test_even(self):
        z = np.linspace(0.1, 30.0, 100)
        assert np.allclose(langevin_prime(z), langevin_prime(-z), rtol=1e-14)

    def test_range(self):
        z = np.linspace(-50.0, 50.0, 1001)
        vals = langevin_prime(z)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0 / 3.0 + 1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-50.0, 50.0, size=10_000)
        z = z[np.abs(z) >= TAYLOR_CUTOFF]
        vals = langevin_prime(z)
        oracle = np.array([float(mp_langevin_prime(v)) for v in z])
        rel = np.abs(vals - oracle) / np.abs(oracle)
        assert rel.max() < 1e-10

    def test_series_continuity_at_cutoff(self):
        z = TAYLOR_CUTOFF
        closed = 1.0 / z**2 - 1.0 / np.sinh(z) ** 2
        series = 1.0 / 3.0 - z**2 / 15.0 + 2.0 * z**4 / 189.0
        assert abs(closed - series) < 1e-12

    def test_huge_argument_no_overflow(self):
        assert langevin_prime(1e6) == pytest.approx(1e-12, rel=1e-10)


class TestSaturationField:
    def table_model(self):
        return ParticleModel(
            temperature=293.0,
            saturation_magnetization=4.74e5,
            core_diameter=21e-9,
        )

    def test_reference_scanner_particles(self):
        # Frozen from direct substitution with the mpmath oracle.
        assert saturation_field(self.table_model()) == pytest.approx(1400.57393522, rel=1e-9)

    def test_diameter_cubed_scaling(self):
        m = self.table_model()
        doubled = ParticleModel(
            temperature=m.temperature,
            saturation_magnetization=m.saturation_magnetization,
            core_diameter=2 * m.core_diameter,
        )
        assert saturation_field(doubled) == pytest.approx(saturation_field(m) / 8.0, rel=1e-12)

    def test_temperature_linearity(self):
        m = self.table_model()
        hot = ParticleModel(
            temperature=2 * m.temperature,
            saturation_magnetization=m.saturation_magnetization,
            core_diameter=m.core_diameter,
        )
        assert saturation_field(hot) == pytest.approx(2.0 * saturation_field(m), rel=1e-12)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ParticleModel(temperature=-1.0, saturation_magnetization=1.0, core_diameter=1e-9)
        with pytest.raises(ValueError):
            ParticleModel(temperature=293.0, saturation_magnetization=0.0, core_diameter=1e-9)


class TestKernelMatrix:
    spec = KernelSpec(h=2.0)

    def test_origin_is_identity_over_3h(self):
        K = kernel_matrix(np.zeros(2), self.spec)
        assert np.array_equal(K, np.eye(2) / (3.0 * self.spec.h))

    def test_eigenstructure_on_axis(self):
        K = kernel_matrix(np.array([self.spec.h, 0.0]), self.spec)
        expected = np.diag([LANGEVIN_PRIME_AT_1, LANGEVIN_AT_1]) / self.spec.h
        assert np.allclose(K, expected, rtol=1e-12)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for scale in (1e-9, 1e-3, 1.0, 30.0):
            for _ in range(50):
                y = rng.normal(size=2) * scale * self.spec.h
                K = kernel_matrix(y, self.spec)
                assert np.allclose(K, K.T, rtol=1e-14)
                assert np.all(np.linalg.eigvalsh(K) >= -1e-15)

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        scales = np.concatenate([10.0 ** rng.uniform(-9, 1.5, 990), np.full(10, 1e-14)])
        for scale in scales:
            y = rng.normal(size=2)
            y *= scale * self.spec.h / max(np.linalg.norm(y), 1e-300)
            tr = float(np.trace(kernel_matrix(y, self.spec)))
            kappa = trace_kernel(y, self.spec)
            assert tr == pytest.approx(kappa, rel=1e-12)


class TestTraceKernel:
    spec = KernelSpec(h=0.5)

    def test_peak_value(self):
        assert trace_kernel(np.zeros(2), self.spec) == pytest.approx(
            2.0 / (3.0 * self.spec.h), rel=1e-14
        )

    def test_unit_radius_value(self):
        # L'(1) + L(1), frozen oracle values.
        expected = (LANGEVIN_PRIME_AT_1 + LANGEVIN_AT_1) / self.spec.h
        y = np.array([self.spec.h, 0.0])
        assert trace_kernel(y, self.spec) == pytest.approx(expected, rel=1e-12)
        assert expected * self.spec.h == pytest.approx(0.5889736245, rel=1e-9)

    def test_radial_symmetry(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=(200, 2))
        assert np.allclose(trace_kernel(y, self.spec), trace_kernel(-y, self.spec), rtol=1e-14)
        # same radius, different direction
        r = np.linalg.norm(y, axis=-1)
        on_axis = np.stack([r, np.zeros_like(r)], axis=-1)
        assert np.allclose(trace_kernel(y, self.spec), trace_kernel(on_axis, self.spec), rtol=1e-12)

    def test_strictly_positive(self):
        y = np.stack([np.linspace(-40, 40, 500), np.zeros(500)], axis=-1)
        assert np.all(trace_kernel(y, self.spec) > 0)


class TestKernelEntry:
    spec = KernelSpec(h=1.5)

    def test_off_diagonal_vanishes_on_axis(self):
        assert kernel_entry(np.array([0.7, 0.0]), 0, 1, self.spec) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_at_origin(self):
        assert kernel_entry(np.zeros(2), 0, 0, self.spec) == pytest.approx(
            1.0 / (3.0 * self.spec.h), rel=1e-14
        )

    def test_first_entry_on_axis(self):
        val = kernel_entry(np.array([self.spec.h, 0.0]), 0, 0, self.spec)
        assert val == pytest.approx(LANGEVIN_PRIME_AT_1 / self.spec.h, rel=1e-12)

    def test_matches_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            y = rng.normal(size=2)
            K = kernel_matrix(y, self.spec)
            for i in range(2):
                for j in range(2):
                    assert kernel_entry(y, i, j, self.spec) == pytest.approx(K[i, j], abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            kernel_entry(np.zeros(2), 0, 2, self.spec)

    def test_matches_oracle(self):
        # |y/h| from 1e-6 to 50, densely on both sides of the Taylor cutoff,
        # in directions off the axes.  Off-diagonal entries are the rank-one
        # weight (L' - L/z)/z^2 alone, whose closed form cancels just above
        # the cutoff; diagonal entries add the much larger L/z.
        rng = np.random.default_rng(23)
        radii = np.concatenate(
            [
                np.logspace(-6, np.log10(50.0), 200),
                TAYLOR_CUTOFF * np.linspace(0.5, 2.0, 101),
            ]
        )
        angles = rng.uniform(0.1, np.pi / 2 - 0.1, radii.size)
        angles += np.pi / 2 * rng.integers(0, 4, radii.size)  # all four quadrants
        y = self.spec.h * np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
        h = mp.mpf(self.spec.h)
        worst = {True: 0.0, False: 0.0}
        for point in y:
            yh = [mp.mpf(v) / h for v in point]
            z = mp.sqrt(yh[0] ** 2 + yh[1] ** 2)
            iso = mp_langevin(z) / z
            aniso = (mp_langevin_prime(z) - iso) / z**2
            for i in range(2):
                for j in range(2):
                    exact = (aniso * yh[i] * yh[j] + (iso if i == j else 0)) / h
                    rel = abs(float((kernel_entry(point, i, j, self.spec) - exact) / exact))
                    worst[i == j] = max(worst[i == j], rel)
        assert worst[True] < 1e-11
        assert worst[False] < 1e-7


class TestDiscretizeKernel:
    spec = KernelSpec(h=2.0)
    grid = GridGeometry(shape=(33, 33), spacing=(1.0, 1.0), origin=(-16.0, -16.0))
    gradient = (1.0, 1.0)

    def test_peak_at_zero_shift_pixel(self):
        img = discretize_kernel(self.grid, self.spec, "trace", self.gradient)
        assert img.shape == self.grid.shape
        assert img[0, 0] == pytest.approx(2.0 / (3.0 * self.spec.h), rel=1e-14)
        assert img[0, 0] == img.max()

    def test_rotation_symmetry(self):
        img = discretize_kernel(self.grid, self.spec, "trace", self.gradient)
        centred = np.fft.fftshift(img)
        assert np.allclose(centred, np.rot90(centred, 2), rtol=1e-13)

    def test_riemann_sum_matches_fine_oracle(self):
        # Same window, 4x finer cell-centred sampling: both Riemann sums
        # approximate the kernel integral over the covered window.
        img = discretize_kernel(self.grid, self.spec, "trace", self.gradient)
        coarse = img.sum() * self.grid.pixel_area

        n, dx = 33, 1.0
        fine = np.linspace(-n * dx / 2.0, n * dx / 2.0, 4 * n, endpoint=False) + n * dx / (8 * n)
        X, Y = np.meshgrid(fine, fine)
        field = np.stack([X * self.gradient[0], Y * self.gradient[1]], axis=-1)
        oracle = trace_kernel(field, self.spec).sum() * (dx / 4.0) ** 2
        assert abs(coarse - oracle) / abs(oracle) < 0.01

    def test_entry_selector(self):
        img = discretize_kernel(self.grid, self.spec, (0, 0), self.gradient)
        assert img[0, 0] == pytest.approx(1.0 / (3.0 * self.spec.h), rel=1e-14)
        # on-axis row: off-diagonal entry vanishes
        img01 = discretize_kernel(self.grid, self.spec, (0, 1), self.gradient)
        assert np.allclose(img01[0, :], 0.0, atol=1e-15)

    def test_dft_nonnegative_real_part(self):
        # Positive definiteness shows up numerically once the kernel is
        # resolved by the grid (h at or below about one pixel field step);
        # under-resolved kernels leave truncation ripple at ~1e-4 of peak.
        sharp = KernelSpec(h=0.5)
        img = discretize_kernel(self.grid, sharp, "trace", self.gradient)
        spectrum = np.fft.fft2(img)
        peak = np.abs(spectrum).max()
        assert spectrum.real.min() >= -1e-8 * peak

    def test_trace_equals_diagonal_sum(self):
        img_tr = discretize_kernel(self.grid, self.spec, "trace", self.gradient)
        img_00 = discretize_kernel(self.grid, self.spec, (0, 0), self.gradient)
        img_11 = discretize_kernel(self.grid, self.spec, (1, 1), self.gradient)
        assert np.allclose(img_tr, img_00 + img_11, rtol=1e-12)

    # the largest offset is 16 px on both axes: |y/h|^2 = 512 / h^2
    # overflows below h ~ 1.69e-153
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("selector", ["trace", (0, 0), (0, 1)])
    def test_smallest_scale_samples_without_overflow(self, selector):
        spec = KernelSpec(h=1e-152)
        check_kernel_scale(self.grid, spec, self.gradient)
        assert np.isfinite(discretize_kernel(self.grid, spec, selector, self.gradient)).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [1e-154, 1e-300, 5e-324])
    def test_scale_whose_field_overflows_is_refused(self, h):
        message = (
            rf"^kernel resolution h = {h!r} A/m is too small for the grid: its largest field "
            r"offset \(16, 16\) A/m overflows in units of h$"
        )
        with pytest.raises(ValueError, match=message):
            check_kernel_scale(self.grid, KernelSpec(h=h), self.gradient)
        with pytest.raises(ValueError, match=message):
            discretize_kernel(self.grid, KernelSpec(h=h), "trace", self.gradient)
