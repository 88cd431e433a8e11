"""Plug-and-play deconvolution: splitting steps, scheduling, round trips."""

import numpy as np
import pytest

from mpirecon.denoisers import DenoiserRef
from mpirecon.geometry import GridGeometry
from mpirecon.kernels import KernelSpec, discretize_kernel
from mpirecon.pnp import (
    PnPConfig,
    denoise,
    estimate_noise,
    percentile_trim,
    tikhonov_spectra,
    tikhonov_step,
    zero_shot_pnp,
)

GRID_N = 33
CENTER = GRID_N // 2


def desk_kernel(h_pixels=0.75):
    grid = GridGeometry.node_centered((24e-3, 24e-3), (GRID_N, GRID_N))
    gradient = np.array([-1.0, -1.0]) / 1.2566370614359173e-6
    field_step = abs(gradient[0]) * grid.spacing[0]
    spec = KernelSpec(h=h_pixels * field_step)
    kernel = discretize_kernel(grid, spec, "trace", gradient)
    return kernel / kernel.sum()


def convolve(image, kernel):
    return np.real(np.fft.ifft2(np.fft.fft2(image) * np.fft.fft2(kernel)))


def two_bars(separation):
    rho = np.zeros((GRID_N, GRID_N))
    left = CENTER - (separation + 1) // 2
    right = left + separation
    rho[CENTER - 10 : CENTER + 11, left] = 1.0
    rho[CENTER - 10 : CENTER + 11, right] = 1.0
    return rho, left, right


def dip_ratio(profile, a, b):
    peak = 0.5 * (profile[a] + profile[b])
    if peak <= 0:
        return 0.0
    return 1.0 - profile[min(a, b) : max(a, b) + 1].min() / peak


class TestTikhonovStep:
    def test_consistent_pair_is_fixed_point(self):
        kernel = desk_kernel()
        rng = np.random.default_rng(0)
        rho2 = rng.uniform(size=kernel.shape)
        u = convolve(rho2, kernel)
        rho1 = tikhonov_step(rho2, 0.5, tikhonov_spectra(u, kernel))
        assert np.allclose(rho1, rho2, atol=1e-9)

    def test_huge_nu_pins_to_rho2(self):
        kernel = desk_kernel()
        rng = np.random.default_rng(1)
        rho2 = rng.uniform(size=kernel.shape)
        u = rng.uniform(size=kernel.shape)
        rho1 = tikhonov_step(rho2, 1e12, tikhonov_spectra(u, kernel))
        assert np.abs(rho1 - rho2).max() <= 1e-6

    def test_delta_kernel_closed_form(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(size=(8, 8))
        rho2 = rng.uniform(size=(8, 8))
        kernel = np.zeros((8, 8))
        kernel[0, 0] = 1.0
        rho1 = tikhonov_step(rho2, 1.0, tikhonov_spectra(u, kernel))
        assert np.allclose(rho1, 0.5 * (u + rho2), atol=1e-10)

    def test_gradient_optimality(self):
        kernel = desk_kernel()
        rng = np.random.default_rng(3)
        u = rng.uniform(size=kernel.shape)
        rho2 = rng.uniform(size=kernel.shape)
        nu, tol = 1e-3, 1e-10
        rho1 = tikhonov_step(rho2, nu, tikhonov_spectra(u, kernel))
        spectrum = np.fft.fft2(kernel)
        c_rho1 = np.real(np.fft.ifft2(np.fft.fft2(rho1) * spectrum))
        grad = (
            np.real(np.fft.ifft2(np.fft.fft2(c_rho1 - u) * np.conj(spectrum)))
            + nu * (rho1 - rho2)
        )
        b = np.real(np.fft.ifft2(np.fft.fft2(u) * np.conj(spectrum))) + nu * rho2
        assert np.linalg.norm(grad) <= tol * np.linalg.norm(b) * (1 + 1e-9)

    @pytest.mark.parametrize("nu", [1e-6, 1.0, 1e6])
    def test_matches_dense_solve(self, nu):
        # non-square grid, so the rfft2 half-spectrum and its odd width
        # are exercised; the circulant is built column by column from
        # shifted kernels, with no FFT
        rng = np.random.default_rng(10)
        shape = (6, 5)
        kernel = rng.uniform(size=shape)
        kernel[2, 3] += 2.0 * kernel.sum()  # keeps the spectrum away from zero
        u = rng.normal(size=shape)
        rho2 = rng.normal(size=shape)
        columns = [
            np.roll(kernel, (qy, qx), axis=(0, 1)).ravel()
            for qy in range(shape[0])
            for qx in range(shape[1])
        ]
        c = np.stack(columns, axis=1)
        dense = np.linalg.solve(
            c.T @ c + nu * np.eye(c.shape[1]), c.T @ u.ravel() + nu * rho2.ravel()
        ).reshape(shape)
        rho1 = tikhonov_step(rho2, nu, tikhonov_spectra(u, kernel))
        assert np.linalg.norm(rho1 - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_nonpositive_nu_rejected(self):
        kernel = desk_kernel()
        with pytest.raises(ValueError):
            zeros = np.zeros(kernel.shape)
            tikhonov_step(zeros, 0.0, tikhonov_spectra(zeros, kernel))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zeros = np.zeros((4, 4))
            tikhonov_step(zeros, 1.0, tikhonov_spectra(zeros, np.zeros((5, 5))))

    def test_spectra_of_another_shape_rejected(self):
        spectra = tikhonov_spectra(np.zeros((4, 4)), np.zeros((4, 4)))
        for shape in ((5, 4), (4, 5), (4, 6)):
            with pytest.raises(ValueError):
                tikhonov_step(np.zeros(shape), 1.0, spectra)

    def test_bytes_match_spectra_taken_on_every_step(self):
        rng = np.random.default_rng(6)
        kernel = rng.uniform(size=(12, 9))  # asymmetric: a complex spectrum
        u = rng.uniform(size=kernel.shape)
        spectra = tikhonov_spectra(u, kernel)
        for nu in (1e-5, 0.3, 7.0):
            rho2 = rng.uniform(size=kernel.shape)
            spectrum = np.fft.rfft2(kernel)
            numerator = np.conj(spectrum) * np.fft.rfft2(u) + nu * np.fft.rfft2(rho2)
            fresh = np.fft.irfft2(numerator / (np.abs(spectrum) ** 2 + nu), s=u.shape)
            assert tikhonov_step(rho2, nu, spectra).tobytes() == fresh.tobytes()


class TestEstimateNoise:
    def test_constant_image(self):
        assert estimate_noise(np.full((7, 7), 3.0)) == 0.0

    def test_two_pixel_image(self):
        assert estimate_noise(np.array([[0.0, 2.0]])) == pytest.approx(1.0)

    def test_checkerboard(self):
        c = 0.75
        img = c * (-1.0) ** (np.add.outer(np.arange(8), np.arange(8)))
        assert estimate_noise(img) == pytest.approx(c, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_noise(np.zeros((0, 3)))


class TestPercentileTrim:
    def test_zero_percentile_identity(self):
        rng = np.random.default_rng(4)
        img = rng.normal(size=(9, 9))
        assert np.array_equal(percentile_trim(img, 0.0), img)

    def test_linear_interpolation_convention(self):
        img = np.arange(1.0, 101.0).reshape(10, 10)
        out = percentile_trim(img, 5.0)
        # 5th percentile of 1..100 by linear interpolation: 5.95
        assert out.min() == pytest.approx(5.95)
        assert np.all(out[img >= 5.95] == img[img >= 5.95])

    def test_idempotent_once_floor_reached(self):
        # when at least the bottom percentile ties at the minimum, the
        # percentile equals that minimum and clipping is the identity;
        # this is the regime reached by repeated trimming
        rng = np.random.default_rng(5)
        img = rng.uniform(1.0, 2.0, size=(10, 10))
        img.ravel()[:8] = 0.5  # 8% of pixels at the floor
        once = percentile_trim(img, 5.0)
        assert np.array_equal(once, img)
        assert np.array_equal(percentile_trim(once, 5.0), once)

    def test_repeated_trims_never_lower_values(self):
        rng = np.random.default_rng(15)
        img = rng.normal(size=(12, 12))
        current = img
        for _ in range(4):
            trimmed = percentile_trim(current, 5.0)
            assert np.all(trimmed >= current)
            current = trimmed

    def test_never_decreases_minimum(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(10, 10))
        out = percentile_trim(img, 12.5)
        assert out.min() >= img.min()
        assert np.array_equal(np.maximum(out, img), out)

    def test_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            percentile_trim(np.zeros((3, 3)), 50.0)


class TestDenoise:
    def test_gaussian_sigma_zero_identity(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(10, 10))
        out = denoise(img, 0.0, DenoiserRef("gaussian-blur"))
        assert np.array_equal(out, img)

    def test_constant_image_unchanged(self):
        img = np.full((6, 6), -2.5)
        for kind in ("gaussian-blur", "total-variation"):
            assert np.array_equal(denoise(img, 0.3, DenoiserRef(kind)), img)

    def test_affine_equivariance_of_normalization(self):
        # the [0, 1] normalization contract makes the result covariant
        # under affine value maps for linear, constant-preserving backends
        rng = np.random.default_rng(8)
        img = rng.uniform(size=(16, 16))
        ref = DenoiserRef("gaussian-blur", blur_scale=3.0)
        base = denoise(img, 0.05, ref)
        scaled = denoise(4.0 * img - 1.5, 4.0 * 0.05, ref)
        assert np.allclose(scaled, 4.0 * base - 1.5, atol=1e-10)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            denoise(np.zeros((3, 3)), -0.1, DenoiserRef("gaussian-blur"))


class TestZeroShotPnp:
    def test_zero_input_early_termination(self):
        kernel = desk_kernel()
        result = zero_shot_pnp(np.zeros(kernel.shape), kernel, PnPConfig(nu0=1e-5))
        assert np.array_equal(result.image, np.zeros(kernel.shape))
        assert result.diagnostics.degenerate
        assert len(result.diagnostics.records) == 1

    def test_schedule_invariant(self):
        kernel = desk_kernel()
        rho, _, _ = two_bars(3)
        u = convolve(rho, kernel)
        result = zero_shot_pnp(
            u, kernel, PnPConfig(nu0=1e-5, n_iterations=8)
        )
        records = result.diagnostics.records
        lam = result.diagnostics.lam
        assert lam == records[0].nu * records[0].sigma ** 2
        for prev, cur in zip(records, records[1:]):
            assert abs(cur.nu * prev.sigma**2 - lam) <= 1e-12 * abs(lam)

    def test_two_bar_resolution(self):
        kernel = desk_kernel(h_pixels=0.75)
        rho, a, b = two_bars(3)
        u = convolve(rho, kernel)
        assert dip_ratio(u[CENTER], a, b) < 0.05  # blurred input cannot separate
        config = PnPConfig(
            nu0=1e-5,
            n_iterations=10,
            denoiser=DenoiserRef("total-variation"),
        )
        result = zero_shot_pnp(u, kernel, config)
        assert dip_ratio(result.image[CENTER], a, b) >= 0.2

    def test_one_pixel_separation_below_limit(self):
        kernel = desk_kernel(h_pixels=0.75)
        rho, a, b = two_bars(1)
        u = convolve(rho, kernel)
        config = PnPConfig(
            nu0=1e-5,
            n_iterations=10,
            denoiser=DenoiserRef("total-variation"),
        )
        result = zero_shot_pnp(u, kernel, config)
        assert dip_ratio(result.image[CENTER], a, b) < 0.2

    @pytest.mark.parametrize("nu0", [1.0, 1e-3])
    def test_identity_denoiser_matches_fourier_tikhonov(self, nu0):
        # blur_scale 0 makes the Gaussian backend an identity at any
        # sigma, so a single loop iteration is exactly the Tikhonov
        # deconvolution at nu0, which has a closed Fourier form.  (Later
        # iterations deliberately drift: the noise schedule turns the
        # loop into a proximal iteration toward the unregularized
        # solution when the denoiser does nothing.)
        kernel = desk_kernel()
        rng = np.random.default_rng(9)
        u = rng.uniform(size=kernel.shape)
        config = PnPConfig(
            nu0=nu0,
            n_iterations=1,
            trim_percentile=0.0,
            denoiser=DenoiserRef("gaussian-blur", blur_scale=0.0),
        )
        result = zero_shot_pnp(u, kernel, config)
        spectrum = np.fft.fft2(kernel)
        closed = np.real(
            np.fft.ifft2(np.conj(spectrum) * np.fft.fft2(u) / (np.abs(spectrum) ** 2 + nu0))
        )
        assert np.linalg.norm(result.image - closed) <= 1e-6 * np.linalg.norm(closed)

    def test_trim_suppresses_negative_lobe_artifacts(self):
        kernel = desk_kernel(h_pixels=0.75)
        rho, _, _ = two_bars(4)
        support = rho > 0
        u = convolve(rho, kernel)
        yy, xx = np.mgrid[0:GRID_N, 0:GRID_N]
        lobe = -0.6 * u.max() * np.exp(-((xx - 7.0) ** 2 + (yy - 7.0) ** 2) / 8.0)
        u_lobed = u + lobe
        energies = {}
        for trim in (0.0, 5.0):
            config = PnPConfig(
                nu0=1e-5,
                n_iterations=10,
                trim_percentile=trim,
                denoiser=DenoiserRef("total-variation"),
            )
            result = zero_shot_pnp(u_lobed, kernel, config)
            energies[trim] = float(np.sum(result.image[~support] ** 2))
        assert energies[5.0] < energies[0.0]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PnPConfig(nu0=0.0)
        with pytest.raises(ValueError):
            PnPConfig(trim_percentile=50.0)
        with pytest.raises(ValueError):
            PnPConfig(n_iterations=0)
