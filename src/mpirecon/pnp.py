"""Zero-shot plug-and-play deconvolution with half-quadratic splitting.

The trace of the core operator is the concentration blurred by the
scalar trace kernel; this module inverts that blur by alternating a
Tikhonov data-fidelity step with a denoising step.  The blur is a
circular convolution, so the DFT diagonalizes the Tikhonov system and
each data step is one exact Fourier-domain solve with no inner
iterations.  The split is rebalanced automatically: after each data
step the iterate is lower-clipped at a percentile (which keeps denoiser
artifacts from negative-valued regions in check), its pixel standard
deviation is taken as the noise level fed to the denoiser, and the
coupling follows ``nu_k = lam / sigma_k^2`` with ``lam`` frozen after
the first iteration.

The convolution operator is the plain circular convolution with the
kernel image as given (its scale is the caller's contract; the pipeline
normalizes kernel images to unit sum).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .denoisers import DenoiserRef, open_denoiser

# Looked up here by bench/workloads.py trace_sites; drop with pnp.tikhonov_cg_iterations.
from .solvers import conjugate_gradient  # noqa: F401


@dataclasses.dataclass(frozen=True)
class PnPConfig:
    """Loop length, initial coupling, trimming and denoiser."""

    nu0: float = 1e-5
    n_iterations: int = 10
    trim_percentile: float = 5.0
    denoiser: DenoiserRef = DenoiserRef()

    def __post_init__(self):
        if self.nu0 <= 0:
            raise ValueError("nu0 must be positive")
        if not np.isfinite(self.nu0):
            raise ValueError(f"nu0 must be finite, got {self.nu0!r}")
        if not 0 <= self.trim_percentile < 50:
            raise ValueError("trim_percentile must lie in [0, 50)")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")


@dataclasses.dataclass
class PnPIterationRecord:
    iteration: int
    nu: float  # coupling used by the Tikhonov step of this iteration
    sigma: float  # noise level estimated from the trimmed iterate
    lam: float  # fixed product after iteration 0


@dataclasses.dataclass
class PnPResult:
    image: np.ndarray
    records: list  # one PnPIterationRecord per iteration run
    degenerate: bool  # constant iterate forced an early stop


@dataclasses.dataclass(frozen=True)
class TikhonovSpectra:
    """Loop-invariant parts of the Tikhonov step, with ``K = rfft2(kernel_image)``."""

    data: np.ndarray  # conj(K) rfft2(u)
    power: np.ndarray  # |K|^2
    shape: tuple  # of u and the kernel image


def tikhonov_spectra(u: np.ndarray, kernel_image: np.ndarray) -> TikhonovSpectra:
    """The spectra ``tikhonov_step`` needs for data ``u``; fixed per PnP call."""
    if u.shape != kernel_image.shape:
        raise ValueError("u and kernel image must share one shape")
    spectrum = np.fft.rfft2(kernel_image)
    return TikhonovSpectra(np.conj(spectrum) * np.fft.rfft2(u), np.abs(spectrum) ** 2, u.shape)


def tikhonov_step(rho2: np.ndarray, nu: float, spectra: TikhonovSpectra) -> np.ndarray:
    """Exact solution of ``(C^T C + nu I) rho1 = C^T u + nu rho2`` with
    ``C`` the circular convolution by the kernel image.

    The DFT diagonalizes ``C`` with eigenvalues ``K = rfft2(kernel_image)``,
    so ``rho1 = irfft2[(conj(K) rfft2(u) + nu rfft2(rho2)) / (|K|^2 + nu)]``;
    ``spectra`` is ``tikhonov_spectra(u, kernel_image)``.
    """
    if rho2.shape != spectra.shape:
        raise ValueError("rho2 must have the shape of u and the kernel image")
    if nu <= 0:
        raise ValueError("nu must be positive")
    numerator = spectra.data + nu * np.fft.rfft2(rho2)
    return np.fft.irfft2(numerator / (spectra.power + nu), s=rho2.shape)


def estimate_noise(rho1: np.ndarray) -> float:
    """Noise level as the population standard deviation of the pixels."""
    rho1 = np.asarray(rho1, dtype=float)
    if rho1.size == 0:
        raise ValueError("empty image")
    return float(np.std(rho1))


def percentile_trim(rho1: np.ndarray, percentile: float) -> np.ndarray:
    """Raise values below the given percentile to the percentile value
    (lower clipping; linear interpolation between order statistics)."""
    if not 0 <= percentile < 50:
        raise ValueError("percentile must lie in [0, 50)")
    rho1 = np.asarray(rho1, dtype=float)
    if percentile == 0:
        return rho1.copy()
    return np.maximum(rho1, np.percentile(rho1, percentile))


def denoise(image: np.ndarray, sigma: float, backend) -> np.ndarray:
    """Denoise at the declared noise level under the normalization contract:
    the image is affinely mapped to [0, 1], ``sigma`` is rescaled by the
    same factor, and the map is inverted afterwards.

    ``backend`` is a callable ``(image, sigma) -> image``, such as the one
    ``open_denoiser`` yields.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    image = np.asarray(image, dtype=float)
    low = float(image.min())
    span = float(image.max()) - low
    if span == 0.0:
        return image.copy()
    normalized = (image - low) / span
    return backend(normalized, sigma / span) * span + low


def zero_shot_pnp(u: np.ndarray, kernel_image: np.ndarray, config: PnPConfig) -> PnPResult:
    """Run the splitting loop with automatic noise scheduling.

    Per iteration: Tikhonov step at coupling ``nu_k``, percentile trim,
    noise estimation, (first iteration only) ``lam = nu0 sigma^2``,
    denoising at the estimated level, then ``nu_{k+1} = lam / sigma^2``.
    A zero noise estimate means the iterate degenerated to a constant;
    the loop stops early and returns the current denoised iterate.
    """
    u = np.asarray(u, dtype=float)
    spectra = tikhonov_spectra(u, kernel_image)
    rho2 = np.zeros_like(u)
    nu = config.nu0
    records = []
    degenerate = False
    with open_denoiser(config.denoiser) as backend:
        for k in range(config.n_iterations):
            rho1 = tikhonov_step(rho2, nu, spectra)
            rho1 = percentile_trim(rho1, config.trim_percentile)
            sigma = estimate_noise(rho1)
            if k == 0:
                lam = config.nu0 * sigma**2
            records.append(PnPIterationRecord(iteration=k, nu=nu, sigma=sigma, lam=lam))
            if sigma == 0.0:
                degenerate = True
                break
            rho2 = denoise(rho1, sigma, backend)
            nu = lam / sigma**2
    return PnPResult(image=rho2, records=records, degenerate=degenerate)
