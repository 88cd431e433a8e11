"""Trajectory-independent model-based MPI reconstruction.

Forward simulation of FFP scans under the equilibrium (Langevin)
particle model, recovery of the core operator field from time-domain
samples by a regularized least-squares stage, and recovery of the
particle concentration by zero-shot plug-and-play deconvolution.
"""

from .core_stage import (
    CoreStageConfig,
    CoreStageSolution,
    extract_trace,
    solve_core_stage,
)
from .denoisers import DenoiserRef, ExternalDenoiserError, open_denoiser
from .forward import (
    CoreOperatorField,
    ScanSignal,
    add_noise,
    apply_analog_filter,
    core_operator,
    fft_convolve,
    simulate_signal,
)
from .geometry import ConcentrationImage, GridGeometry
from .interpolation import (
    InterpolationScheme,
    interpolation_matrix,
)
from .kernels import (
    KernelSpec,
    ParticleModel,
    discretize_kernel,
    kernel_entry,
    kernel_matrix,
    langevin,
    langevin_prime,
    saturation_field,
    trace_kernel,
)
from .phantoms import PhantomSpec, generate_phantom
from .pipeline import (
    PipelineConfig,
    PipelineError,
    PipelineResult,
    dip_ratio,
    extract_profile,
    run_pipeline,
    sweep,
)
from .pnp import (
    PnPConfig,
    PnPResult,
    denoise,
    estimate_noise,
    percentile_trim,
    tikhonov_spectra,
    tikhonov_step,
    zero_shot_pnp,
)
from .preprocessing import (
    SnrProfile,
    TransferFunction,
    compute_snr,
    correct_transfer_function,
    estimate_transfer_function,
    snr_threshold,
)
from .scanner import (
    ScannerConfig,
    Trajectory,
    decimate,
    excited_trajectory,
    lissajous,
    trajectory_from_samples,
)

__all__ = [
    "ConcentrationImage",
    "CoreOperatorField",
    "CoreStageConfig",
    "CoreStageSolution",
    "DenoiserRef",
    "ExternalDenoiserError",
    "GridGeometry",
    "InterpolationScheme",
    "KernelSpec",
    "ParticleModel",
    "PhantomSpec",
    "PipelineConfig",
    "PipelineError",
    "PipelineResult",
    "PnPConfig",
    "PnPResult",
    "ScanSignal",
    "ScannerConfig",
    "SnrProfile",
    "Trajectory",
    "TransferFunction",
    "add_noise",
    "apply_analog_filter",
    "compute_snr",
    "core_operator",
    "correct_transfer_function",
    "decimate",
    "denoise",
    "dip_ratio",
    "discretize_kernel",
    "estimate_noise",
    "estimate_transfer_function",
    "excited_trajectory",
    "extract_profile",
    "extract_trace",
    "fft_convolve",
    "generate_phantom",
    "interpolation_matrix",
    "kernel_entry",
    "kernel_matrix",
    "langevin",
    "langevin_prime",
    "lissajous",
    "open_denoiser",
    "percentile_trim",
    "run_pipeline",
    "saturation_field",
    "simulate_signal",
    "snr_threshold",
    "solve_core_stage",
    "sweep",
    "tikhonov_spectra",
    "tikhonov_step",
    "trace_kernel",
    "trajectory_from_samples",
    "zero_shot_pnp",
]

__version__ = "0.1.0"
