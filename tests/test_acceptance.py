"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL
line (visible with ``pytest -s`` or in failure reports).  Criterion 5
checks the noise-schedule bookkeeping of every plug-and-play run the
other criteria recorded, so it is defined last.
"""

import os
import time

import mpmath as mp
import numpy as np
import pytest

from core_oracle import normal_matrix_csr, normal_operator
from grid_oracle import interpolate, interpolation_adjoint

from mpirecon.core_stage import (
    CoreStageConfig,
    _normal_equations,
    _normal_matrix,
    extract_trace,
    laplacian_matrix,
    solve_core_stage,
)
from mpirecon.forward import ScanSignal, apply_analog_filter, core_operator, simulate_signal
from mpirecon.geometry import ConcentrationImage, GridGeometry
from mpirecon.interpolation import InterpolationScheme, interpolation_matrix
from mpirecon.kernels import (
    TAYLOR_CUTOFF,
    KernelSpec,
    discretize_kernel,
    kernel_matrix,
    langevin,
    langevin_prime,
    trace_kernel,
)
from mpirecon.pipeline import PipelineConfig, run_pipeline
from mpirecon.pnp import PnPConfig, zero_shot_pnp
from mpirecon.preprocessing import (
    SnrProfile,
    TransferFunction,
    correct_transfer_function,
    snr_threshold,
)
from mpirecon.scanner import lissajous

mp.mp.dps = 30

VACUUM_PERMEABILITY = 4e-7 * np.pi

# PnP diagnostics recorded by criteria 6-8 and consumed by criterion 5.
RECORDED_PNP_RUNS = []


class Criterion:
    """Collects checks for one acceptance criterion and prints the verdict."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.failures = []
        self.start = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def conclude(self, detail=""):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.budget_s
        status = "PASS" if not self.failures and in_budget else "FAIL"
        print(
            f"[acceptance] criterion {self.number:2d} ({self.name}): {status} "
            f"in {elapsed:.2f}s (budget {self.budget_s:g}s) {detail}"
        )
        assert not self.failures, "; ".join(self.failures)
        assert in_budget, f"runtime {elapsed:.2f}s exceeded budget {self.budget_s}s"


def pipeline_config(tmp_dir, name, text):
    return PipelineConfig.from_string(
        f"[pipeline]\nout = {tmp_dir}/{name}\nseed = 0\n" + text, base_dir=str(tmp_dir)
    )


def two_bar_section(separation_px, spacing_mm=0.75):
    return f"""
[phantom]
kind = two-bar
separation_mm = {separation_px * spacing_mm}
bar_length_a_mm = 15.75
bar_length_b_mm = 15.75
bar_width_mm = {spacing_mm}
margin_mm = 3.0
"""


def desk_scan_section(n, freq_hi, sample_rate, h_pixels=0.75):
    spacing = 24e-3 / (n - 1)
    h_sat = h_pixels * spacing / VACUUM_PERMEABILITY
    return f"""
[grid]
height = {n}
width = {n}
extent_x_mm = 24.0
extent_y_mm = 24.0

[scanner]
gradient_x_t_per_m = -1.0
gradient_y_t_per_m = -1.0
drive_amplitude_x_mt = 12.0
drive_amplitude_y_mt = 12.0
drive_frequency_x_hz = {freq_hi}.0
drive_frequency_y_hz = {freq_hi - 1}.0
sample_rate_hz = {sample_rate}
repetition_time_s = 1.0

[kernel]
h_sat_a_per_m = {h_sat}

[pnp]
nu0 = 1e-5
iterations = 10
trim_percentile = 5.0
"""


def pnp_records_from_pipeline(result):
    per_iteration = {}
    for stage, record, field, value in result.diagnostics_rows:
        if stage == "deconvolve" and record.startswith("iter"):
            per_iteration.setdefault(int(record[4:]), {})[field] = float(value)
    return [per_iteration[k] for k in sorted(per_iteration)]


def record_pnp_run(label, records):
    RECORDED_PNP_RUNS.append((label, records))


def diagnostics_row(result, stage, record, field):
    for s, r, f, value in result.diagnostics_rows:
        if (s, r, f) == (stage, record, field):
            return value
    raise KeyError((stage, record, field))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_01_kernel_correctness():
    crit = Criterion(1, "kernel correctness", budget_s=1.0)
    rng = np.random.default_rng(2024)
    z = rng.uniform(-50.0, 50.0, size=10_000)
    z = z[np.abs(z) >= TAYLOR_CUTOFF]
    oracle_l = np.array([float(mp.coth(v) - 1 / mp.mpf(v)) for v in z])
    oracle_lp = np.array([float(1 / mp.mpf(v) ** 2 - 1 / mp.sinh(v) ** 2) for v in z])
    spec = KernelSpec(h=1.25)
    ys = rng.normal(size=(1000, 2)) * np.concatenate(
        [10.0 ** rng.uniform(-9, 1.5, 990), np.full(10, 1e-13)]
    )[:, None]

    start = time.perf_counter()  # library-side work only; the mpmath oracle is precomputed
    rel_l = np.abs(langevin(z) - oracle_l) / np.abs(oracle_l)
    rel_lp = np.abs(langevin_prime(z) - oracle_lp) / np.abs(oracle_lp)
    worst_trace = 0.0
    for y in ys:
        tr = float(np.trace(kernel_matrix(y, spec)))
        kappa = trace_kernel(y, spec)
        worst_trace = max(worst_trace, abs(tr - kappa) / abs(kappa))
    origin = kernel_matrix(np.zeros(2), spec)
    elapsed = time.perf_counter() - start
    crit.start = time.perf_counter() - elapsed

    crit.check(rel_l.max() < 1e-10, f"langevin oracle error {rel_l.max():.2e}")
    crit.check(rel_lp.max() < 1e-10, f"langevin_prime oracle error {rel_lp.max():.2e}")
    crit.check(worst_trace < 1e-12, f"trace identity error {worst_trace:.2e}")
    crit.check(
        np.array_equal(origin, np.eye(2) / (3.0 * spec.h)),
        "kernel at origin is not exactly I/(3h)",
    )
    crit.conclude(
        f"max rel err L={rel_l.max():.1e} L'={rel_lp.max():.1e} trace={worst_trace:.1e}"
    )


def test_criterion_02_convolution_oracle_equivalence():
    crit = Criterion(2, "convolution oracle equivalence", budget_s=5.0)
    from mpirecon.scanner import ScannerConfig

    grid = GridGeometry.node_centered((24e-3, 24e-3), (16, 16))
    config = ScannerConfig(
        gradient=(-1.0, -1.0),
        drive_amplitudes=(0.012, 0.012),
        drive_frequencies=(17.0, 16.0),
        sample_rate=1024.0,
        repetition_time=1.0,
    )
    spec = KernelSpec(h=2.0 * abs(config.gradient_field()[0]) * grid.spacing[0])
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        rho = rng.uniform(size=grid.shape)
        field = core_operator(ConcentrationImage(rho, grid), spec, config)
        for row in range(2):
            for col in range(2):
                kernel_img = discretize_kernel(grid, spec, (row, col), config.gradient_field())
                oracle = np.zeros(grid.shape)
                for iy in range(16):
                    for ix in range(16):
                        oracle += rho[iy, ix] * np.roll(kernel_img, (iy, ix), axis=(0, 1))
                oracle *= grid.pixel_area
                scale = np.abs(oracle).max()
                worst = max(worst, np.abs(field.entry(row, col) - oracle).max() / scale)
    crit.check(worst <= 1e-8, f"FFT vs naive convolution deviation {worst:.2e}")
    crit.conclude(f"max rel deviation {worst:.1e}")


def test_criterion_03_adjoint_and_symmetry():
    crit = Criterion(3, "adjoint and operator symmetry", budget_s=5.0)
    rng = np.random.default_rng(11)
    scheme = InterpolationScheme()
    worst_adjoint = 0.0
    worst_symmetry = 0.0
    worst_oracle = 0.0
    unequal_csr = 0
    for _ in range(100):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        grid = GridGeometry(shape=(h, w), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        n_pts = int(rng.integers(1, 40))
        pts = np.stack(
            [rng.uniform(0, w - 1, n_pts), rng.uniform(0, h - 1, n_pts)], axis=-1
        )
        field = rng.normal(size=(h, w))
        values = rng.normal(size=n_pts)
        lhs = float(np.dot(interpolate(field, pts, grid, scheme), values))
        rhs = float(np.sum(field * interpolation_adjoint(pts, values, grid, scheme)))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        vel = rng.normal(size=(n_pts, 2))
        mat = interpolation_matrix(grid, pts, scheme)
        lap = laplacian_matrix(grid.shape)
        reg = (lap.T @ lap).tocsr()
        gamma = 10.0 ** rng.uniform(-8, -2)
        sums, _ = _normal_equations(
            grid, pts, vel, np.zeros((n_pts, 1)), np.ones(n_pts, bool), scheme
        )
        normal = _normal_matrix(grid, sums, gamma)
        oracle = normal_operator(mat, vel, gamma=gamma, reg=reg, n_kept=n_pts)
        csr = normal_matrix_csr(grid, mat, vel, gamma, reg, n_pts)
        unequal_csr += not np.array_equal(normal.toarray(), csr.toarray())
        u = rng.normal(size=2 * h * w)
        v = rng.normal(size=2 * h * w)
        nu = normal @ u
        a = float(np.dot(nu, v))
        b = float(np.dot(u, normal @ v))
        worst_symmetry = max(worst_symmetry, abs(a - b) / max(abs(a), abs(b), 1e-300))
        expected = oracle(u)
        worst_oracle = max(
            worst_oracle, float(np.linalg.norm(nu - expected) / np.linalg.norm(expected))
        )
    crit.check(worst_adjoint < 1e-10, f"adjoint dot-product error {worst_adjoint:.2e}")
    crit.check(worst_symmetry < 1e-10, f"normal operator asymmetry {worst_symmetry:.2e}")
    crit.check(worst_oracle <= 1e-12, f"assembled vs matrix-free operator {worst_oracle:.2e}")
    crit.check(unequal_csr == 0, f"{unequal_csr} of 100 normal matrices differ from the CSR oracle")
    crit.conclude(
        f"adjoint {worst_adjoint:.1e}, symmetry {worst_symmetry:.1e}, oracle {worst_oracle:.1e}"
    )


def test_criterion_04_core_stage_round_trip():
    crit = Criterion(4, "core stage round trip", budget_s=60.0)
    from mpirecon.scanner import ScannerConfig

    n = 33
    grid = GridGeometry.node_centered((24e-3, 24e-3), (n, n))
    # >= 64 samples per cell crossing: peak speed |v| <= 2 pi f (A_x + A_y)
    # ~ 6.9 m/s, cell 0.75 mm => crossing >= 0.109 ms; at 600 kHz that is
    # >= 65 samples while the FFP traverses one cell.
    config = ScannerConfig(
        gradient=(-1.0, -1.0),
        drive_amplitudes=(0.012, 0.012),
        drive_frequencies=(65.0, 64.0),
        sample_rate=600_000.0,
        repetition_time=1.0,
    )
    spec = KernelSpec(h=2.0 * abs(config.gradient_field()[0]) * grid.spacing[0])
    rho = np.zeros(grid.shape)
    rho[n // 2, n // 2] = 1.0
    image = ConcentrationImage(rho, grid)
    trajectory = lissajous(config)
    signal = simulate_signal(image, trajectory, spec, config)
    solution = solve_core_stage(
        signal.values,
        trajectory.positions,
        trajectory.velocities,
        CoreStageConfig(grid=grid, gamma=1e-7, cg_tolerance=1e-3, cg_max_iterations=10_000),
    )
    trace = extract_trace(solution.field)
    expected = np.fft.irfft2(
        np.fft.rfft2(rho)
        * np.fft.rfft2(discretize_kernel(grid, spec, "trace", config.gradient_field())),
        s=grid.shape,
    ) * grid.pixel_area
    inner = (slice(2, -2), slice(2, -2))
    error = np.linalg.norm(trace[inner] - expected[inner]) / np.linalg.norm(expected[inner])
    crit.check(error < 0.05, f"interior trace error {error:.2%} >= 5%")
    crit.check(
        all(rec.converged for rec in solution.cg.values()),
        "core-stage CG did not converge",
    )
    crit.conclude(f"interior rel L2 error {error:.2%} over {len(trajectory)} samples")


@pytest.fixture(scope="module")
def resolution_run(workdir):
    """Criterion 6 pipeline: 33x33 two-bar phantom, 3 px separation."""
    config = pipeline_config(
        workdir,
        "res3",
        "stages = simulate,core,deconvolve\n"
        + desk_scan_section(33, 65, 69696)
        + two_bar_section(3),
    )
    result = run_pipeline(config)
    record_pnp_run("criterion-6 sep3", pnp_records_from_pipeline(result))
    return result


def test_criterion_06_resolution_proxy(workdir, resolution_run):
    crit = Criterion(6, "end-to-end resolution proxy", budget_s=120.0)
    dip3 = float(diagnostics_row(resolution_run, "deconvolve", "all", "center_row_dip_ratio"))

    config1 = pipeline_config(
        workdir,
        "res1",
        "stages = simulate,core,deconvolve\n"
        + desk_scan_section(33, 65, 69696)
        + two_bar_section(1),
    )
    result1 = run_pipeline(config1)
    record_pnp_run("criterion-6 sep1", pnp_records_from_pipeline(result1))
    dip1 = float(diagnostics_row(result1, "deconvolve", "all", "center_row_dip_ratio"))

    crit.check(dip3 >= 0.2, f"dip ratio {dip3:.3f} < 0.2 at 3 px separation")
    crit.check(dip1 < 0.2, f"dip ratio {dip1:.3f} at 1 px separation above the limit")
    crit.conclude(f"dip(sep 3 px) = {dip3:.3f}, dip(sep 1 px) = {dip1:.3f}")


def test_criterion_07_partial_data_path(workdir, resolution_run):
    crit = Criterion(7, "partial-data path", budget_s=120.0)
    # x-channel only of the same simulation: row 0 is recovered and the
    # first diagonal entry is deconvolved with its own kernel entry; the
    # same desk-scan section regenerates the simulation's Lissajous
    config = pipeline_config(
        workdir,
        "partial",
        "stages = core,deconvolve\n"
        + desk_scan_section(33, 65, 69696)
        + two_bar_section(3)
        + f"""
[core]
rows = 0

[preprocess]
signal_file = {resolution_run.out_dir}/signal.npy
""",
    )
    result = run_pipeline(config)
    record_pnp_run("criterion-7 partial", pnp_records_from_pipeline(result))
    dip = float(diagnostics_row(result, "deconvolve", "all", "center_row_dip_ratio"))
    crit.check(
        os.path.exists(os.path.join(result.out_dir, "entry_a00.float.txt")),
        "partial run did not write the first diagonal entry",
    )
    crit.check(
        not os.path.exists(os.path.join(result.out_dir, "core_A11.float.txt")),
        "partial run populated row 1",
    )
    crit.check(dip >= 0.15, f"partial-data dip ratio {dip:.3f} < 0.15")
    crit.conclude(f"dip from single-channel reconstruction = {dip:.3f}")


def test_criterion_08_percentile_trim_artifact_suppression():
    crit = Criterion(8, "percentile-trim artifact suppression", budget_s=60.0)
    n = 33
    grid = GridGeometry.node_centered((24e-3, 24e-3), (n, n))
    gradient = np.array([-1.0, -1.0]) / VACUUM_PERMEABILITY
    spec = KernelSpec(h=0.75 * abs(gradient[0]) * grid.spacing[0])
    kernel = discretize_kernel(grid, spec, "trace", gradient)
    kernel = kernel / kernel.sum()

    rho = np.zeros((n, n))
    c = n // 2
    rho[c - 10 : c + 11, c - 2] = 1.0
    rho[c - 10 : c + 11, c + 2] = 1.0
    support = rho > 0
    u = np.real(np.fft.ifft2(np.fft.fft2(rho) * np.fft.fft2(kernel)))
    yy, xx = np.mgrid[0:n, 0:n]
    u += -0.6 * u.max() * np.exp(-((xx - 7.0) ** 2 + (yy - 7.0) ** 2) / 8.0)

    energy = {}
    for trim in (0.0, 5.0):
        config = PnPConfig(nu0=1e-5, n_iterations=10, trim_percentile=trim)
        result = zero_shot_pnp(u, kernel, config)
        record_pnp_run(f"criterion-8 trim{trim:g}", [
            {"nu": r.nu, "sigma": r.sigma, "lambda": r.lam}
            for r in result.diagnostics.records
        ])
        energy[trim] = float(np.sum(result.image[~support] ** 2))
    crit.check(
        energy[5.0] < energy[0.0],
        f"outside-support energy with trim ({energy[5.0]:.3e}) is not below "
        f"untrimmed ({energy[0.0]:.3e})",
    )
    crit.conclude(f"outside-support energy {energy[0.0]:.3e} -> {energy[5.0]:.3e}")


def test_criterion_09_preprocessing_round_trip():
    crit = Criterion(9, "preprocessing round trip", budget_s=5.0)
    rng = np.random.default_rng(17)
    signal = ScanSignal(values=rng.normal(size=(256, 2)), times=np.arange(256) / 1e4)
    kernel = rng.normal(size=256) + 2.0
    filtered = apply_analog_filter(signal, kernel)
    spectrum = np.fft.rfft(kernel)
    tf = TransferFunction(
        spectra=np.tile(spectrum, (2, 1)), usable=np.ones((2, spectrum.size), dtype=bool)
    )
    recovered = correct_transfer_function(filtered, tf)
    round_trip = np.abs(recovered.values - signal.values).max() / np.abs(signal.values).max()
    crit.check(round_trip <= 1e-8, f"filter/correct round trip error {round_trip:.2e}")

    n_bins = signal.n_samples // 2 + 1
    profile = SnrProfile(
        values=rng.uniform(0, 2, size=(2, n_bins)), thresholds=np.array([1.0, 0.5])
    )
    once = snr_threshold(signal, profile)
    twice = snr_threshold(once, profile)
    idem = np.abs(twice.values - once.values).max() / np.abs(once.values).max()
    crit.check(idem <= 1e-13, f"snr_threshold not idempotent: {idem:.2e}")

    dc_free = ScanSignal(
        values=signal.values - signal.values.mean(axis=0, keepdims=True),
        times=signal.times,
    )
    asym = SnrProfile(
        values=np.stack([np.full(n_bins, 0.03), np.full(n_bins, 0.02)]),
        thresholds=np.array([0.04, 0.01]),
    )
    masked = snr_threshold(dc_free, asym)
    x_gone = np.abs(masked.values[:, 0]).max()
    y_kept = np.abs(masked.values[:, 1] - dc_free.values[:, 1]).max()
    crit.check(x_gone <= 1e-12, f"x-channel not fully zeroed: {x_gone:.2e}")
    crit.check(y_kept <= 1e-12, f"y-channel was modified: {y_kept:.2e}")
    crit.conclude(f"round trip {round_trip:.1e}, idempotency {idem:.1e}")


def test_criterion_10_performance_envelope(workdir):
    crit = Criterion(10, "performance envelope", budget_s=130.0)
    config21 = pipeline_config(
        workdir,
        "perf21",
        "stages = simulate,core,deconvolve\n"
        + desk_scan_section(21, 41, 28224)
        + two_bar_section(3, spacing_mm=1.2),
    )
    start = time.perf_counter()
    run_pipeline(config21)
    elapsed21 = time.perf_counter() - start

    config100 = pipeline_config(
        workdir,
        "perf100",
        "stages = simulate,core,deconvolve\n"
        + desk_scan_section(100, 101, 160000, h_pixels=1.0)
        + """
[phantom]
kind = two-bar
separation_mm = 2.4
bar_length_a_mm = 15.0
bar_length_b_mm = 15.0
bar_width_mm = 0.5
margin_mm = 2.0
""",
    )
    start = time.perf_counter()
    run_pipeline(config100)
    elapsed100 = time.perf_counter() - start

    crit.check(elapsed21 < 10.0, f"21x21 pipeline took {elapsed21:.2f}s (>= 10s)")
    crit.check(elapsed100 < 120.0, f"100x100 pipeline took {elapsed100:.2f}s (>= 120s)")
    crit.conclude(f"21x21 in {elapsed21:.2f}s, 100x100 in {elapsed100:.2f}s")


def test_criterion_05_pnp_scheduling_invariant():
    crit = Criterion(5, "pnp scheduling invariant", budget_s=5.0)
    crit.check(len(RECORDED_PNP_RUNS) >= 4, "no plug-and-play runs were recorded")
    for label, records in RECORDED_PNP_RUNS:
        if not records:
            crit.check(False, f"{label}: empty diagnostics")
            continue
        lam = records[-1]["lambda"]
        first = records[0]
        crit.check(
            abs(first["nu"] * first["sigma"] ** 2 - lam) <= 1e-12 * abs(lam),
            f"{label}: lambda != nu0 * sigma0^2",
        )
        for k in range(1, len(records)):
            nu_k = records[k]["nu"]
            sigma_k = records[k - 1]["sigma"]
            crit.check(
                abs(nu_k * sigma_k**2 - lam) <= 1e-12 * abs(lam),
                f"{label}: nu_{k} * sigma_{k}^2 deviates from lambda",
            )
    crit.conclude(f"checked {len(RECORDED_PNP_RUNS)} recorded runs")
