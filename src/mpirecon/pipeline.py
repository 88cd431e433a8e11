"""Config-driven reconstruction pipeline.

A run executes the selected stages in order

    simulate -> preprocess -> core -> deconvolve

handing data through memory and writing every artifact to the output
directory: image triples (phantom, core-operator entries, trace,
reconstruction), CSV signals/trajectories, a deterministic
``diagnostics.csv``, wall-clock ``timings.csv``, and ``manifest.txt``
naming every file written.  Later stages can start from files on disk,
so a run can begin at any stage.

Configuration is line-oriented ``key = value`` text with ``[section]``
headers (INI); values carry their unit in the key name.  See
``EXAMPLE_CONFIG`` for the full grammar with defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import time

import numpy as np

from .core_stage import CoreStageConfig, extract_trace, solve_core_stage
from .denoisers import DenoiserRef
from .fileio import (
    _fmt,
    load_image,
    load_signal,
    load_snr_profile,
    load_trajectory,
    load_transfer_function,
    save_core_field,
    save_image,
    save_signal,
    save_trajectory,
    write_manifest,
)
from .forward import add_noise, fft_convolve, simulate_signal
from .geometry import GridGeometry
from .interpolation import InterpolationScheme
from .kernels import KernelSpec, ParticleModel, discretize_kernel, saturation_field
from .phantoms import PhantomSpec, generate_phantom
from .pnp import PnPConfig, zero_shot_pnp
from .preprocessing import SnrProfile, correct_transfer_function, snr_threshold
from .scanner import ScannerConfig, decimate, excited_trajectory, lissajous

STAGES = ("simulate", "preprocess", "core", "deconvolve")

EXAMPLE_CONFIG = """\
[pipeline]
stages = simulate,core,deconvolve
out = runs/two_bar
seed = 0
noise_level = 0.0

[grid]
height = 33
width = 33
extent_x_mm = 24.0
extent_y_mm = 24.0

[scanner]
gradient_x_t_per_m = -1.0
gradient_y_t_per_m = -1.0
drive_amplitude_x_mt = 12.0
drive_amplitude_y_mt = 12.0
drive_frequency_x_hz = 65.0
drive_frequency_y_hz = 64.0
sample_rate_hz = 69696
repetition_time_s = 1.0
trajectory = lissajous
; excited trajectories additionally need:
; excitation_amplitude_mt = 2.0
; excitation_frequency_hz = 25000.0
; sampled trajectories instead use:
; trajectory = file
; trajectory_file = trajectory.csv
decimate = 1

[particle]
temperature_k = 293.0
saturation_magnetization_j_per_m3_t = 4.74e5
core_diameter_nm = 21.0

[kernel]
; resolution field scale; defaults to the particle saturation field
; h_sat_a_per_m = 568.0

[core]
gamma = 1e-7
cg_tolerance = 1e-3
cg_max_iterations = 10000
rows = 0,1
interpolation = cosine
laplacian_units = pixel

[pnp]
nu0 = 1e-5
iterations = 10
trim_percentile = 5.0
denoiser = total-variation
tv_scale = 1.0
tv_iterations = 60
blur_scale = 4.0
; denoiser_command = python3 my_denoiser.py
; denoiser_timeout_s = 30

[phantom]
kind = two-bar
separation_mm = 2.25
bar_length_a_mm = 15.0
bar_length_b_mm = 15.0
bar_width_mm = 0.7
margin_mm = 3.0

[preprocess]
; transfer_function_file = tf.csv
; snr_file = snr.csv
threshold_x = 0.0
threshold_y = 0.0

[deconvolve]
; input_trace = runs/earlier/trace
"""


class PipelineError(RuntimeError):
    """Stage failure with the stage name attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclasses.dataclass
class PipelineConfig:
    """Typed view over the INI configuration."""

    parser: configparser.ConfigParser
    base_dir: str = "."

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        with open(path) as f:
            parser.read_file(f)
        return cls(parser=parser, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_string(cls, text: str, base_dir: str = ".") -> "PipelineConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(text)
        return cls(parser=parser, base_dir=base_dir)

    def _get(self, section, key, default=None, cast=str):
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key).strip()
        if raw == "":
            return default
        return cast(raw)

    def path(self, section, key, default=None):
        value = self._get(section, key, default)
        if value is None:
            return None
        return value if os.path.isabs(value) else os.path.join(self.base_dir, value)

    def stages(self) -> tuple:
        raw = self._get("pipeline", "stages", "simulate,core,deconvolve")
        names = tuple(s.strip() for s in raw.split(",") if s.strip())
        for name in names:
            if name not in STAGES:
                raise ValueError(f"unknown stage {name!r}; valid stages: {STAGES}")
        return tuple(s for s in STAGES if s in names)

    def out_dir(self) -> str:
        out = self._get("pipeline", "out", "runs/out")
        return out if os.path.isabs(out) else os.path.join(self.base_dir, out)

    def seed(self) -> int:
        return self._get("pipeline", "seed", 0, int)

    def noise_level(self) -> float:
        return self._get("pipeline", "noise_level", 0.0, float)

    def grid(self) -> GridGeometry:
        height = self._get("grid", "height", 33, int)
        width = self._get("grid", "width", 33, int)
        ex = self._get("grid", "extent_x_mm", 24.0, float) * 1e-3
        ey = self._get("grid", "extent_y_mm", 24.0, float) * 1e-3
        return GridGeometry.node_centered((ex, ey), (height, width))

    def scanner(self) -> ScannerConfig:
        g = self._get
        return ScannerConfig(
            gradient=(
                g("scanner", "gradient_x_t_per_m", -1.0, float),
                g("scanner", "gradient_y_t_per_m", -1.0, float),
            ),
            drive_amplitudes=(
                g("scanner", "drive_amplitude_x_mt", 12.0, float) * 1e-3,
                g("scanner", "drive_amplitude_y_mt", 12.0, float) * 1e-3,
            ),
            drive_frequencies=(
                g("scanner", "drive_frequency_x_hz", 65.0, float),
                g("scanner", "drive_frequency_y_hz", 64.0, float),
            ),
            sample_rate=g("scanner", "sample_rate_hz", 69696.0, float),
            repetition_time=g("scanner", "repetition_time_s", 1.0, float),
            excitation_amplitude=(
                None
                if g("scanner", "excitation_amplitude_mt") is None
                else g("scanner", "excitation_amplitude_mt", cast=float) * 1e-3
            ),
            excitation_frequency=g("scanner", "excitation_frequency_hz", cast=float),
        )

    def particle(self) -> ParticleModel:
        g = self._get
        return ParticleModel(
            temperature=g("particle", "temperature_k", 293.0, float),
            saturation_magnetization=g(
                "particle", "saturation_magnetization_j_per_m3_t", 4.74e5, float
            ),
            core_diameter=g("particle", "core_diameter_nm", 21.0, float) * 1e-9,
        )

    def kernel_spec(self, h_override: float | None = None) -> KernelSpec:
        h = h_override
        if h is None:
            h = self._get("kernel", "h_sat_a_per_m", cast=float)
        if h is None:
            h = saturation_field(self.particle())
        kwargs = {}
        cutoff = self._get("kernel", "taylor_cutoff", cast=float)
        if cutoff is not None:
            kwargs["taylor_cutoff"] = cutoff
        return KernelSpec(h=h, dimension=2, **kwargs)

    def core(self) -> CoreStageConfig:
        g = self._get
        rows = tuple(
            int(r) for r in g("core", "rows", "0,1").split(",") if r.strip() != ""
        )
        return CoreStageConfig(
            grid=self.grid(),
            gamma=g("core", "gamma", 1e-7, float),
            cg_tolerance=g("core", "cg_tolerance", 1e-3, float),
            cg_max_iterations=g("core", "cg_max_iterations", 10_000, int),
            rows=rows,
            laplacian_units=g("core", "laplacian_units", "pixel"),
        )

    def interpolation(self) -> InterpolationScheme:
        return InterpolationScheme(self._get("core", "interpolation", "cosine"))

    def denoiser(self) -> DenoiserRef:
        g = self._get
        kind = g("pnp", "denoiser", "total-variation")
        command = g("pnp", "denoiser_command", "")
        return DenoiserRef(
            kind=kind,
            blur_scale=g("pnp", "blur_scale", 4.0, float),
            tv_scale=g("pnp", "tv_scale", 1.0, float),
            tv_iterations=g("pnp", "tv_iterations", 60, int),
            command=tuple(command.split()) if command else (),
            timeout=g("pnp", "denoiser_timeout_s", 30.0, float),
        )

    def pnp(self, nu0_override: float | None = None) -> PnPConfig:
        g = self._get
        return PnPConfig(
            nu0=nu0_override if nu0_override is not None else g("pnp", "nu0", 1e-5, float),
            n_iterations=g("pnp", "iterations", 10, int),
            trim_percentile=g("pnp", "trim_percentile", 5.0, float),
            denoiser=self.denoiser(),
        )

    def phantom(self) -> PhantomSpec:
        g = self._get
        return PhantomSpec(
            kind=g("phantom", "kind", "two-bar"),
            grid=self.grid(),
            margin_mm=g("phantom", "margin_mm", 0.0, float),
            dot_center_mm=(
                g("phantom", "dot_center_x_mm", 6.0, float),
                g("phantom", "dot_center_y_mm", 6.0, float),
            ),
            dot_size_mm=g("phantom", "dot_size_mm", 1.5, float),
            separation_mm=g("phantom", "separation_mm", 3.0, float),
            bar_lengths_mm=(
                g("phantom", "bar_length_a_mm", 20.0, float),
                g("phantom", "bar_length_b_mm", 17.5, float),
            ),
            bar_width_mm=g("phantom", "bar_width_mm", 1.0, float),
            bar_axis=g("phantom", "bar_axis", "x"),
        )

    def sweep_pairs(self) -> list:
        raw = self._get("sweep", "pairs", "")
        pairs = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            h_sat, nu0 = chunk.split(",")
            pairs.append((float(h_sat), float(nu0)))
        return pairs

    def validate(self) -> None:
        """Referenced input files must exist."""
        for section, key in (
            ("scanner", "trajectory_file"),
            ("preprocess", "transfer_function_file"),
            ("preprocess", "snr_file"),
            ("preprocess", "signal_file"),
        ):
            value = self._get(section, key)
            if value is not None:
                path = self.path(section, key)
                if not os.path.exists(path):
                    raise FileNotFoundError(f"[{section}] {key} = {value}: file not found")
        trace = self._get("deconvolve", "input_trace")
        if trace is not None:
            base = self.path("deconvolve", "input_trace")
            if not os.path.exists(base + ".float.txt"):
                raise FileNotFoundError(
                    f"[deconvolve] input_trace = {trace}: {base}.float.txt not found"
                )
        self.stages()


@dataclasses.dataclass
class PipelineResult:
    out_dir: str
    artifacts: dict
    diagnostics_rows: list
    timings: dict
    manifest_path: str


def dip_ratio(profile: np.ndarray) -> float:
    """1 - (minimum between the two tallest interior peaks) / (mean peak);
    0 when fewer than two peaks exist."""
    profile = np.asarray(profile, dtype=float)
    peaks = [
        i
        for i in range(1, len(profile) - 1)
        if profile[i] >= profile[i - 1] and profile[i] >= profile[i + 1]
    ]
    peaks = [i for i in peaks if profile[i] > 0]
    if len(peaks) < 2:
        return 0.0
    tallest = sorted(sorted(peaks, key=lambda i: -profile[i])[:2])
    a, b = tallest
    valley = profile[a : b + 1].min()
    mean_peak = 0.5 * (profile[a] + profile[b])
    return float(1.0 - valley / mean_peak)


def extract_profile(image: np.ndarray, axis: str, index: int, geometry: GridGeometry):
    """One row or column with its physical coordinates in meters."""
    image = np.asarray(image, dtype=float)
    if axis == "row":
        if not 0 <= index < image.shape[0]:
            raise IndexError(f"row {index} out of range for {image.shape}")
        return geometry.x_coords(), image[index, :].copy()
    if axis in ("column", "col"):
        if not 0 <= index < image.shape[1]:
            raise IndexError(f"column {index} out of range for {image.shape}")
        return geometry.y_coords(), image[:, index].copy()
    raise ValueError("axis must be 'row' or 'column'")


def _deconvolution_kernel(config: PipelineConfig, grid, scanner, h_override=None):
    """Kernel image for the deconvolution stage, normalized to unit sum.

    Full-row reconstructions deconvolve the trace with the trace kernel;
    single-row ones deconvolve the diagonal entry with that entry's
    kernel.
    """
    spec = config.kernel_spec(h_override)
    rows = config.core().rows
    selector = "trace" if len(rows) == 2 else (rows[0], rows[0])
    kernel = discretize_kernel(grid, spec, selector, scanner.gradient_field())
    total = kernel.sum()
    if total <= 0:
        raise ValueError("kernel image has nonpositive sum; cannot normalize")
    return kernel / total


class _Run:
    """Single pipeline execution with disk/memory stage handoff."""

    def __init__(self, config: PipelineConfig, out_dir=None, seed=None):
        self.config = config
        self.out = out_dir or config.out_dir()
        self.seed = config.seed() if seed is None else seed
        self.files: list = []
        self.rows: list = []
        self.timings: dict = {}
        self.artifacts: dict = {}
        self.phantom_image = None
        self.trajectory = None
        self.signal = None
        self.core_solution = None
        self.deconv_input = None  # (values, geometry)

    def _save_image(self, name, values, geometry):
        base = os.path.join(self.out, name)
        self.files.extend(save_image(base, values, geometry))
        self.artifacts[name] = base

    def phantom_stage(self):
        spec = self.config.phantom()
        self.phantom_image = generate_phantom(spec)
        self._save_image("phantom", self.phantom_image.values, self.phantom_image.geometry)

    def simulate_stage(self):
        if self.phantom_image is None:
            self.phantom_stage()
        scanner = self.config.scanner()
        kind = self.config._get("scanner", "trajectory", "lissajous")
        if kind == "lissajous":
            traj = lissajous(scanner)
        elif kind == "excited":
            traj = excited_trajectory(scanner)
        elif kind == "file":
            traj = load_trajectory(self.config.path("scanner", "trajectory_file"))
        else:
            raise ValueError(f"unknown trajectory kind {kind!r}")
        step = self.config._get("scanner", "decimate", 1, int)
        if step > 1:
            traj = decimate(traj, step)
        self.trajectory = traj
        spec = self.config.kernel_spec()
        signal = simulate_signal(
            self.phantom_image, traj, spec, scanner, self.config.interpolation()
        )
        level = self.config.noise_level()
        if level > 0:
            signal = add_noise(signal, level, self.seed)
        self.signal = signal
        traj_path = os.path.join(self.out, "trajectory.csv")
        save_trajectory(traj_path, traj)
        sig_path = os.path.join(self.out, "signal.csv")
        save_signal(sig_path, signal)
        self.files.extend([traj_path, sig_path])
        self.artifacts["trajectory"] = traj_path
        self.artifacts["signal"] = sig_path

    def _load_signal_if_needed(self):
        if self.signal is None:
            source = self.config.path("preprocess", "signal_file") or os.path.join(
                self.out, "signal.csv"
            )
            self.signal = load_signal(source)
        if self.trajectory is None:
            traj_file = self.config.path("scanner", "trajectory_file") or os.path.join(
                self.out, "trajectory.csv"
            )
            if os.path.exists(traj_file):
                self.trajectory = load_trajectory(traj_file)

    def preprocess_stage(self):
        self._load_signal_if_needed()
        signal = self.signal
        n_bins = signal.n_samples // 2 + 1
        tf_path = self.config.path("preprocess", "transfer_function_file")
        if tf_path is not None:
            tf = load_transfer_function(tf_path, signal.n_channels, n_bins)
            signal = correct_transfer_function(signal, tf)
        thresholds = [
            self.config._get("preprocess", "threshold_x", 0.0, float),
            self.config._get("preprocess", "threshold_y", 0.0, float),
        ][: signal.n_channels]
        snr_path = self.config.path("preprocess", "snr_file")
        if snr_path is not None:
            profile = load_snr_profile(snr_path, signal.n_channels, n_bins, thresholds)
        else:
            profile = SnrProfile(
                values=np.full((signal.n_channels, n_bins), np.inf),
                thresholds=np.asarray(thresholds),
            )
        signal = snr_threshold(signal, profile)
        self.signal = signal
        path = os.path.join(self.out, "signal_preprocessed.csv")
        save_signal(path, signal)
        self.files.append(path)
        self.artifacts["signal_preprocessed"] = path

    def core_stage(self):
        self._load_signal_if_needed()
        if self.trajectory is None:
            raise ValueError("core stage needs a trajectory (run simulate or provide a file)")
        core_cfg = self.config.core()
        rows = core_cfg.rows
        values = self.signal.values
        if values.shape[1] < len(rows):
            raise ValueError(
                f"signal has {values.shape[1]} channels but rows {rows} were requested"
            )
        if values.shape[1] != len(rows):
            values = values[:, list(rows)]
        solution = solve_core_stage(
            values,
            self.trajectory.positions,
            self.trajectory.velocities,
            core_cfg,
            self.config.interpolation(),
        )
        self.core_solution = solution
        self.files.extend(save_core_field(self.out, "core", solution.field))
        for row, record in solution.cg.items():
            self.rows.append(("core", f"row{row}", "cg_iterations", record.iterations))
            self.rows.append(("core", f"row{row}", "cg_residual", record.final_residual))
            self.rows.append(("core", f"row{row}", "converged", int(record.converged)))
        self.rows.append(("core", "all", "dropped_samples", solution.dropped_samples))
        grid = solution.field.geometry
        if len(rows) == solution.field.dimension:
            target = extract_trace(solution.field)
            name = "trace"
        else:
            target = solution.field.entry(rows[0], rows[0])
            name = f"entry_a{rows[0]}{rows[0]}"
        self.deconv_input = (target, grid)
        self._save_image(name, target, grid)

    def deconvolve_stage(self):
        trace_base = self.config.path("deconvolve", "input_trace")
        if self.deconv_input is None:
            if trace_base is None:
                candidate = os.path.join(self.out, "trace")
                if not os.path.exists(candidate + ".float.txt"):
                    raise ValueError(
                        "deconvolve stage needs a trace (run core or set "
                        "[deconvolve] input_trace)"
                    )
                trace_base = candidate
            image = load_image(trace_base)
            self.deconv_input = (image.values, image.geometry)
        values, grid = self.deconv_input
        scanner = self.config.scanner()
        kernel = _deconvolution_kernel(self.config, grid, scanner)
        result = zero_shot_pnp(values, kernel, self.config.pnp())
        for rec in result.diagnostics.records:
            k = f"iter{rec.iteration}"
            self.rows.append(("deconvolve", k, "nu", rec.nu))
            self.rows.append(("deconvolve", k, "sigma", rec.sigma))
            self.rows.append(("deconvolve", k, "lambda", rec.lam))
        self.rows.append(
            ("deconvolve", "all", "degenerate", int(result.diagnostics.degenerate))
        )
        center = grid.shape[0] // 2
        _, profile = extract_profile(result.image, "row", center, grid)
        self.rows.append(("deconvolve", "all", "center_row_dip_ratio", dip_ratio(profile)))
        self._save_image("recon", result.image, grid)

    def execute(self, stages):
        os.makedirs(self.out, exist_ok=True)
        runners = {
            "simulate": self.simulate_stage,
            "preprocess": self.preprocess_stage,
            "core": self.core_stage,
            "deconvolve": self.deconvolve_stage,
        }
        for stage in stages:
            start = time.perf_counter()
            try:
                runners[stage]()
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(stage, exc) from exc
            self.timings[stage] = time.perf_counter() - start
        self._write_reports()
        return PipelineResult(
            out_dir=self.out,
            artifacts=self.artifacts,
            diagnostics_rows=self.rows,
            timings=self.timings,
            manifest_path=os.path.join(self.out, "manifest.txt"),
        )

    def _write_reports(self):
        diag = os.path.join(self.out, "diagnostics.csv")
        with open(diag, "w") as f:
            f.write("stage,record,field,value\n")
            for stage, record, field, value in self.rows:
                rendered = _fmt(value) if isinstance(value, float) else str(value)
                f.write(f"{stage},{record},{field},{rendered}\n")
        self.files.append(diag)
        timings = os.path.join(self.out, "timings.csv")
        with open(timings, "w") as f:
            f.write("stage,seconds\n")
            for stage, seconds in self.timings.items():
                f.write(f"{stage},{seconds:.6f}\n")
        self.files.append(timings)
        write_manifest(self.out, self.files)


def run_pipeline(
    config: PipelineConfig,
    out_dir: str | None = None,
    seed: int | None = None,
    stages: tuple | None = None,
) -> PipelineResult:
    """Execute the configured stages; deterministic for a given seed
    (wall-clock timings aside)."""
    config.validate()
    run = _Run(config, out_dir=out_dir, seed=seed)
    return run.execute(stages if stages is not None else config.stages())


def generate_phantom_only(
    config: PipelineConfig, out_dir: str | None = None
) -> PipelineResult:
    """Rasterize and write just the configured phantom."""
    run = _Run(config, out_dir=out_dir)
    os.makedirs(run.out, exist_ok=True)
    start = time.perf_counter()
    try:
        run.phantom_stage()
    except Exception as exc:
        raise PipelineError("phantom", exc) from exc
    run.timings["phantom"] = time.perf_counter() - start
    run._write_reports()
    return PipelineResult(
        out_dir=run.out,
        artifacts=run.artifacts,
        diagnostics_rows=run.rows,
        timings=run.timings,
        manifest_path=os.path.join(run.out, "manifest.txt"),
    )


def sweep(
    config: PipelineConfig,
    pairs: list | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
) -> list:
    """Grid search over (h_sat, nu0) pairs for the deconvolution stage.

    Earlier stages run once; each pair deconvolves the same input with
    its own kernel scale and coupling.  Two-bar phantoms score by the
    center-row dip ratio, anything else by the negated relative data
    residual, so higher is better either way.  Per-pair failures are
    recorded and the sweep continues.  Results land in ``sweep.csv``
    ranked by score.
    """
    if pairs is None:
        pairs = config.sweep_pairs()
    if not pairs:
        raise ValueError("sweep needs at least one (h_sat, nu0) pair")
    config.validate()
    run = _Run(config, out_dir=out_dir, seed=seed)
    prelude = tuple(s for s in config.stages() if s != "deconvolve")
    base = run.execute(prelude)

    if run.deconv_input is None:
        trace_base = config.path("deconvolve", "input_trace")
        if trace_base is None:
            raise ValueError("sweep needs a trace: include the core stage or input_trace")
        image = load_image(trace_base)
        run.deconv_input = (image.values, image.geometry)
    values, grid = run.deconv_input
    scanner = config.scanner()
    is_bar_phantom = config._get("phantom", "kind", "two-bar") == "two-bar"

    results = []
    for h_sat, nu0 in pairs:
        try:
            kernel = _deconvolution_kernel(config, grid, scanner, h_override=h_sat)
            result = zero_shot_pnp(values, kernel, config.pnp(nu0_override=nu0))
            if is_bar_phantom:
                center = grid.shape[0] // 2
                _, profile = extract_profile(result.image, "row", center, grid)
                score = dip_ratio(profile)
            else:
                blurred = fft_convolve(result.image, kernel, 1.0)
                score = -float(
                    np.linalg.norm(blurred - values) / max(np.linalg.norm(values), 1e-300)
                )
            results.append({"h_sat": h_sat, "nu0": nu0, "score": score, "status": "ok"})
        except Exception as exc:  # noqa: BLE001 - per-pair failures are data
            results.append(
                {"h_sat": h_sat, "nu0": nu0, "score": float("nan"), "status": f"error: {exc}"}
            )
    ranked = sorted(
        results, key=lambda r: (r["status"] != "ok", -(r["score"] if r["status"] == "ok" else 0))
    )
    sweep_path = os.path.join(base.out_dir, "sweep.csv")
    with open(sweep_path, "w") as f:
        f.write("h_sat,nu0,score,status\n")
        for row in ranked:
            f.write(f"{_fmt(row['h_sat'])},{_fmt(row['nu0'])},{_fmt(row['score'])},{row['status']}\n")
    run.files.append(sweep_path)
    write_manifest(base.out_dir, run.files)
    return ranked
