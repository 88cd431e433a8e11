"""Config-driven reconstruction pipeline.

A run executes the selected stages in order

    simulate -> core -> deconvolve

handing data through memory and writing every artifact to the output
directory: image triples (phantom, core-operator entries, trace,
reconstruction), the ``.npy`` signal, a deterministic
``diagnostics.csv``, wall-clock ``timings.csv``, and ``manifest.txt``
naming every file written.  ``core`` fits the signal after the
``[preprocess]`` corrections.  Later stages can start from files on
disk, so a run can begin at any stage.  The trajectory is written only
when it came from a file; a later stage regenerates an analytic one
from the config.

Configuration is INI text whose keys carry their unit in the name.
``SCHEMA`` lists every section and key with its type, default and doc;
parsing, validation and ``example_config()`` come from it.  Unknown
keys and unparsable values fail when the config is read.
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
from .forward import MIN_SAMPLES, add_noise, fft_convolve, nonuniform_stamps, simulate_signal
from .geometry import GridGeometry
from .interpolation import InterpolationScheme
from .kernels import (
    KernelSpec,
    ParticleModel,
    check_kernel_scale,
    discretize_kernel,
    saturation_field,
)
from .phantoms import PhantomSpec, generate_phantom
from .pnp import PnPConfig, zero_shot_pnp
from .preprocessing import SnrProfile, correct_transfer_function, snr_threshold
from .scanner import ScannerConfig, decimate, excited_trajectory, lissajous

STAGES = ("simulate", "core", "deconvolve")


def _ordered_stages(names) -> tuple:
    """``names`` in pipeline order; a name not in ``STAGES`` raises."""
    for name in names:
        if name not in STAGES:
            raise ValueError(f"unknown stage {name!r}; valid stages: {STAGES}")
    return tuple(s for s in STAGES if s in names)


def parse_pairs(raw: str) -> list:
    """``h_sat,nu0`` pairs separated by ``;`` (``sweep --pairs``)."""
    pairs = []
    for chunk in filter(str.strip, raw.split(";")):
        try:
            h_sat, nu0 = (float(v) for v in chunk.split(","))
        except ValueError:
            raise ValueError(f"pair {chunk.strip()!r} is not h_sat,nu0") from None
        pairs.append((h_sat, nu0))
    return pairs


# Value types as (parse a non-empty value, write a default back as text).
FLOAT = (float, repr)
INT = (int, str)
TEXT = (str, str)
INTS = (lambda raw: tuple(map(int, filter(str.strip, raw.split(",")))),
        lambda v: ",".join(map(str, v)))
WORDS = (lambda raw: tuple(raw.split()), " ".join)


# section -> rows of (key, type, default, doc); a None default means unset.
# Keys that fill a dataclass field with a default take it from the class.
SCHEMA = {
    "pipeline": (
        ("stages", TEXT, "simulate,core,deconvolve", "any of " + ",".join(STAGES)),
        ("out", TEXT, "runs/out", "output directory, relative to the config file"),
        ("seed", INT, 0, "seed of the added measurement noise"),
        ("noise_level", FLOAT, 0.0, "added Gaussian noise relative to the signal"),
    ),
    "grid": (
        ("height", INT, 33, "pixel rows"),
        ("width", INT, 33, "pixel columns"),
        ("extent_x_mm", FLOAT, 24.0, "scan window; outer pixel centres on its edge"),
        ("extent_y_mm", FLOAT, 24.0, "scan window height"),
    ),
    "scanner": (
        ("gradient_x_t_per_m", FLOAT, -1.0, "selection-field gradient (mu0-scaled)"),
        ("gradient_y_t_per_m", FLOAT, -1.0, "selection-field gradient (mu0-scaled)"),
        ("drive_amplitude_x_mt", FLOAT, 12.0, "drive-field amplitude (mu0-scaled)"),
        ("drive_amplitude_y_mt", FLOAT, 12.0, "drive-field amplitude (mu0-scaled)"),
        ("drive_frequency_x_hz", FLOAT, 65.0, "drive-field frequency"),
        ("drive_frequency_y_hz", FLOAT, 64.0, "drive-field frequency"),
        ("sample_rate_hz", FLOAT, 69696.0, "acquisition rate"),
        ("repetition_time_s", FLOAT, 1.0, "length of one drive period"),
        ("excitation_amplitude_mt", FLOAT, None, "fast excitation on x; set with its frequency"),
        ("excitation_frequency_hz", FLOAT, None, "fast excitation on x; set with its amplitude"),
        ("trajectory_file", TEXT, None, "t,x,y[,vx,vy] CSV; empty: generated from the drive"),
        ("decimate", INT, 1, "keep every n-th trajectory sample"),
    ),
    "particle": (
        ("temperature_k", FLOAT, 293.0, "particle temperature"),
        ("saturation_magnetization_j_per_m3_t", FLOAT, 4.74e5, "core saturation magnetization"),
        ("core_diameter_nm", FLOAT, 21.0, "magnetic core diameter"),
    ),
    "kernel": (("h_sat_a_per_m", FLOAT, None, "kernel field scale; empty: the particle's"),),
    "core": (
        ("gamma", FLOAT, CoreStageConfig.gamma, "weight of the Laplacian smoothness term"),
        ("cg_tolerance", FLOAT, CoreStageConfig.cg_tolerance, "relative CG residual to stop at"),
        ("cg_max_iterations", INT, CoreStageConfig.cg_max_iterations, "CG cap per row"),
        ("rows", INTS, CoreStageConfig.rows, "operator rows to recover; one: partial data"),
        ("interpolation", TEXT, InterpolationScheme.kind, "cosine or bilinear"),
    ),
    "pnp": (
        ("nu0", FLOAT, PnPConfig.nu0, "initial coupling of the Tikhonov step"),
        ("iterations", INT, PnPConfig.n_iterations, "plug-and-play iterations"),
        ("trim_percentile", FLOAT, PnPConfig.trim_percentile, "trimmed before noise estimation"),
        ("tv_scale", FLOAT, DenoiserRef.tv_scale, "TV weight per unit squared noise"),
        ("denoiser_command", WORDS, DenoiserRef.command, "argv of the external denoiser; "
         "empty: total variation"),
        ("denoiser_timeout_s", FLOAT, DenoiserRef.timeout, "wait per external request"),
    ),
    "phantom": (
        ("kind", TEXT, "two-bar", "empty, dot, two-bar, snake, ice-cream or snail"),
        ("margin_mm", FLOAT, PhantomSpec.margin_mm, "zero border against wrap-around"),
        ("dot_center_x_mm", FLOAT, PhantomSpec.dot_center_mm[0], "dot position"),
        ("dot_center_y_mm", FLOAT, PhantomSpec.dot_center_mm[1], "dot position"),
        ("dot_size_mm", FLOAT, PhantomSpec.dot_size_mm, "dot edge length"),
        ("separation_mm", FLOAT, PhantomSpec.separation_mm, "distance of the bar centres"),
        ("bar_length_a_mm", FLOAT, PhantomSpec.bar_lengths_mm[0], "first bar"),
        ("bar_length_b_mm", FLOAT, PhantomSpec.bar_lengths_mm[1], "second bar"),
        ("bar_width_mm", FLOAT, PhantomSpec.bar_width_mm, "both bars"),
    ),
    "preprocess": (
        ("signal_file", TEXT, None, "signal .npy or CSV core fits; empty: <out>/signal.npy"),
        ("transfer_function_file", TEXT, None, "bin,channel,re,im CSV core divides out"),
        ("snr_file", TEXT, None, "bin,channel,snr CSV core thresholds by"),
        ("threshold_x", FLOAT, 0.0, "core drops bins below this SNR"),
        ("threshold_y", FLOAT, 0.0, "core drops bins below this SNR"),
    ),
    "deconvolve": (("input_trace", TEXT, None, "trace image base; empty: the core stage's"),),
}
_TYPES = {section: {row[0]: row[1] for row in rows} for section, rows in SCHEMA.items()}
_DEFAULTS = {section: {row[0]: row[2] for row in rows} for section, rows in SCHEMA.items()}
# (section, key, suffix) of every input a config can name; suffix picks the file to check
_INPUTS = [(s, key, "") for s, types in _TYPES.items() for key in types if key.endswith("_file")]
_INPUTS.append(("deconvolve", "input_trace", ".float.txt"))


def _hint(name: str, known) -> str:
    import difflib

    close = difflib.get_close_matches(name, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _parse(text: str, source: str) -> dict:
    """Every key's typed value or default; unknown or unparsable entries raise."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.read_string(text, source)
    values = {section: dict(defaults) for section, defaults in _DEFAULTS.items()}
    if parser.defaults():
        raise ValueError(f"[{parser.default_section}] unknown section")
    for section in parser.sections():
        if section not in SCHEMA:
            raise ValueError(f"[{section}] unknown section{_hint(section, SCHEMA)}")
        types = _TYPES[section]
        for key, raw in parser.items(section):
            if key not in types:
                raise ValueError(f"[{section}] {key}: unknown key{_hint(key, types)}")
            raw = raw.strip()
            if raw:
                try:
                    values[section][key] = types[key][0](raw)
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key} = {raw}: {exc}") from None
    return values


def example_config() -> str:
    """Every key of ``SCHEMA`` with its default; parses back to the defaults."""
    lines = ["; Every mpirecon config key with its default; an empty value means the default."]
    for section, rows in SCHEMA.items():
        lines += ["", f"[{section}]"]
        for key, (_, show), default, doc in rows:
            setting = f"{key} = {'' if default is None else show(default)}"
            lines.append(f"{setting:<44} ; {doc}")
    return "\n".join(lines) + "\n"


class PipelineError(RuntimeError):
    """Stage failure with the stage name attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@dataclasses.dataclass
class PipelineConfig:
    """Typed view over the INI configuration: ``values[section][key]`` for every key."""

    values: dict
    base_dir: str = "."

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path) as f:
            text = f.read()
        return cls(values=_parse(text, path), base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_string(cls, text: str, base_dir: str = ".") -> "PipelineConfig":
        return cls(values=_parse(text, "<string>"), base_dir=base_dir)

    def path(self, section, key):
        value = self.values[section][key]
        return None if value is None else os.path.join(self.base_dir, value)

    def stages(self) -> tuple:
        raw = self.values["pipeline"]["stages"]
        return _ordered_stages([s.strip() for s in raw.split(",") if s.strip()])

    def out_dir(self) -> str:
        return self.path("pipeline", "out")

    def seed(self) -> int:
        return self.values["pipeline"]["seed"]

    def noise_level(self) -> float:
        return self.values["pipeline"]["noise_level"]

    def grid(self) -> GridGeometry:
        v = self.values["grid"]
        extent = (v["extent_x_mm"] * 1e-3, v["extent_y_mm"] * 1e-3)
        return GridGeometry.node_centered(extent, (v["height"], v["width"]))

    def scanner(self) -> ScannerConfig:
        v = self.values["scanner"]
        excitation = v["excitation_amplitude_mt"]
        return ScannerConfig(
            gradient=(v["gradient_x_t_per_m"], v["gradient_y_t_per_m"]),
            drive_amplitudes=(v["drive_amplitude_x_mt"] * 1e-3, v["drive_amplitude_y_mt"] * 1e-3),
            drive_frequencies=(v["drive_frequency_x_hz"], v["drive_frequency_y_hz"]),
            sample_rate=v["sample_rate_hz"],
            repetition_time=v["repetition_time_s"],
            excitation_amplitude=None if excitation is None else excitation * 1e-3,
            excitation_frequency=v["excitation_frequency_hz"],
        )

    def particle(self) -> ParticleModel:
        v = self.values["particle"]
        return ParticleModel(
            temperature=v["temperature_k"],
            saturation_magnetization=v["saturation_magnetization_j_per_m3_t"],
            core_diameter=v["core_diameter_nm"] * 1e-9,
        )

    def kernel_spec(self) -> KernelSpec:
        h = self.values["kernel"]["h_sat_a_per_m"]
        return KernelSpec(h=saturation_field(self.particle()) if h is None else h)

    def core(self) -> CoreStageConfig:
        v = self.values["core"]
        return CoreStageConfig(
            grid=self.grid(),
            gamma=v["gamma"],
            cg_tolerance=v["cg_tolerance"],
            cg_max_iterations=v["cg_max_iterations"],
            rows=v["rows"],
        )

    def interpolation(self) -> InterpolationScheme:
        return InterpolationScheme(self.values["core"]["interpolation"])

    def denoiser(self) -> DenoiserRef:
        v = self.values["pnp"]
        return DenoiserRef(
            tv_scale=v["tv_scale"],
            command=v["denoiser_command"],
            timeout=v["denoiser_timeout_s"],
        )

    def pnp(self) -> PnPConfig:
        v = self.values["pnp"]
        return PnPConfig(
            nu0=v["nu0"],
            n_iterations=v["iterations"],
            trim_percentile=v["trim_percentile"],
            denoiser=self.denoiser(),
        )

    def phantom(self) -> PhantomSpec:
        v = self.values["phantom"]
        return PhantomSpec(
            kind=v["kind"],
            grid=self.grid(),
            margin_mm=v["margin_mm"],
            dot_center_mm=(v["dot_center_x_mm"], v["dot_center_y_mm"]),
            dot_size_mm=v["dot_size_mm"],
            separation_mm=v["separation_mm"],
            bar_lengths_mm=(v["bar_length_a_mm"], v["bar_length_b_mm"]),
            bar_width_mm=v["bar_width_mm"],
        )

    def validate(self, inputs: bool = True) -> None:
        """Every getter's dataclass accepts its values; the kernel scale
        samples the grid without overflow; every key set is read; with
        ``inputs``, referenced input files exist."""
        getters = (
            ("grid", self.grid),
            ("scanner", self.scanner),
            ("particle", self.particle),
            ("kernel", self.kernel_spec),
            ("kernel", lambda: check_kernel_scale(
                self.grid(), self.kernel_spec(), self.scanner().gradient_field()
            )),
            ("core", self.core),
            ("core", self.interpolation),
            ("pnp", self.pnp),
            ("phantom", self.phantom),
        )
        for section, getter in getters:
            try:
                getter()
            except ValueError as exc:
                raise ValueError(f"[{section}] {exc}") from None
        if not 0 <= self.noise_level() < np.inf:
            raise ValueError(
                f"[pipeline] noise_level must be finite and nonnegative, got {self.noise_level()}"
            )
        scanner = self.values["scanner"]
        excitation = scanner["excitation_amplitude_mt"]
        if excitation is not None and scanner["trajectory_file"] is not None:
            raise ValueError(
                f"[scanner] excitation_amplitude_mt = {excitation} is not read with a "
                "trajectory_file"
            )
        if scanner["decimate"] < 1:
            raise ValueError(f"[scanner] decimate must be at least 1, got {scanner['decimate']}")
        if scanner["trajectory_file"] is None:
            per_period = self.scanner().samples_per_period
            kept = -(-per_period // scanner["decimate"])
            if kept < MIN_SAMPLES:
                raise ValueError(
                    f"[scanner] decimate = {scanner['decimate']} keeps {kept} of {per_period} "
                    f"samples per period; a signal needs at least {MIN_SAMPLES}"
                )
        preprocess = self.values["preprocess"]
        for key in ("threshold_x", "threshold_y"):
            if preprocess[key] != 0.0 and preprocess["snr_file"] is None:
                raise ValueError(
                    f"[preprocess] {key} = {preprocess[key]} is only read with an snr_file"
                )
        pnp = self.values["pnp"]
        command = pnp["denoiser_command"]
        key = "tv_scale" if command else "denoiser_timeout_s"
        if pnp[key] != _DEFAULTS["pnp"][key]:
            reader = "without" if command else "with"
            raise ValueError(f"[pnp] {key} = {pnp[key]} is only read {reader} a denoiser_command")
        for section, key, suffix in _INPUTS if inputs else ():
            path = self.path(section, key)
            if path is not None and not os.path.exists(path + suffix):
                value = self.values[section][key]
                raise FileNotFoundError(f"[{section}] {key} = {value}: {path + suffix} not found")
        self.stages()


@dataclasses.dataclass
class PipelineResult:
    out_dir: str
    artifacts: dict
    diagnostics_rows: list
    timings: dict


# Least topographic prominence of a counted peak, as a fraction of the
# profile maximum: tail ripples of a few tenths of a percent stay out,
# while the second bar of a 160 x 160 trace's centre row (0.16) counts
PEAK_PROMINENCE = 0.1


def dip_ratio(profile: np.ndarray) -> float:
    """1 - (minimum between the two tallest interior peaks) / (mean peak);
    0 when fewer than two peaks exist.

    A peak is an interior run of equal samples, above zero and higher than
    its neighbours, whose topographic prominence is at least
    ``PEAK_PROMINENCE`` of the profile maximum: its height over the higher
    of its two bases, the lowest sample between it and the nearest higher
    sample on that side, or the profile's end.  The profile is not
    clipped, so a valley below zero reads above 1."""
    profile = np.asarray(profile, dtype=float)
    # one sample per run of equal ones; no base, peak height or valley changes
    profile = profile[np.r_[True, profile[1:] != profile[:-1]][: profile.size]]
    least = PEAK_PROMINENCE * profile.max(initial=0.0)
    peaks = []
    for i in range(1, len(profile) - 1):
        if not (profile[i] > 0 and profile[i] >= profile[i - 1] and profile[i] >= profile[i + 1]):
            continue
        higher = np.flatnonzero(profile > profile[i])
        left, right = higher[higher < i], higher[higher > i]
        left_base = profile[left[-1] + 1 if left.size else 0 : i + 1].min()
        right_base = profile[i : right[0] if right.size else len(profile)].min()
        if profile[i] - max(left_base, right_base) >= least:
            peaks.append(i)
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
    if axis == "column":
        if not 0 <= index < image.shape[1]:
            raise IndexError(f"column {index} out of range for {image.shape}")
        return geometry.y_coords(), image[:, index].copy()
    raise ValueError("axis must be 'row' or 'column'")


def _deconv_target(config: PipelineConfig):
    """Image name and kernel selector of what ``deconvolve`` inverts:
    the trace for both ``[core] rows``, the diagonal entry for one."""
    rows = config.core().rows
    if len(rows) == 2:
        return "trace", "trace"
    return f"entry_a{rows[0]}{rows[0]}", (rows[0], rows[0])


def _deconvolution_kernel(config: PipelineConfig, grid, spec: KernelSpec):
    """Kernel image of ``spec`` for the deconvolution stage, normalized to
    unit sum: the kernel of the image ``_deconv_target`` names."""
    _, selector = _deconv_target(config)
    kernel = discretize_kernel(grid, spec, selector, config.scanner().gradient_field())
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
        self.deconv_input = None  # (values, geometry)

    def _save_image(self, name, values, geometry):
        base = os.path.join(self.out, name)
        self.files.extend(save_image(base, values, geometry))
        self.artifacts[name] = base

    def phantom_stage(self):
        spec = self.config.phantom()
        self.phantom_image = generate_phantom(spec)
        self._save_image("phantom", self.phantom_image.values, self.phantom_image.geometry)

    def _trajectory(self):
        """The trajectory the config describes, then decimated: a set
        ``trajectory_file`` is read; else a set excitation gives the
        excited sweep, and none a Lissajous."""
        v = self.config.values["scanner"]
        path = self.config.path("scanner", "trajectory_file")
        if path is not None:
            traj = load_trajectory(path)
        else:
            scanner = self.config.scanner()
            generate = lissajous if scanner.excitation_amplitude is None else excited_trajectory
            traj = generate(scanner)
        return decimate(traj, v["decimate"]) if v["decimate"] > 1 else traj

    def simulate_stage(self):
        self.phantom_stage()
        scanner = self.config.scanner()
        traj = self.trajectory = self._trajectory()
        spec = self.config.kernel_spec()
        signal = simulate_signal(
            self.phantom_image, traj, spec, scanner, self.config.interpolation()
        )
        level = self.config.noise_level()
        if level > 0:
            signal = add_noise(signal, level, self.seed)
        self.signal = signal
        if self.config.values["scanner"]["trajectory_file"] is not None:
            # the config holds only the file's name: keep the decimated
            # samples the signal was simulated on with the signal
            traj_path = os.path.join(self.out, "trajectory.csv")
            save_trajectory(traj_path, traj)
            self.files.append(traj_path)
            self.artifacts["trajectory"] = traj_path
        path = os.path.join(self.out, "signal.npy")
        save_signal(path, signal)
        self.files.append(path)
        self.artifacts["signal"] = path

    def _preprocess(self, signal):
        """``signal`` with the ``[preprocess]`` transfer function divided
        out, then the bins below the SNR thresholds dropped."""
        tf_path = self.config.path("preprocess", "transfer_function_file")
        snr_path = self.config.path("preprocess", "snr_file")
        if tf_path is None and snr_path is None:
            return signal
        n_bins = signal.n_samples // 2 + 1
        if tf_path is not None:
            tf = load_transfer_function(tf_path, signal.n_channels, n_bins)
            signal = correct_transfer_function(signal, tf)
        v = self.config.values["preprocess"]
        thresholds = [v["threshold_x"], v["threshold_y"]][: signal.n_channels]
        if snr_path is not None:
            profile = load_snr_profile(snr_path, signal.n_channels, n_bins, thresholds)
        else:
            profile = SnrProfile(
                values=np.full((signal.n_channels, n_bins), np.inf),
                thresholds=np.asarray(thresholds),
            )
        return snr_threshold(signal, profile)

    def core_stage(self):
        """Fit the core operator field to the preprocessed signal in
        memory, else ``[preprocess] signal_file``, else ``<out>/signal.npy``."""
        if self.signal is None:
            self.signal = load_signal(
                self.config.path("preprocess", "signal_file")
                or os.path.join(self.out, "signal.npy")
            )
        signal = self._preprocess(self.signal)
        if self.trajectory is None:
            self.trajectory = self._trajectory()
        step = signal.times[1] - signal.times[0]
        off = nonuniform_stamps(self.trajectory.times, step)
        if off.size:
            raise ValueError(
                f"trajectory step t[{off[0]}] - t[{off[0] - 1}] differs from the signal's "
                f"step of {step:g} s: the signal was not sampled on this trajectory"
            )
        core_cfg = self.config.core()
        rows = core_cfg.rows
        values = signal.values
        if values.shape[1] < len(rows):
            raise ValueError(
                f"signal has {values.shape[1]} channels but rows {rows} were requested"
            )
        if values.shape[1] == 2 and list(rows) != [0, 1]:
            # signal channel i is operator row i; the solve fits column k to
            # row rows[k] (skipped for (0, 1) to spare a copy)
            values = values[:, list(rows)]
        solution = solve_core_stage(
            values,
            self.trajectory.positions,
            self.trajectory.velocities,
            core_cfg,
            self.config.interpolation(),
        )
        self.files.extend(save_core_field(self.out, "core", solution.field))
        for row, record in solution.cg.items():
            self.rows.append(("core", f"row{row}", "cg_iterations", record.iterations))
            self.rows.append(("core", f"row{row}", "cg_residual", record.final_residual))
            self.rows.append(("core", f"row{row}", "converged", int(record.converged)))
        self.rows.append(("core", "all", "dropped_samples", solution.dropped_samples))
        field = solution.field
        name, selector = _deconv_target(self.config)
        target = extract_trace(field) if selector == "trace" else field.entry(*selector)
        self.deconv_input = (target, field.geometry)
        self._save_image(name, target, field.geometry)

    def _load_deconv_input(self):
        """The image to deconvolve and its geometry: the core stage's, else
        the configured ``input_trace``, else the one ``core`` wrote for
        ``[core] rows`` (``<out>/trace`` or ``<out>/entry_a<r><r>``)."""
        if self.deconv_input is None:
            trace_base = self.config.path("deconvolve", "input_trace")
            if trace_base is None:
                name, _ = _deconv_target(self.config)
                candidate = os.path.join(self.out, name)
                if not os.path.exists(candidate + ".float.txt"):
                    needed = "a trace" if name == "trace" else name
                    raise ValueError(
                        f"deconvolution needs {needed} (run core or set "
                        "[deconvolve] input_trace)"
                    )
                trace_base = candidate
            image = load_image(trace_base)
            self.deconv_input = (image.values, image.geometry)
        return self.deconv_input

    def _deconvolve(self, spec: KernelSpec, pnp: PnPConfig):
        """Deconvolve the input with the kernel of ``spec`` under ``pnp``;
        return the kernel, the PnP result and the centre-row dip ratio of
        its image."""
        values, grid = self._load_deconv_input()
        kernel = _deconvolution_kernel(self.config, grid, spec)
        result = zero_shot_pnp(values, kernel, pnp)
        _, profile = extract_profile(result.image, "row", grid.shape[0] // 2, grid)
        return kernel, result, dip_ratio(profile)

    def deconvolve_stage(self):
        _, result, dip = self._deconvolve(self.config.kernel_spec(), self.config.pnp())
        for rec in result.diagnostics.records:
            k = f"iter{rec.iteration}"
            self.rows.append(("deconvolve", k, "nu", rec.nu))
            self.rows.append(("deconvolve", k, "sigma", rec.sigma))
            self.rows.append(("deconvolve", k, "lambda", rec.lam))
        self.rows.append(
            ("deconvolve", "all", "degenerate", int(result.diagnostics.degenerate))
        )
        self.rows.append(("deconvolve", "all", "center_row_dip_ratio", dip))
        self._save_image("recon", result.image, self.deconv_input[1])

    def execute(self, stages):
        # these stages hand their output on in memory, not through the file
        for stage, section, key in (
            ("simulate", "preprocess", "signal_file"), ("core", "deconvolve", "input_trace")
        ):
            value = self.config.values[section][key]
            if stage in stages and value is not None:
                raise ValueError(f"[{section}] {key} = {value} is not read by a run with {stage}")
        os.makedirs(self.out, exist_ok=True)
        runners = {
            "phantom": self.phantom_stage,
            "simulate": self.simulate_stage,
            "core": self.core_stage,
            "deconvolve": self.deconvolve_stage,
        }
        for stage in stages:
            start = time.perf_counter()
            try:
                runners[stage]()
            except Exception as exc:
                raise PipelineError(stage, exc) from exc
            self.timings[stage] = time.perf_counter() - start
        self._write_reports()
        return PipelineResult(
            out_dir=self.out,
            artifacts=self.artifacts,
            diagnostics_rows=self.rows,
            timings=self.timings,
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
    return run.execute(config.stages() if stages is None else _ordered_stages(stages))


def generate_phantom_only(
    config: PipelineConfig, out_dir: str | None = None
) -> PipelineResult:
    """Rasterize and write just the configured phantom.  The config is
    validated as for a run, except that the input files it names need not
    exist yet: the phantom may be one of them."""
    config.validate(inputs=False)
    return _Run(config, out_dir=out_dir).execute(("phantom",))


def sweep(
    config: PipelineConfig,
    pairs: list,
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
    if not pairs:
        raise ValueError("sweep needs at least one (h_sat, nu0) pair")
    config.validate()
    run = _Run(config, out_dir=out_dir, seed=seed)
    prelude = tuple(s for s in config.stages() if s != "deconvolve")
    base = run.execute(prelude)

    try:
        values, _ = run._load_deconv_input()
    except Exception as exc:
        raise PipelineError("deconvolve", exc) from exc
    is_bar_phantom = config.values["phantom"]["kind"] == "two-bar"

    results = []
    for h_sat, nu0 in pairs:
        try:
            spec, pnp = KernelSpec(h=h_sat), dataclasses.replace(config.pnp(), nu0=nu0)
            kernel, result, score = run._deconvolve(spec, pnp)
            if not is_bar_phantom:
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
