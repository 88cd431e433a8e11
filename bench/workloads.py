"""The three benchmark workloads.

Each workload is one closed loop with a single caller: the benchmark
calls one public mpirecon entry point, waits for it, checks its output
and calls it again.  Inputs come from the seed only: the seed drives the
measurement noise added to the simulated signal (relative level
``NOISE_LEVEL``), so every seed gives a different but equally hard input.

* ``pipeline_100``  ``run_pipeline`` with stages simulate,core,deconvolve
  on the 100 x 100 acceptance-criterion-10 config.  The whole user path:
  text I/O, core stage and deconvolution in roughly equal shares.
* ``sweep_100``  ``sweep`` over four (h_sat, nu0) pairs on a 100 x 100
  trace that set-up writes with the program's own simulate and core
  stages.  Almost all of its time is the plug-and-play loop.
* ``core_excited_160``  ``solve_core_stage`` and ``extract_trace`` in
  memory on a 160 x 160 grid with an excitation-superposed sweep
  (640k samples).  Almost all of its time is the core-stage solve.

Configs set only keys whose values differ from the pipeline defaults, so
a later change of an unrelated default does not change the workload.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

import quality
from spans import Site

VACUUM_PERMEABILITY = 4e-7 * np.pi
EXTENT_M = 24e-3
NOISE_LEVEL = 1e-4

PHANTOM_SECTION = """
[phantom]
separation_mm = 2.4
bar_length_a_mm = 15.0
bar_length_b_mm = 15.0
bar_width_mm = 0.5
margin_mm = 2.0
"""


def one_pixel_h_sat(n):
    """Kernel field scale of one pixel at |gradient| = 1 T/m."""
    return (EXTENT_M / (n - 1)) / VACUUM_PERMEABILITY


def pipeline_100_config(seed, stages=None):
    stage_line = f"stages = {stages}\n" if stages else ""
    return f"""[pipeline]
{stage_line}seed = {seed}
noise_level = {NOISE_LEVEL}

[grid]
height = 100
width = 100

[scanner]
drive_frequency_x_hz = 101.0
drive_frequency_y_hz = 100.0
sample_rate_hz = 160000

[kernel]
h_sat_a_per_m = {one_pixel_h_sat(100)!r}
{PHANTOM_SECTION}"""


SWEEP_CONFIG = """[pipeline]
stages = deconvolve

[deconvolve]
input_trace = input/trace
"""

SWEEP_PAIRS = [
    (scale * one_pixel_h_sat(100), nu0) for scale in (1.0, 1.25) for nu0 in (1e-5, 1e-4)
]

CORE_160_CONFIG = f"""[grid]
height = 160
width = 160

[scanner]
drive_amplitude_x_mt = 10.0
drive_frequency_x_hz = 161.0
drive_frequency_y_hz = 160.0
sample_rate_hz = 640000
excitation_amplitude_mt = 2.0
excitation_frequency_hz = 25000.0

[kernel]
h_sat_a_per_m = {one_pixel_h_sat(160)!r}
{PHANTOM_SECTION}"""


@dataclasses.dataclass
class Outcome:
    """What one call produced: quality numbers, solver counts, failed
    checks, pipeline stage timings and bytes written."""

    quality: dict
    counts: dict
    failures: list
    absent: list
    stage_timings: dict | None = None
    bytes_written: int = 0


def exact_trace(mpirecon, config):
    """Phantom convolved with the discretized trace kernel: the trace a
    perfect core stage recovers (acceptance criterion 4)."""
    rho = mpirecon.generate_phantom(config.phantom())
    grid = rho.geometry
    kernel = mpirecon.discretize_kernel(
        grid, config.kernel_spec(), "trace", config.scanner().gradient_field()
    )
    trace = np.fft.irfft2(np.fft.rfft2(rho.values) * np.fft.rfft2(kernel), s=grid.shape)
    return rho.values, trace * grid.pixel_area


def load_values(base):
    """Pixel values of an image triple, read from its documented text format."""
    return np.loadtxt(base + ".float.txt", ndmin=2)


def bytes_on_disk(directory):
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(directory)
        for name in names
    )


def check_manifest(out_dir, failures):
    try:
        missing, unlisted = quality.manifest_mismatch(out_dir)
    except OSError as exc:
        failures.append(f"manifest unreadable: {exc}")
        return
    if missing or unlisted:
        failures.append(f"manifest lists missing files {missing} and omits {unlisted}")


def core_rows_converged(rows, tolerance, failures, absent):
    """Every core-stage row converged, judged from ``converged`` rows when
    the program writes them, else from the CG residual rows."""
    seen = False
    for r in (0, 1):
        converged = quality.diagnostics_row(rows, "core", f"row{r}", "converged")
        residual = quality.diagnostics_row(rows, "core", f"row{r}", "cg_residual")
        if converged is not None:
            seen = True
            if not converged:
                failures.append(f"core row {r} did not converge")
        elif residual is not None and tolerance is not None:
            seen = True
            if not residual <= tolerance:
                failures.append(f"core row {r} stopped at residual {residual!r}")
    if not seen:
        absent.append("core row convergence rows")


def check_quality(q, failures):
    for key in ("trace_rel_err", "recon_rel_err", "dip_ratio"):
        if key in q and not quality.finite(q[key]):
            failures.append(f"{key} is not finite: {q[key]!r}")


class Pipeline100:
    name = "pipeline_100"
    # text I/O ~45%, PnP FFTs ~35%, core-stage sparse products ~15%, denoiser
    calibration_mix = {"text": 13, "fft": 215, "spmv": 1, "denoise": 38}

    def config_text(self, seed):
        return pipeline_100_config(seed)

    def prepare(self, mpirecon, seed, work):
        config = mpirecon.PipelineConfig.from_string(self.config_text(seed), base_dir=work)
        rho, trace = exact_trace(mpirecon, config)
        np.savez(os.path.join(work, "reference.npz"), rho=rho, trace=trace)

    def load(self, mpirecon, seed, work):
        config = mpirecon.PipelineConfig.from_string(self.config_text(seed), base_dir=work)
        ref = np.load(os.path.join(work, "reference.npz"))
        core = config.core()
        return {
            "config": config,
            "rho": ref["rho"],
            "trace": ref["trace"],
            "cg_tolerance": getattr(core, "cg_tolerance", None),
        }

    def run(self, mpirecon, state, out_dir):
        return mpirecon.run_pipeline(state["config"], out_dir=out_dir)

    def check(self, mpirecon, state, result, out_dir):
        failures, absent = [], []
        rows = result.diagnostics_rows
        q = {}
        try:
            q["trace_rel_err"] = quality.interior_rel_err(
                load_values(result.artifacts["trace"]), state["trace"]
            )
            q["recon_rel_err"] = quality.scaled_rel_err(
                load_values(result.artifacts["recon"]), state["rho"]
            )
        except (KeyError, OSError, ValueError) as exc:
            failures.append(f"output image unreadable: {exc!r}")
        dip = quality.diagnostics_row(rows, "deconvolve", "all", "center_row_dip_ratio")
        if dip is None:
            absent.append("dip_ratio")
        else:
            q["dip_ratio"] = float(dip)
        check_quality(q, failures)
        core_rows_converged(rows, state["cg_tolerance"], failures, absent)
        check_manifest(out_dir, failures)
        counts = {}
        for stage, record, field, value in rows:
            if field == "cg_iterations":
                counts[f"{stage}.{record}.cg_iterations"] = value
        return Outcome(q, counts, failures, absent, dict(result.timings), bytes_on_disk(out_dir))


class Sweep100:
    name = "sweep_100"
    # Tikhonov-step FFTs ~90%, denoiser ~10%
    calibration_mix = {"fft": 480, "denoise": 80}

    def config_text(self, seed):
        return SWEEP_CONFIG

    def prepare(self, mpirecon, seed, work):
        config = mpirecon.PipelineConfig.from_string(pipeline_100_config(seed), base_dir=work)
        mpirecon.run_pipeline(
            config, out_dir=os.path.join(work, "input"), stages=("simulate", "core")
        )
        rho, trace = exact_trace(mpirecon, config)
        np.savez(os.path.join(work, "reference.npz"), rho=rho, trace=trace)

    def load(self, mpirecon, seed, work):
        config = mpirecon.PipelineConfig.from_string(self.config_text(seed), base_dir=work)
        ref = np.load(os.path.join(work, "reference.npz"))
        trace = load_values(os.path.join(work, "input", "trace"))
        return {
            "config": config,
            "trace_rel_err": quality.interior_rel_err(trace, ref["trace"]),
        }

    def run(self, mpirecon, state, out_dir):
        return mpirecon.sweep(state["config"], pairs=SWEEP_PAIRS, out_dir=out_dir)

    def check(self, mpirecon, state, result, out_dir):
        failures, absent = [], []
        if len(result) != len(SWEEP_PAIRS):
            failures.append(f"sweep returned {len(result)} rows for {len(SWEEP_PAIRS)} pairs")
        for row in result:
            if row["status"] != "ok":
                failures.append(f"pair ({row['h_sat']!r}, {row['nu0']!r}): {row['status']}")
        q = {"trace_rel_err": state["trace_rel_err"]}
        if result:
            q["dip_ratio"] = float(result[0]["score"])
        check_quality(q, failures)
        check_manifest(out_dir, failures)
        counts = {f"score.{r['h_sat']!r}.{r['nu0']!r}": r["score"] for r in result}
        return Outcome(q, counts, failures, absent, None, bytes_on_disk(out_dir))


class CoreExcited160:
    name = "core_excited_160"
    # core-stage CG sparse products ~95%
    calibration_mix = {"spmv": 6}

    def config_text(self, seed):
        return CORE_160_CONFIG

    def prepare(self, mpirecon, seed, work):
        config = mpirecon.PipelineConfig.from_string(self.config_text(seed), base_dir=work)
        scanner = config.scanner()
        phantom = mpirecon.generate_phantom(config.phantom())
        trajectory = mpirecon.excited_trajectory(scanner)
        signal = mpirecon.simulate_signal(
            phantom, trajectory, config.kernel_spec(), scanner, config.interpolation()
        )
        signal = mpirecon.add_noise(signal, NOISE_LEVEL, seed)
        rho, trace = exact_trace(mpirecon, config)
        np.savez(
            os.path.join(work, "inputs.npz"),
            values=signal.values,
            positions=trajectory.positions,
            velocities=trajectory.velocities,
            trace=trace,
        )

    def load(self, mpirecon, seed, work):
        config = mpirecon.PipelineConfig.from_string(self.config_text(seed), base_dir=work)
        inputs = np.load(os.path.join(work, "inputs.npz"))
        state = {name: inputs[name] for name in inputs.files}
        state["core"] = config.core()
        state["scheme"] = config.interpolation()
        state["grid"] = config.grid()
        return state

    def run(self, mpirecon, state, out_dir):
        solution = mpirecon.solve_core_stage(
            state["values"], state["positions"], state["velocities"], state["core"], state["scheme"]
        )
        return solution, mpirecon.extract_trace(solution.field)

    def check(self, mpirecon, state, result, out_dir):
        solution, trace = result
        failures, absent = [], []
        records = getattr(solution, "cg", None)
        counts = {}
        if records is None:
            absent.append("core row convergence records")
        else:
            for row, record in records.items():
                counts[f"core.row{row}.cg_iterations"] = record.iterations
                if not record.converged:
                    failures.append(f"core row {row} did not converge")
        grid = state["grid"]
        _, profile = mpirecon.extract_profile(trace, "row", grid.shape[0] // 2, grid)
        q = {
            "trace_rel_err": quality.interior_rel_err(trace, state["trace"]),
            "dip_ratio": mpirecon.dip_ratio(profile),
        }
        check_quality(q, failures)
        return Outcome(q, counts, failures, absent, None, 0)


WORKLOADS = {w.name: w for w in (Pipeline100(), Sweep100(), CoreExcited160())}


def _cg_count(key):
    return lambda result: {key: result.iterations}


def trace_sites(mpirecon):
    """Every call site the traced run wraps, as (module the caller looks
    the function up in, attribute, span name, layer).  Sites a workload
    does not reach record nothing; sites the program no longer has are
    reported absent."""
    from mpirecon import core_stage, fileio, forward, pipeline, pnp

    solve = ("solve_core_stage", "core_stage.solve", "core_stage")
    trace = ("extract_trace", "core_stage.extract_trace", "core_stage")
    table = [
        (mpirecon, "run_pipeline", "pipeline.run_pipeline", "pipeline"),
        (mpirecon, "sweep", "pipeline.sweep", "pipeline"),
        (mpirecon, *solve),
        (mpirecon, *trace),
        (pipeline, *solve),
        (pipeline, *trace),
        (pipeline, "simulate_signal", "forward.simulate_signal", "forward"),
        (pipeline, "lissajous", "scanner.trajectory", "scanner"),
        (pipeline, "excited_trajectory", "scanner.trajectory", "scanner"),
        (pipeline, "generate_phantom", "phantoms.generate_phantom", "phantoms"),
        (pipeline, "discretize_kernel", "kernels.discretize_kernel", "kernels"),
        (pipeline, "zero_shot_pnp", "pnp.zero_shot_pnp", "pnp"),
        (pipeline, "save_trajectory", "fileio.save_trajectory", "fileio"),
        (pipeline, "save_signal", "fileio.save_signal", "fileio"),
        (pipeline, "save_image", "fileio.save_image", "fileio"),
        (pipeline, "save_core_field", "fileio.save_core_field", "fileio"),
        (pipeline, "load_image", "fileio.load_image", "fileio"),
        (pipeline, "write_manifest", "fileio.write_manifest", "fileio"),
        (fileio, "save_image", "fileio.save_image", "fileio"),
        (forward, "discretize_kernel", "kernels.discretize_kernel", "kernels"),
        (forward, "interpolation_matrix", "interpolation.interpolation_matrix", "interpolation"),
        (core_stage, "interpolation_matrix", "interpolation.interpolation_matrix", "interpolation"),
        (pnp, "tikhonov_step", "pnp.tikhonov_step", "pnp"),
        (pnp, "denoise", "pnp.denoise", "denoisers"),
    ]
    sites = [Site(*row) for row in table]
    sites.append(Site(core_stage, "conjugate_gradient", "core_stage.cg", "solvers",
                      _cg_count("core_stage.cg_iterations")))
    sites.append(Site(pnp, "conjugate_gradient", "pnp.tikhonov_cg", "solvers",
                      _cg_count("pnp.tikhonov_cg_iterations")))
    return sites
