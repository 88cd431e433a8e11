"""Measurement loop, metrics and report of one benchmark run (see run.py)."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import calibration
import quality
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7
# Importing and parsing is interpreter-bound Python, like text formatting.
SETUP_CALIBRATION_MIX = {"text": 30}
MIN_OPS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "cal_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace_rel_err": "ratio",
    "dip_ratio": "ratio",
}

# (metric, unit, source, key): ``source`` says where the value comes from.
#   stage     PipelineResult.timings[key]   seconds  total time in spans named key
#   calls     number of spans named key     count    counter read from a span's result
#   self      self time of layer key        bytes    bytes the call wrote
#   self_sum  self times of mpirecon layers overhead traced minus untraced wall time
PER_LAYER = [
    ("pipeline.simulate_s", "s", "stage", "simulate"),
    ("pipeline.core_s", "s", "stage", "core"),
    ("pipeline.deconvolve_s", "s", "stage", "deconvolve"),
    ("pipeline.self_s", "s", "self", "pipeline"),
    ("fileio.save_trajectory_s", "s", "seconds", "fileio.save_trajectory"),
    ("fileio.save_signal_s", "s", "seconds", "fileio.save_signal"),
    ("fileio.save_image_s", "s", "seconds", "fileio.save_image"),
    ("fileio.save_core_field_s", "s", "seconds", "fileio.save_core_field"),
    ("fileio.load_image_s", "s", "seconds", "fileio.load_image"),
    ("fileio.bytes_written", "bytes", "bytes", None),
    ("fileio.self_s", "s", "self", "fileio"),
    ("core_stage.solve_s", "s", "seconds", "core_stage.solve"),
    ("core_stage.cg_s", "s", "seconds", "core_stage.cg"),
    ("core_stage.cg_iterations", "count", "count", "core_stage.cg_iterations"),
    ("core_stage.self_s", "s", "self", "core_stage"),
    ("solvers.self_s", "s", "self", "solvers"),
    ("interpolation.interpolation_matrix_s", "s", "seconds", "interpolation.interpolation_matrix"),
    ("pnp.zero_shot_pnp_s", "s", "seconds", "pnp.zero_shot_pnp"),
    ("pnp.tikhonov_step_s", "s", "seconds", "pnp.tikhonov_step"),
    ("pnp.tikhonov_step_calls", "count", "calls", "pnp.tikhonov_step"),
    ("pnp.tikhonov_cg_iterations", "count", "count", "pnp.tikhonov_cg_iterations"),
    ("pnp.denoise_s", "s", "seconds", "pnp.denoise"),
    ("pnp.self_s", "s", "self", "pnp"),
    ("denoisers.self_s", "s", "self", "denoisers"),
    ("kernels.discretize_kernel_s", "s", "seconds", "kernels.discretize_kernel"),
    ("kernels.discretize_kernel_calls", "count", "calls", "kernels.discretize_kernel"),
    ("scanner.trajectory_s", "s", "seconds", "scanner.trajectory"),
    ("forward.simulate_signal_s", "s", "seconds", "forward.simulate_signal"),
    ("trace.self_sum_s", "s", "self_sum", None),
    ("trace.overhead_s", "s", "overhead", None),
]

# Counters and the span whose result they are read from.
COUNTER_SPANS = {
    "core_stage.cg_iterations": "core_stage.cg",
    "pnp.tikhonov_cg_iterations": "pnp.tikhonov_cg",
}


def median(values):
    return statistics.median(values) if values else None


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment():
    """Machine, library versions, pinned thread count and code revision."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "src_sha256": tree_digest(SRC),
        "bench_sha256": tree_digest(BENCH_DIR),
    }


def tree_digest(directory):
    """Digest of the Python sources under ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args):
    """Run a helper script to completion and return its stdout."""
    done = subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} failed:\n{done.stderr}")
    return done.stdout


@dataclasses.dataclass
class Context:
    mpirecon: object
    workload: object
    work: Path
    state: object = None
    sites: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Op:
    """One timed call and what its checks found."""

    traced: bool
    seconds: float
    outcome: workloads.Outcome
    summary: tuple | None = None  # (seconds by span, calls by span, self by layer, counts)
    calibrated: float | None = None  # seconds at the reference machine speed
    blocks: tuple = ()  # calibration block seconds before and after the call

    @property
    def fingerprint(self):
        return quality.fingerprint({**self.outcome.quality, **self.outcome.counts})


def one_op(ctx, index, tracer):
    wl, mpirecon = ctx.workload, ctx.mpirecon
    out = ctx.work / f"op{index}"
    out.mkdir()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install(ctx.sites)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(mpirecon, ctx.state, str(out))
        else:
            result = tracer.call("bench.op", "bench", wl.run, mpirecon, ctx.state, str(out))
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed call is a measured outcome
        error = f"call raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = (*spans.summarize(tracer.spans), dict(tracer.counts))
    if error is None:
        try:
            outcome = wl.check(mpirecon, ctx.state, result, str(out))
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the call
            outcome = workloads.Outcome({}, {}, [f"check raised {type(exc).__name__}: {exc}"], [])
    else:
        outcome = workloads.Outcome({}, {}, [error], [])
    shutil.rmtree(out)
    return Op(tracer is not None, elapsed, outcome, summary)


def measure(ctx, seconds, tracer):
    """Closed loop with one caller: call, check, repeat until ``seconds``
    are used, at least ``MIN_OPS`` calls (of each kind when tracing, where
    untraced and traced calls alternate).  A calibration block runs
    between calls."""
    ops, costs = [], []
    deadline = time.perf_counter() + seconds
    with calibration.Calibration(ctx.workload.calibration_mix) as calibrate:
        before = calibrate()
        while True:
            traced = tracer is not None and len(ops) % 2 == 1
            t0 = time.perf_counter()
            op = one_op(ctx, len(ops), tracer if traced else None)
            after = calibrate()
            op.calibrated = calibration.calibrated(op.seconds, before, after)
            op.blocks = (before, after)
            ops.append(op)
            before = after
            costs.append(time.perf_counter() - t0)
            per_kind = len(ops) // 2 if tracer is not None else len(ops)
            if per_kind >= MIN_OPS and time.perf_counter() + statistics.mean(costs) > deadline:
                return ops


def time_setup(config_file, work):
    """Set-up times of ``SETUP_REPEATS`` fresh processes: (raw, calibrated)."""
    samples = []
    with calibration.Calibration(SETUP_CALIBRATION_MIX) as calibrate:
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            seconds = float(child([BENCH_DIR / "setup_probe.py", SRC, config_file, work]))
            after = calibrate()
            samples.append((seconds, calibration.calibrated(seconds, before, after)))
            before = after
    return samples


def check_determinism(ops, key):
    """Quality numbers and iteration counts must repeat bit for bit across
    calls and across runs with the same seed, thread count and sources.
    The first clean run's digest is kept under ``.bench_work``."""
    store_path = WORK_ROOT / "fingerprints.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    reference = store.get(key, ops[0].fingerprint)
    for op in ops:
        if op.fingerprint != reference:
            op.outcome.failures.append(
                f"not deterministic: digest {op.fingerprint} != reference {reference}"
            )
    if key not in store and not any(op.outcome.failures for op in ops):
        store[key] = reference
        tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
    return reference


def first_value(ops, name):
    for op in ops:
        if name in op.outcome.quality:
            return op.outcome.quality[name]
    return None


def end_to_end(ops, setup_samples):
    walls = [op.seconds for op in ops]
    values = {
        "cal_wall_s": median([op.calibrated for op in ops]),
        "setup_s": median([cal for _, cal in setup_samples]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace_rel_err": first_value(ops, "trace_rel_err"),
        "dip_ratio": first_value(ops, "dip_ratio"),
    }
    q1, q3 = quartiles(walls)
    detail = {
        "wall_s": median(walls),
        "wall_samples": len(walls),
        "wall_q1_s": q1,
        "wall_q3_s": q3,
        "wall_min_s": min(walls),
        "wall_max_s": max(walls),
        "setup_raw_s": [raw for raw, _ in setup_samples],
        "wall_samples_s": walls,
        "calibration_blocks_s": [ops[0].blocks[0]] + [op.blocks[1] for op in ops],
        "recon_rel_err": first_value(ops, "recon_rel_err"),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, detail


def layer_value(op, source, key):
    span_seconds, span_calls, layer_self, counts = op.summary
    if source == "stage":
        timings = op.outcome.stage_timings
        return 0.0 if timings is None else timings.get(key)
    if source == "seconds":
        return span_seconds.get(key, 0.0)
    if source == "calls":
        return span_calls.get(key, 0)
    if source == "count":
        return counts.get(key, 0)
    if source == "self":
        return layer_self.get(key, 0.0)
    if source == "bytes":
        return op.outcome.bytes_written
    if source == "self_sum":
        return sum(own for layer, own in layer_self.items() if layer != "bench")
    raise ValueError(source)


def per_layer(ops, absent_spans):
    """Medians over the traced calls; None marks a metric whose call site
    the program no longer has."""
    traced = [op for op in ops if op.traced]
    traced_wall = median([op.seconds for op in traced])
    untraced_wall = median([op.seconds for op in ops if not op.traced])
    metrics = {}
    for name, unit, source, key in PER_LAYER:
        if source == "overhead":
            value = traced_wall - untraced_wall
        elif source in ("seconds", "calls", "count") and COUNTER_SPANS.get(key, key) in absent_spans:
            value = None
        else:
            samples = [layer_value(op, source, key) for op in traced]
            value = None if None in samples else median(samples)
        metrics[name] = (value, unit)
    self_sum, overhead = metrics["trace.self_sum_s"][0], metrics["trace.overhead_s"][0]
    detail = {
        "traced_samples": len(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        # Every call is single-threaded, so every span is on the blocking
        # path: the mpirecon layers' self times add up to the untraced wall
        # time within the tracing overhead.  The benchmark's own glue around
        # the call (the "bench" layer) is left out and should be negligible.
        "self_sum_within_overhead": abs(self_sum - untraced_wall) <= abs(overhead) + 1e-3,
    }
    return metrics, detail


def run(args, mpirecon):
    """One benchmark run; prints the report and the result line."""
    wl = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, Context(mpirecon, wl, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, ctx):
    wl, work = ctx.workload, ctx.work
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    config_file = work / "config.ini"
    config_file.write_text(wl.config_text(args.seed))
    child([BENCH_DIR / "prepare.py", SRC, wl.name, args.seed, work])
    setup_samples = None if args.trace else time_setup(config_file, work)
    ctx.state = wl.load(ctx.mpirecon, args.seed, str(work))

    tracer = None
    absent_spans = set()
    if args.trace:
        tracer = spans.Tracer()
        ctx.sites = workloads.trace_sites(ctx.mpirecon)
        absent_spans = spans.absent_names(ctx.sites)
    ops = measure(ctx, args.seconds, tracer)

    key = (
        f"{wl.name}|seed={args.seed}|blas_threads={env['blas_threads']}"
        f"|src={env['src_sha256']}|bench={env['bench_sha256']}"
    )
    reference = check_determinism(ops, key)
    failed = sum(1 for op in ops if op.outcome.failures)
    absent = sorted({a for op in ops for a in op.outcome.absent} | absent_spans)

    if args.trace:
        metrics, detail = per_layer(ops, absent_spans)
    else:
        metrics, detail = end_to_end(ops, setup_samples)
    absent += sorted(name for name, (value, _) in metrics.items() if value is None)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "digest": reference,
        "absent": absent,
        "failures": sorted({f for op in ops for f in op.outcome.failures})[:10],
        **detail,
    }
    print("report " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value!r} {unit}"
        print(f"  {name:40s} {shown}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    print(json.dumps(result))
    return 0
