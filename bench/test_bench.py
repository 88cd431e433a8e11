"""Unit tests for the benchmark's own code (no workload is run)."""

import types

import numpy as np
import pytest

import quality
import harness
import spans
import workloads
from spans import Site, Span


def nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    return [
        Span("root", "bench", 0.0, 10.0, None),
        Span("a", "core_stage", 1.0, 4.0, 0),
        Span("a1", "solvers", 2.0, 3.0, 1),
        Span("b", "pnp", 5.0, 9.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_add_up_to_root_duration():
    assert sum(spans.self_times(nested_spans())) == pytest.approx(10.0)


def test_overlapping_children_are_subtracted_once():
    overlapping = [
        Span("root", "bench", 0.0, 10.0, None),
        Span("x", "pnp", 1.0, 6.0, 0),
        Span("y", "pnp", 4.0, 8.0, 0),
        Span("z", "pnp", 9.5, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(overlapping)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_summarize_counts_recursive_calls_once_in_totals():
    recursive = [
        Span("f", "pnp", 0.0, 4.0, None),
        Span("f", "pnp", 1.0, 3.0, 0),
        Span("g", "solvers", 1.5, 2.5, 1),
    ]
    seconds, calls, layer_self = spans.summarize(recursive)
    assert seconds == {"f": 4.0, "g": 1.0}
    assert calls == {"f": 2, "g": 1}
    assert layer_self == {"pnp": pytest.approx(3.0), "solvers": pytest.approx(1.0)}


def test_tracer_wraps_restores_and_counts():
    def inner(x):
        return types.SimpleNamespace(iterations=x)

    module = types.SimpleNamespace(inner=inner)

    def outer(x):
        return module.inner(x)

    module.outer = outer
    sites = [
        Site(module, "outer", "m.outer", "layer_a"),
        Site(module, "inner", "m.inner", "layer_b", lambda r: {"its": r.iterations}),
        Site(module, "gone", "m.gone", "layer_b"),
    ]
    assert spans.absent_names(sites) == {"m.gone"}
    tracer = spans.Tracer()
    tracer.install(sites)
    module.outer(3)
    module.outer(4)
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("m.outer", None),
        ("m.inner", 0),
        ("m.outer", None),
        ("m.inner", 2),
    ]
    assert tracer.counts == {"its": 7}


def test_interior_error_ignores_border():
    reference = np.ones((10, 10))
    estimate = reference.copy()
    estimate[:2, :] = 100.0
    estimate[:, -2:] = -100.0
    assert quality.interior_rel_err(estimate, reference) == 0.0
    estimate[5, 5] = 2.0
    assert quality.interior_rel_err(estimate, reference) == pytest.approx(1.0 / 6.0)


def test_scaled_error_fits_a_positive_scale():
    reference = np.arange(12.0).reshape(3, 4)
    assert quality.scaled_rel_err(0.25 * reference, reference) == pytest.approx(0.0)
    assert quality.scaled_rel_err(-reference, reference) == pytest.approx(1.0)


def test_absent_diagnostics_rows_are_none_not_zero():
    rows = [("deconvolve", "all", "center_row_dip_ratio", 0.0)]
    assert quality.diagnostics_row(rows, "deconvolve", "all", "center_row_dip_ratio") == 0.0
    assert quality.diagnostics_row(rows, "core", "row0", "cg_residual") is None


def test_core_convergence_check_reports_absent_rows():
    failures, absent = [], []
    workloads.core_rows_converged([], 1e-3, failures, absent)
    assert failures == [] and absent == ["core row convergence rows"]

    rows = [("core", "row0", "cg_residual", 5e-4), ("core", "row1", "cg_residual", 2e-3)]
    failures, absent = [], []
    workloads.core_rows_converged(rows, 1e-3, failures, absent)
    assert len(failures) == 1 and "row 1" in failures[0] and absent == []

    rows = [("core", "row0", "converged", 1), ("core", "row1", "converged", 0)]
    failures, absent = [], []
    workloads.core_rows_converged(rows, None, failures, absent)
    assert len(failures) == 1 and "row 1" in failures[0]


def test_manifest_mismatch(tmp_path):
    (tmp_path / "a.txt").write_text("a")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.txt").write_text("b")
    (tmp_path / "manifest.txt").write_text("a.txt\nsub/b.txt\n")
    assert quality.manifest_mismatch(tmp_path) == ([], [])
    (tmp_path / "manifest.txt").write_text("a.txt\nc.txt\n")
    assert quality.manifest_mismatch(tmp_path) == (["c.txt"], ["sub/b.txt"])


def test_fingerprint_sees_the_last_bit():
    a = {"trace_rel_err": 0.1, "cg": 82}
    assert quality.fingerprint(a) == quality.fingerprint(dict(reversed(a.items())))
    b = {"trace_rel_err": np.nextafter(0.1, 1.0), "cg": 82}
    assert quality.fingerprint(a) != quality.fingerprint(b)


def fake_op(traced, seconds, layer_self, counts, timings=None):
    outcome = workloads.Outcome({}, {}, [], [], timings, 0)
    summary = ({"pnp.tikhonov_step": seconds / 2}, {"pnp.tikhonov_step": 10}, layer_self, counts)
    return harness.Op(traced, seconds, outcome, summary if traced else None)


def test_per_layer_marks_absent_spans_and_zeroes_unreached_ones():
    ops = [
        fake_op(False, 2.0, {}, {}),
        fake_op(True, 2.5, {"pnp": 1.0, "solvers": 1.5, "bench": 1e-6}, {"core_stage.cg_iterations": 82}),
        fake_op(False, 2.2, {}, {}),
        fake_op(True, 2.3, {"pnp": 1.1, "solvers": 1.2, "bench": 1e-6}, {"core_stage.cg_iterations": 82}),
    ]
    metrics, detail = harness.per_layer(ops, absent_spans={"pnp.tikhonov_cg"})
    assert metrics["pnp.tikhonov_cg_iterations"][0] is None
    assert metrics["core_stage.cg_iterations"][0] == 82
    assert metrics["pnp.tikhonov_step_calls"][0] == 10
    assert metrics["fileio.save_signal_s"][0] == 0.0
    assert metrics["pipeline.simulate_s"][0] == 0.0
    assert metrics["pnp.self_s"][0] == pytest.approx(1.05)
    assert metrics["trace.self_sum_s"][0] == pytest.approx(2.4)
    assert metrics["trace.overhead_s"][0] == pytest.approx(2.4 - 2.1)
    assert detail["self_sum_within_overhead"]


def test_per_layer_marks_missing_stage_timing_absent():
    ops = [
        fake_op(False, 2.0, {}, {}),
        fake_op(True, 2.0, {"pipeline": 2.0}, {}, timings={"simulate": 1.0}),
    ]
    metrics, _ = harness.per_layer(ops, absent_spans=set())
    assert metrics["pipeline.simulate_s"][0] == 1.0
    assert metrics["pipeline.core_s"][0] is None
