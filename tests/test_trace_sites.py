"""Every call site the benchmark's traced run wraps exists in the program
and, for the core stage, still records its work.

The traced run replaces module attributes such as
``mpirecon.pnp.tikhonov_step`` by span-recording proxies; a renamed or
removed attribute silently drops its per-layer metric, so it fails here.
"""

import os

import numpy as np

import mpirecon

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def test_no_traced_site_is_absent(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads

    assert spans.absent_names(workloads.trace_sites(mpirecon)) == set()


def test_traced_core_solve_builds_no_sample_matrix_and_records_cg_per_row(monkeypatch):
    # the solve streams its normal equations, so the interpolation-matrix
    # site (kept for the forward simulation) records nothing here, while
    # every row's CG still records one span
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads

    grid = mpirecon.GridGeometry(shape=(6, 6), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    rng = np.random.default_rng(0)
    positions = rng.uniform(0.0, 5.0, size=(200, 2))
    velocities = rng.normal(size=(200, 2))
    tracer = spans.Tracer()
    tracer.install(workloads.trace_sites(mpirecon))
    try:
        for rows in [(0, 1), (1,)]:
            tracer.reset()
            config = mpirecon.CoreStageConfig(grid=grid, gamma=1e-3, rows=rows)
            mpirecon.solve_core_stage(
                rng.normal(size=(200, len(rows))), positions, velocities, config
            )
            names = [span.name for span in tracer.spans]
            assert names.count("interpolation.interpolation_matrix") == 0, rows
            assert names.count("core_stage.cg") == len(rows), rows
    finally:
        tracer.uninstall()
