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


def test_traced_core_solve_records_interpolation_and_cg_per_row(monkeypatch):
    # a site that still exists but is no longer called records nothing, and
    # its per-layer metric would read 0
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
            assert names.count("interpolation.interpolation_matrix") == 1, rows
            assert names.count("core_stage.cg") == len(rows), rows
    finally:
        tracer.uninstall()
