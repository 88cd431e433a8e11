"""Every call site the benchmark's traced run wraps exists in the program.

The traced run replaces module attributes such as
``mpirecon.pnp.tikhonov_step`` by span-recording proxies; a renamed or
removed attribute silently drops its per-layer metric, so it fails here.
"""

import os

import mpirecon

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def test_no_traced_site_is_absent(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads

    assert spans.absent_names(workloads.trace_sites(mpirecon)) == set()
