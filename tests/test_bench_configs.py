"""The benchmark's configs describe the trajectory each workload runs.

``core_excited_160`` builds its excited sweep in memory from
``CORE_160_CONFIG``, and ``pipeline_100`` hands its config to
``run_pipeline``; the pipeline must derive the same trajectory from
each config, or the config says something the workload does not do.
"""

import os

from mpirecon.pipeline import PipelineConfig, _Run
from mpirecon.scanner import excited_trajectory, lissajous

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def assert_same_trajectory(actual, expected):
    for name in ("times", "positions", "velocities"):
        assert getattr(actual, name).tobytes() == getattr(expected, name).tobytes(), name


def test_bench_configs_give_the_trajectory_the_workloads_run(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    config = PipelineConfig.from_string(workloads.CORE_160_CONFIG)
    assert_same_trajectory(_Run(config)._trajectory(), excited_trajectory(config.scanner()))
    config = PipelineConfig.from_string(workloads.pipeline_100_config(1))
    assert_same_trajectory(_Run(config)._trajectory(), lissajous(config.scanner()))
