"""Start-up cost: each scipy module loads only in the stage that uses it,
neither start-up nor a run loads ``multiprocessing``, and start-up loads
no ``concurrent.futures`` (the core stage imports its one-worker executor
when it solves) and no ``subprocess`` or ``select`` (the external
denoiser imports them when it starts its child)."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TWO_BAR_33 = os.path.join(ROOT, "configs", "two_bar_33.ini")

# Runs in a fresh interpreter, so every import below is a first import.
SCRIPT = """
import json, os, sys
import numpy as np
import mpirecon
from mpirecon.pipeline import generate_phantom_only

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.ndimage")))

config_path, work = sys.argv[1:3]
mpirecon.PipelineConfig.from_file(config_path).validate()
text = f'''
[pipeline]
stages = deconvolve
out = {work}/out
[grid]
height = 9
width = 9
[phantom]
kind = dot
dot_size_mm = 6.0
[pnp]
iterations = 2
[deconvolve]
input_trace = {work}/out/phantom
'''
config = mpirecon.PipelineConfig.from_string(text)
generate_phantom_only(config)
mpirecon.run_pipeline(config)
after_deconvolve = scipy_modules()

grid = mpirecon.GridGeometry.node_centered((4.0, 4.0), (5, 5))
rng = np.random.default_rng(0)
positions = rng.uniform(-2.0, 2.0, size=(50, 2))
velocities = rng.normal(size=(50, 2))
mpirecon.solve_core_stage(
    rng.normal(size=(50, 2)), positions, velocities, mpirecon.CoreStageConfig(grid=grid)
)
print(json.dumps({"after_deconvolve": after_deconvolve, "after_core": scipy_modules()}))
"""


def fresh_interpreter(script, *args):
    """The last line ``script`` prints, run with ``args`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_deconvolve_only_run_imports_no_sparse_or_ndimage(tmp_path):
    loaded = json.loads(fresh_interpreter(SCRIPT, TWO_BAR_33, str(tmp_path)))
    assert os.path.exists(tmp_path / "out" / "recon.float.txt")
    assert loaded["after_deconvolve"] == []
    assert "scipy.sparse" in loaded["after_core"]
    assert not any(m.startswith("scipy.ndimage") for m in loaded["after_core"])


def test_import_and_validate_load_no_multiprocessing_or_executor():
    # an executor or child-process import here would count toward every
    # run's set-up time
    script = (
        "import sys, mpirecon; mpirecon.PipelineConfig.from_file(sys.argv[1]).validate(); "
        "print(sorted({'multiprocessing', 'concurrent.futures', 'subprocess', 'select'}"
        " & set(sys.modules)))"
    )
    assert fresh_interpreter(script, TWO_BAR_33) == "[]"


def test_simulate_core_run_imports_no_multiprocessing(tmp_path):
    # the signal is written inline, so no stage forks a writer, and the
    # core stage's second row runs on a thread; scipy.sparse itself loads
    # concurrent.futures, so only multiprocessing is checked here
    script = (
        "import sys, mpirecon; config = mpirecon.PipelineConfig.from_file(sys.argv[1]); "
        "mpirecon.run_pipeline(config, out_dir=sys.argv[2], stages=('simulate', 'core')); "
        "print('multiprocessing' in sys.modules)"
    )
    assert fresh_interpreter(script, TWO_BAR_33, str(tmp_path)) == "False"
    assert (tmp_path / "signal.npy").exists() and (tmp_path / "trace.float.txt").exists()
