"""Start-up cost: each scipy module loads only in the stage that uses it."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

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


def test_deconvolve_only_run_imports_no_sparse_or_ndimage(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    config = os.path.join(ROOT, "configs", "two_bar_33.ini")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, config, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert os.path.exists(tmp_path / "out" / "recon.float.txt")
    assert loaded["after_deconvolve"] == []
    assert "scipy.sparse" in loaded["after_core"]
    assert not any(m.startswith("scipy.ndimage") for m in loaded["after_core"])
