"""Command-line interface: stage commands, profiles, exit codes."""

import configparser
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from mpirecon import pipeline
from mpirecon.cli import main
from mpirecon.fileio import load_image
from mpirecon.pipeline import PipelineConfig

VACUUM_PERMEABILITY = 4e-7 * np.pi


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "out"
    h_sat = 0.75 * 1.2e-3 / VACUUM_PERMEABILITY
    text = f"""
[pipeline]
stages = simulate,core,deconvolve
out = {out}
seed = 0

[grid]
height = 21
width = 21
extent_x_mm = 24.0
extent_y_mm = 24.0

[scanner]
gradient_x_t_per_m = -1.0
gradient_y_t_per_m = -1.0
drive_amplitude_x_mt = 12.0
drive_amplitude_y_mt = 12.0
drive_frequency_x_hz = 41.0
drive_frequency_y_hz = 40.0
sample_rate_hz = 14112
repetition_time_s = 1.0

[kernel]
h_sat_a_per_m = {h_sat}

[pnp]
nu0 = 1e-5
iterations = 5
denoiser = total-variation
tv_iterations = 40

[phantom]
kind = two-bar
separation_mm = 3.6
bar_length_a_mm = 12.0
bar_length_b_mm = 12.0
bar_width_mm = 1.2
margin_mm = 2.4
"""
    path = tmp_path / "pipeline.ini"
    path.write_text(text)
    return str(path), str(out)


class TestCommands:
    def test_run(self, config_file, capsys):
        path, out = config_file
        assert main(["run", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "recon.float.txt"))
        assert "artifacts" in capsys.readouterr().out

    def test_phantom_only(self, config_file):
        path, out = config_file
        assert main(["phantom", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "phantom.float.txt"))
        assert not os.path.exists(os.path.join(out, "signal.csv"))

    def test_simulate_then_core_then_deconvolve(self, config_file):
        path, out = config_file
        assert main(["simulate", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "signal.csv"))
        assert main(["core", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "trace.float.txt"))
        assert main(["deconvolve", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "recon.float.txt"))

    def test_preprocess_stage(self, config_file):
        path, out = config_file
        assert main(["simulate", "--config", path]) == 0
        assert main(["preprocess", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "signal_preprocessed.csv"))

    def test_out_override(self, config_file, tmp_path):
        path, _ = config_file
        alt = str(tmp_path / "elsewhere")
        assert main(["phantom", "--config", path, "--out", alt]) == 0
        assert os.path.exists(os.path.join(alt, "phantom.float.txt"))

    def test_profile_to_stdout(self, config_file, capsys):
        path, out = config_file
        main(["phantom", "--config", path])
        capsys.readouterr()  # drop the phantom command's output
        base = os.path.join(out, "phantom")
        assert main(["profile", "--image", base, "--axis", "row", "--index", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "coordinate_m,value"
        assert len(lines) == 22
        image = load_image(base)
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.array_equal(values, image.values[10])

    def test_profile_to_file(self, config_file, tmp_path):
        path, out = config_file
        main(["phantom", "--config", path])
        target = str(tmp_path / "profile.csv")
        code = main(
            [
                "profile",
                "--image",
                os.path.join(out, "phantom"),
                "--axis",
                "column",
                "--index",
                "3",
                "--out",
                target,
            ]
        )
        assert code == 0
        assert os.path.exists(target)

    def test_sweep_with_pairs(self, config_file, capsys):
        path, out = config_file
        h_sat = 0.75 * 1.2e-3 / VACUUM_PERMEABILITY
        code = main(["sweep", "--config", path, "--pairs", f"{h_sat},1e-5;{2*h_sat},1e-4"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "sweep.csv"))
        assert "score=" in capsys.readouterr().out

    def test_example_config_prints(self, capsys):
        assert main(["example-config"]) == 0
        text = capsys.readouterr().out
        assert "[pipeline]" in text
        assert "stages" in text

    def test_example_config_parses_to_the_defaults(self, capsys):
        assert main(["example-config"]) == 0
        example = PipelineConfig.from_string(capsys.readouterr().out)
        assert example == PipelineConfig.from_string("")


class TestFailures:
    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.ini"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("[core]\ngama = 5\n", "error: [config] [core] gama: unknown key; did you mean 'gamma"),
            ("[pnpp]\nnu0 = 1e-5\n", "error: [config] [pnpp] unknown section; did you mean 'pnp'?"),
            ("[core]\ngamma = abc\n", "error: [config] [core] gamma = abc: could not convert"),
        ],
        ids=["typo", "section", "float"],
    )
    def test_bad_config_fails_before_any_stage(self, config_file, capsys, extra, message):
        path, out = config_file
        with open(path, "a") as f:
            f.write(extra)
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("grid", "height", "0", "degenerate grid shape (0, 21)"),
            ("scanner", "gradient_x_t_per_m", "0", "gradient diagonal entries must be nonzero"),
            ("particle", "temperature_k", "-1", "ParticleModel.temperature must be strictly"),
            ("kernel", "h_sat_a_per_m", "-1", "kernel resolution h must be positive"),
            ("core", "gamma", "-1", "gamma must be nonnegative"),
            ("core", "rows", "0,0", "rows must be distinct values of {0, 1}, got (0, 0)"),
            ("core", "rows", "2", "rows must be distinct values of {0, 1}, got (2,)"),
            ("core", "interpolation", "cubic", "unknown interpolation kind 'cubic'"),
            ("pnp", "nu0", "-1", "nu0 must be positive"),
            ("pnp", "denoiser", "median", "unknown denoiser kind 'median'"),
            ("phantom", "margin_mm", "-1", "margin_mm must be nonnegative"),
        ],
        ids=["grid", "scanner", "particle", "kernel", "core", "rows-repeated", "rows-range",
             "interpolation", "pnp", "denoiser", "phantom"],
    )
    def test_bad_value_fails_before_any_stage(self, config_file, capsys, section, key, value,
                                              message):
        path, out = config_file
        config = configparser.ConfigParser()
        config.read(path)
        if not config.has_section(section):
            config.add_section(section)
        config[section][key] = value
        with open(path, "w") as f:
            config.write(f)
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: [config] [{section}] {message}")
        assert not os.path.exists(out)

    def test_bad_sweep_pair_fails_before_the_prelude(self, config_file, capsys):
        path, out = config_file
        assert main(["sweep", "--config", path, "--pairs", "800"]) == 1
        assert capsys.readouterr().err == "error: [config] pair '800' is not h_sat,nu0\n"
        assert not os.path.exists(out)

    def test_stage_failure_is_tagged(self, config_file, tmp_path, capsys):
        path, _ = config_file
        # deconvolve without any trace available
        code = main(["deconvolve", "--config", path, "--out", str(tmp_path / "empty")])
        assert code == 1
        err = capsys.readouterr().err
        assert "[deconvolve]" in err

    def test_three_channel_signal_fails_core(self, config_file, capsys):
        path, out = config_file
        assert main(["simulate", "--config", path]) == 0
        signal = Path(out) / "signal.csv"
        header, *rows = signal.read_text().splitlines()
        signal.write_text("\n".join([header + ",s_z"] + [row + ",0" for row in rows]) + "\n")
        assert main(["core", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(
            "error: [core] signal values must be a (samples, 1 or 2 channels) array, "
            "got (14112, 3)"
        )

    def test_singular_core_system_is_tagged(self, config_file, tmp_path, capsys):
        path, _ = config_file
        # 70 samples cannot visit all 441 pixels; only gamma > 0 fills them in
        sparse = Path(path).read_text().replace(
            "repetition_time_s = 1.0", "repetition_time_s = 1.0\ndecimate = 200"
        )
        for gamma, code in (("0", 1), ("1e-7", 0)):
            config = tmp_path / f"gamma_{gamma}.ini"
            config.write_text(sparse + f"\n[core]\ngamma = {gamma}\n")
            assert main(["simulate", "--config", str(config)]) == 0
            assert main(["core", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert "error: [core] normal matrix is singular" in err
        assert "of 441 pixels" in err

    def test_parallel_velocities_core_system_is_tagged(self, tmp_path, capsys):
        # every sample moves along (1, 1): each pixel's data block has rank 1
        rng = np.random.default_rng(0)
        positions = rng.uniform(-12e-3, 12e-3, size=(400, 2))
        rows = [f"{k * 1e-5:.17g},{x:.17g},{y:.17g},1,1" for k, (x, y) in enumerate(positions)]
        (tmp_path / "traj.csv").write_text("t,x,y,vx,vy\n" + "\n".join(rows) + "\n")
        for gamma, code in (("0", 1), ("1e-7", 0)):
            config = tmp_path / f"gamma_{gamma}.ini"
            config.write_text(
                f"""
[pipeline]
out = {tmp_path / ("out_" + gamma)}
[grid]
height = 5
width = 5
[scanner]
trajectory = file
trajectory_file = traj.csv
[phantom]
kind = dot
dot_center_x_mm = 0.0
dot_center_y_mm = 0.0
dot_size_mm = 6.0
[core]
gamma = {gamma}
"""
            )
            assert main(["simulate", "--config", str(config)]) == 0
            assert main(["core", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert "error: [core] normal matrix is singular: 25 of 25 pixels" in err

    def test_ignored_trajectory_file_fails_before_any_stage(self, config_file, tmp_path, capsys):
        path, out = config_file
        (tmp_path / "traj.csv").write_text("t,x,y\n0,0,0\n1,0,0\n")
        text = Path(path).read_text().replace(
            "repetition_time_s = 1.0", "repetition_time_s = 1.0\ntrajectory_file = traj.csv"
        )
        config = tmp_path / "ignored.ini"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [config] [scanner] trajectory_file = traj.csv is only read")
        assert "trajectory = lissajous" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("spiral", "unknown trajectory kind 'spiral'"),
            ("excited", "trajectory = excited needs excitation_amplitude_mt"),
        ],
        ids=["unknown", "excited-keys"],
    )
    def test_bad_trajectory_kind_fails_before_any_stage(self, config_file, tmp_path, capsys,
                                                        kind, message):
        path, out = config_file
        text = Path(path).read_text().replace(
            "repetition_time_s = 1.0", f"repetition_time_s = 1.0\ntrajectory = {kind}"
        )
        config = tmp_path / f"{kind}.ini"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [config] [scanner] {message}")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("nu0 = 1e-5", "nu0 = -1", "[pnp] nu0 must be positive"),
            ("repetition_time_s = 1.0", "trajectory = spiral",
             "[scanner] unknown trajectory kind 'spiral'"),
        ],
        ids=["nu0", "trajectory"],
    )
    def test_phantom_command_validates_its_config(self, config_file, tmp_path, capsys, line,
                                                  bad, message):
        path, out = config_file
        text = Path(path).read_text().replace(line, bad)
        config = tmp_path / "bad.ini"
        config.write_text(text)
        assert main(["phantom", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [config] {message}")
        assert not os.path.exists(out)

    def test_failed_background_write_is_tagged(self, config_file, capsys, monkeypatch):
        def broken(path, data):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "save_signal", broken)
        path, out = config_file
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [simulate] writing ")
        assert "signal.csv failed (exit code 1)" in err
        assert multiprocessing.active_children() == []
        assert not os.path.exists(os.path.join(out, "manifest.txt"))

    def test_bad_phantom_geometry_tagged(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            """
[pipeline]
stages = simulate
out = {}
[phantom]
kind = dot
dot_center_x_mm = 40.0
""".format(tmp_path / "bad_out")
        )
        assert main(["simulate", "--config", str(bad)]) == 1
        assert "[simulate]" in capsys.readouterr().err
