"""Command-line interface: stage commands, profiles, exit codes."""

import configparser
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from denoiser_stubs import NAN_PIXEL_BODY, external_script
from mpirecon.cli import build_parser, main
from mpirecon.fileio import load_image
from mpirecon.pipeline import STAGES, PipelineConfig

VACUUM_PERMEABILITY = 4e-7 * np.pi
CONFIGS = Path(__file__).parent.parent / "configs"
# a key that is only read next to another is set with it, so the value
# itself is what fails
COMPANIONS = {
    "denoiser_timeout_s": {"denoiser_command": "true"},
    "excitation_amplitude_mt": {"excitation_frequency_hz": "25000"},
    "excitation_frequency_hz": {"excitation_amplitude_mt": "2.0"},
    "seed": {"noise_level": "0.01"},  # the seed is drawn from only with noise
}
# a value that its own section accepts and a later section's rule rejects
REPORTED_UNDER = {("grid", "height", "2"): "core"}


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


def deconvolve_only(path, trace_base):
    """A config beside ``path`` that only deconvolves the trace at ``trace_base``."""
    text = Path(path).read_text().replace(
        "stages = simulate,core,deconvolve", "stages = deconvolve"
    ) + f"\n[deconvolve]\ninput_trace = {trace_base}\n"
    config = Path(path).parent / "deconvolve.ini"
    config.write_text(text)
    return str(config)


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
        assert not os.path.exists(os.path.join(out, "signal.npy"))

    def test_simulate_then_core_then_deconvolve(self, config_file):
        path, out = config_file
        assert main(["simulate", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "signal.npy"))
        assert main(["core", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "trace.float.txt"))
        assert main(["deconvolve", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "recon.float.txt"))

    def test_preprocess_stage(self, config_file, capsys):
        # preprocessing is part of core; a config that lists it as a stage fails
        path, out = config_file
        text = Path(path).read_text().replace(
            "stages = simulate,core,deconvolve", "stages = simulate,preprocess,core,deconvolve"
        )
        Path(path).write_text(text)
        assert main(["run", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: [config] unknown stage 'preprocess'")
        assert not os.path.exists(out)

    def test_stage_subcommands_are_the_pipeline_stages(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        others = ("run", "phantom", "sweep", "profile", "example-config")
        assert tuple(c for c in commands if c not in others) == STAGES

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

    def test_example_config_lists_the_49_keys(self, capsys):
        assert main(["example-config"]) == 0
        raw = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        raw.read_string(capsys.readouterr().out)
        keys = [(section, key) for section in raw.sections() for key in raw[section]]
        assert len(keys) == 49
        assert ("pnp", "tv_scale") not in keys and ("pnp", "tv_iterations") not in keys


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
            ("pipeline", "noise_level", "nan",
             "noise_level must be finite and nonnegative, got nan"),
            ("pipeline", "noise_level", "inf",
             "noise_level must be finite and nonnegative, got inf"),
            ("pipeline", "noise_level", "-1",
             "noise_level must be finite and nonnegative, got -1.0"),
            ("pipeline", "seed", "-1", "seed must be a nonnegative integer, got -1"),
            ("grid", "height", "0", "degenerate grid shape (0, 21)"),
            ("grid", "height", "2", "Laplacian needs a grid of at least 3 x 3, got (2, 21)"),
            ("grid", "extent_x_mm", "nan", "grid spacing and origin must be finite, got (nan, "),
            ("grid", "extent_y_mm", "inf",
             "grid spacing and origin must be finite, got (0.0012000000000000001, inf) and "
             "(-0.012, -inf)"),
            ("scanner", "gradient_x_t_per_m", "0", "gradient diagonal entries must be nonzero"),
            ("scanner", "drive_amplitude_x_mt", "nan",
             "drive_amplitudes must be finite, got (nan, 0.012)"),
            ("scanner", "drive_amplitude_y_mt", "inf",
             "drive_amplitudes must be finite, got (0.012, inf)"),
            ("scanner", "drive_frequency_x_hz", "nan",
             "drive_frequencies must be finite, got (nan, 40.0)"),
            ("scanner", "drive_frequency_y_hz", "inf",
             "drive_frequencies must be finite, got (41.0, inf)"),
            ("scanner", "repetition_time_s", "inf", "repetition_time must be finite, got inf"),
            ("scanner", "drive_frequency_x_hz", "0",
             "drive_frequencies must be positive, got (0.0, 40.0)"),
            ("scanner", "drive_frequency_x_hz", "-1",
             "drive_frequencies must be positive, got (-1.0, 40.0)"),
            ("scanner", "drive_amplitude_x_mt", "0",
             "drive_amplitudes must be positive, got (0.0, 0.012)"),
            ("scanner", "drive_amplitude_x_mt", "-1",
             "drive_amplitudes must be positive, got (-0.001, 0.012)"),
            ("scanner", "excitation_frequency_hz", "0",
             "excitation_frequency must be positive, got 0.0"),
            ("scanner", "excitation_amplitude_mt", "0",
             "excitation_amplitude must be positive, got 0.0"),
            ("scanner", "excitation_amplitude_mt", "-2",
             "excitation_amplitude must be positive, got -0.002"),
            ("scanner", "decimate", "0", "decimate must be at least 1, got 0"),
            # 14112 samples per period; the signal needs two
            ("scanner", "decimate", "14112",
             "decimate = 14112 keeps 1 of 14112 samples per period; a signal needs at least 2"),
            ("scanner", "decimate", "100000000",
             "decimate = 100000000 keeps 1 of 14112 samples per period; a signal needs at "
             "least 2"),
            ("particle", "temperature_k", "-1", "ParticleModel.temperature must be strictly"),
            ("kernel", "h_sat_a_per_m", "-1", "kernel resolution h must be positive"),
            ("core", "gamma", "-1", "gamma must be nonnegative"),
            ("core", "gamma", "nan", "gamma must be finite, got nan"),
            ("core", "gamma", "inf", "gamma must be finite, got inf"),
            ("core", "cg_tolerance", "inf", "cg_tolerance must lie in (0, 1), got inf"),
            ("core", "cg_tolerance", "1e12", "cg_tolerance must lie in (0, 1), got 1000000000000.0"),
            ("core", "cg_max_iterations", "0", "cg_max_iterations must be at least 1, got 0"),
            ("core", "cg_max_iterations", "-1", "cg_max_iterations must be at least 1, got -1"),
            ("core", "rows", "0,0", "rows must be distinct values of {0, 1}, got (0, 0)"),
            ("core", "rows", "2", "rows must be distinct values of {0, 1}, got (2,)"),
            ("core", "interpolation", "cubic", "unknown interpolation kind 'cubic'"),
            ("pnp", "nu0", "-1", "nu0 must be positive"),
            ("pnp", "nu0", "nan", "nu0 must be finite, got nan"),
            ("pnp", "nu0", "inf", "nu0 must be finite, got inf"),
            # removed key: the TV weight is the squared noise level
            ("pnp", "tv_scale", "1.0", "tv_scale: unknown key"),
            # removed key: the TV prox always runs TV_STEPS; the hint's key is another setting
            ("pnp", "tv_iterations", "24",
             "tv_iterations: unknown key; did you mean 'iterations'?"),
            ("pnp", "denoiser_timeout_s", "-1", "timeout must be positive, got -1.0"),
            # select.select takes no longer wait
            ("pnp", "denoiser_timeout_s", "inf",
             f"timeout must be at most {threading.TIMEOUT_MAX!r}, got inf"),
            ("pnp", "denoiser_timeout_s", "1e10",
             f"timeout must be at most {threading.TIMEOUT_MAX!r}, got 10000000000.0"),
            ("phantom", "margin_mm", "-1", "margin_mm must be nonnegative"),
            ("phantom", "margin_mm", "nan", "margin_mm must be finite, got nan"),
            ("phantom", "dot_size_mm", "-1", "dot_size_mm must be positive, got -1.0"),
            ("phantom", "bar_width_mm", "0", "bar_width_mm must be positive, got 0.0"),
            ("phantom", "bar_length_b_mm", "-30",
             "bar_lengths_mm must be positive, got (12.0, -30.0)"),
        ],
        ids=["noise-level-nan", "noise-level-inf", "noise-level-negative", "seed", "grid",
             "grid-2-rows",
             "extent-x-nan", "extent-y-inf", "scanner", "drive-amplitude-nan",
             "drive-amplitude-inf", "drive-frequency-nan", "drive-frequency-inf",
             "repetition-time-inf", "drive-frequency-zero", "drive-frequency-negative",
             "drive-amplitude-zero", "drive-amplitude-negative", "excitation-frequency-zero",
             "excitation-amplitude-zero", "excitation-amplitude-negative", "decimate-zero",
             "decimate-one-sample", "decimate-huge", "particle", "kernel", "core",
             "gamma-nan", "gamma-inf", "cg-tolerance-inf", "cg-tolerance-1e12",
             "cg-max-iterations-0", "cg-max-iterations-negative", "rows-repeated", "rows-range",
             "interpolation", "pnp", "nu0-nan", "nu0-inf", "tv-scale", "tv-iterations", "timeout", "timeout-inf", "timeout-1e10", "phantom", "margin-nan",
             "dot-size-negative", "bar-width-zero", "bar-length-negative"],
    )
    def test_bad_value_fails_before_any_stage(self, config_file, capsys, section, key, value,
                                              message):
        path, out = config_file
        config = configparser.ConfigParser()
        config.read(path)
        if not config.has_section(section):
            config.add_section(section)
        config[section][key] = value
        config[section].update(COMPANIONS.get(key, {}))
        with open(path, "w") as f:
            config.write(f)
        assert main(["run", "--config", path]) == 1
        tag = REPORTED_UNDER.get((section, key, value), section)
        assert capsys.readouterr().err.startswith(f"error: [config] [{tag}] {message}")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["run", "sweep", "simulate"])
    def test_negative_seed_override_fails_before_any_stage(self, config_file, capsys, command):
        path, out = config_file
        argv = [command, "--config", path, "--seed", "-1"]
        assert main(argv + (["--pairs", "800,1e-5"] if command == "sweep" else [])) == 1
        assert capsys.readouterr().err == (
            "error: [config] [pipeline] seed must be a nonnegative integer, got -1\n"
        )
        assert not os.path.exists(out)

    def test_bad_sweep_pair_fails_before_the_prelude(self, config_file, capsys):
        path, out = config_file
        assert main(["sweep", "--config", path, "--pairs", "800"]) == 1
        assert capsys.readouterr().err == "error: [config] pair '800' is not h_sat,nu0\n"
        assert not os.path.exists(out)

    def test_sweep_without_pairs_fails_and_writes_nothing(self, config_file, capsys):
        path, out = config_file
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", path])
        assert exit_.value.code != 0
        assert "--pairs" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_stage_failure_is_tagged(self, config_file, tmp_path, capsys):
        path, _ = config_file
        # deconvolve without any trace available
        code = main(["deconvolve", "--config", path, "--out", str(tmp_path / "empty")])
        assert code == 1
        err = capsys.readouterr().err
        assert "[deconvolve]" in err

    def test_sweep_without_trace_is_tagged_deconvolve(self, config_file, tmp_path, capsys):
        path, _ = config_file
        text = Path(path).read_text().replace(
            "stages = simulate,core,deconvolve", "stages = deconvolve"
        )
        config = tmp_path / "sweep.ini"
        config.write_text(text)
        empty = str(tmp_path / "empty")
        assert main(["sweep", "--config", str(config), "--out", empty, "--pairs", "800,1e-5"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: [deconvolve] deconvolution needs a trace"
        )

    def test_three_channel_signal_fails_core(self, config_file, capsys):
        path, out = config_file
        assert main(["simulate", "--config", path]) == 0
        signal = os.path.join(out, "signal.npy")
        data = np.load(signal)
        with open(signal, "wb") as f:
            np.save(f, np.column_stack([data, np.zeros(len(data))]))
        assert main(["core", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: [core] signal file {signal}: signal values must be a "
            "(samples, 1 or 2 channels) array, got (14112, 3)"
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, section, key, h",
        [("two_bar_33.ini", "kernel", "h_sat_a_per_m", "1e-300"),
         ("scanner_21.ini", "particle", "temperature_k", r"5\.1\d+e-300")],
        ids=["h-sat", "temperature"],
    )
    def test_kernel_scale_whose_field_overflows_fails_validation(self, tmp_path, capsys, name,
                                                                 section, key, h):
        # a kernel field scale near 1e-300 (the temperature gives h ~ 5e-300)
        # puts the grid's largest field offset beyond the float range in
        # units of h: sampling the kernel would overflow in the simulate stage
        config = configparser.ConfigParser(inline_comment_prefixes=(";",))
        config.read(CONFIGS / name)
        config[section][key] = "1e-300"
        config["pipeline"]["out"] = str(tmp_path / "out")
        path = tmp_path / name
        with open(path, "w") as f:
            config.write(f)
        assert main(["run", "--config", str(path)]) == 1
        assert re.fullmatch(
            rf"error: \[config\] \[kernel\] kernel resolution h = {h} A/m is too small for "
            r"the grid: its largest field offset \(9549\.3, 9549\.3\) A/m overflows in units "
            r"of h\n",
            capsys.readouterr().err,
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "suffix, dropped, message",
        [(".geom", 5, "missing key spacing_y"),
         (".float.txt", 0, "image shape (20, 21) does not match grid (21, 21)")],
        ids=["geom-key", "values-shape"],
    )
    def test_unreadable_input_trace_is_tagged_naming_the_file(self, config_file, tmp_path,
                                                               capsys, suffix, dropped, message):
        path, _ = config_file
        assert main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
        damaged = tmp_path / ("full/trace" + suffix)
        lines = damaged.read_text().splitlines(keepends=True)
        damaged.write_text("".join(lines[:dropped] + lines[dropped + 1 :]))
        config = deconvolve_only(path, tmp_path / "full" / "trace")
        assert main(["run", "--config", config, "--out", str(tmp_path / "again")]) == 1
        assert capsys.readouterr().err == f"error: [deconvolve] image file {damaged}: {message}\n"

    @pytest.mark.parametrize("command", ["deconvolve", "sweep"])
    def test_non_finite_input_trace_fails_before_pnp(self, config_file, tmp_path, capsys,
                                                    command):
        # a NaN pixel would spread through the first Fourier solve to every pixel
        path, _ = config_file
        assert main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
        values = tmp_path / "full" / "trace.float.txt"
        lines = values.read_text().splitlines(keepends=True)
        lines[10] = "nan " + lines[10].split(" ", 1)[1]
        values.write_text("".join(lines))
        config = deconvolve_only(path, tmp_path / "full" / "trace")
        again = tmp_path / "again"
        argv = [command, "--config", config, "--out", str(again)]
        assert main(argv + (["--pairs", "800,1e-5"] if command == "sweep" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: [deconvolve] image file {values} holds a non-finite value\n"
        )
        assert not (again / "recon.float.txt").exists() and not (again / "sweep.csv").exists()

    def test_non_finite_denoiser_reply_is_tagged(self, config_file, tmp_path, capsys):
        path, out = config_file
        command = " ".join(external_script(tmp_path, NAN_PIXEL_BODY))
        text = Path(path).read_text()
        assert text.count("[pnp]\n") == 1
        config = tmp_path / "external.ini"
        config.write_text(text.replace("[pnp]\n", f"[pnp]\ndenoiser_command = {command}\n"))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: [deconvolve] reply image holds a non-finite pixel\n"
        )
        assert not os.path.exists(os.path.join(out, "recon.float.txt"))

    @pytest.mark.parametrize(
        "command, line, lines, content, message",
        [("simulate", "repetition_time_s = 1.0",
          "repetition_time_s = 1.0\ntrajectory_file = bad.csv", "t,x,y\n0,1\n1,2,3\n",
          "[simulate] trajectory file {}: the number of columns changed from 2 to 3 at row 2"),
         ("core", "[phantom]", "[preprocess]\nsignal_file = bad.csv\n\n[phantom]",
          "t,s_x\n0,abc\n",
          "[core] signal file {}: could not convert string 'abc' to float64 at row 0, column 2")],
        ids=["trajectory-ragged", "signal-not-a-number"],
    )
    def test_unparsed_csv_input_is_tagged_naming_the_file(self, config_file, tmp_path, capsys,
                                                          command, line, lines, content,
                                                          message):
        path, _ = config_file
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        Path(path).write_text(Path(path).read_text().replace(line, lines))
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: " + message.format(bad))

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
            # the signal carries the file's 100 kHz stamps, not the config's rate
            signal = np.load(tmp_path / ("out_" + gamma) / "signal.npy")
            stamps = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1)[:, 0]
            assert np.array_equal(signal[:, 0], stamps)
            assert main(["core", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert "error: [core] normal matrix is singular: 25 of 25 pixels" in err

    @pytest.mark.parametrize("mismatch", ["file-rate", "rate-and-period"])
    def test_split_core_run_on_another_time_base_is_tagged(self, config_file, tmp_path, capsys,
                                                           mismatch):
        # the same sample count on another time base: only the stamps can tell
        path, out = config_file
        text = Path(path).read_text()
        if mismatch == "file-rate":
            rng = np.random.default_rng(1)
            positions = rng.uniform(-10e-3, 10e-3, size=(400, 2))
            for name, rate in (("traj_2m5.csv", 2.5e6), ("traj_1m.csv", 1e6)):
                rows = [f"{k / rate!r},{x:.17g},{y:.17g}" for k, (x, y) in enumerate(positions)]
                (tmp_path / name).write_text("t,x,y\n" + "\n".join(rows) + "\n")
            simulated = text.replace(
                "repetition_time_s = 1.0", "trajectory_file = traj_2m5.csv"
            )
            fitted = simulated.replace("traj_2m5.csv", "traj_1m.csv").replace(
                f"out = {out}", f"out = {tmp_path / 'fit'}"
            ) + f"\n[preprocess]\nsignal_file = {out}/signal.npy\n"
        else:
            simulated = text
            fitted = text.replace("sample_rate_hz = 14112", "sample_rate_hz = 28224").replace(
                "repetition_time_s = 1.0", "repetition_time_s = 0.5"
            )
        (tmp_path / "simulated.ini").write_text(simulated)
        (tmp_path / "fitted.ini").write_text(fitted)
        assert main(["simulate", "--config", str(tmp_path / "simulated.ini")]) == 0
        assert main(["core", "--config", str(tmp_path / "fitted.ini")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: [core] trajectory step t[1] - t[0] differs from the signal's step of "
        )

    def test_trajectory_file_with_excitation_fails_before_any_stage(self, config_file, tmp_path,
                                                                    capsys):
        # the file is read, so the excitation would not be
        path, out = config_file
        (tmp_path / "traj.csv").write_text("t,x,y\n0,0,0\n1,0,0\n")
        text = Path(path).read_text().replace(
            "repetition_time_s = 1.0",
            "repetition_time_s = 1.0\ntrajectory_file = traj.csv\n"
            "excitation_amplitude_mt = 1.5\nexcitation_frequency_hz = 2500.0",
        )
        config = tmp_path / "ignored.ini"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: [config] [scanner] excitation_amplitude_mt = 1.5 is not read with a "
            "trajectory_file\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("trajectory = excited", "trajectory: unknown key; did you mean 'trajectory_file'?"),
            ("excitation_amplitude_mt = 1.5",
             "excitation amplitude and frequency are set together or not at all"),
        ],
        ids=["unknown", "excited-keys"],
    )
    def test_bad_trajectory_kind_fails_before_any_stage(self, config_file, tmp_path, capsys,
                                                        lines, message):
        # the removed trajectory key, and an excitation with only its amplitude
        path, out = config_file
        text = Path(path).read_text().replace(
            "repetition_time_s = 1.0", f"repetition_time_s = 1.0\n{lines}"
        )
        config = tmp_path / "bad.ini"
        config.write_text(text)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: [config] [scanner] {message}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("nu0 = 1e-5", "nu0 = -1", "[pnp] nu0 must be positive"),
            ("repetition_time_s = 1.0", "trajectory = lissajous",
             "[scanner] trajectory: unknown key"),
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
