"""Config-driven pipeline runs, determinism, sweep and profiles."""

import configparser
import glob
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from denoiser_stubs import CLOSE_EARLY_BODY, HALVE_BODY, external_script
from mpirecon.core_stage import CoreStageConfig, extract_trace, solve_core_stage
from mpirecon.denoisers import DenoiserRef
from mpirecon.fileio import (
    load_core_field,
    load_image,
    load_signal,
    read_manifest,
    save_signal,
    save_trajectory,
    save_transfer_function,
)
from mpirecon.forward import ScanSignal, add_noise, simulate_signal
from mpirecon.geometry import ConcentrationImage, GridGeometry
from mpirecon.interpolation import InterpolationScheme
from mpirecon.kernels import KernelSpec, saturation_field
from mpirecon.phantoms import PhantomSpec, generate_phantom
from mpirecon.pnp import PnPConfig, zero_shot_pnp
from mpirecon.preprocessing import TransferFunction
from mpirecon.scanner import Trajectory, lissajous
from mpirecon.pipeline import (
    FLOAT,
    INT,
    SCHEMA,
    PipelineConfig,
    PipelineError,
    _deconvolution_kernel,
    dip_ratio,
    example_config,
    extract_profile,
    run_pipeline,
    sweep,
)

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.ini")))
TWO_BAR_33 = os.path.join(os.path.dirname(__file__), "..", "configs", "two_bar_33.ini")
GETTERS = (
    "stages", "out_dir", "seed", "noise_level", "grid", "scanner", "particle", "kernel_spec",
    "core", "interpolation", "denoiser", "pnp", "phantom",
)
KEYS = [(section, row[0]) for section, rows in SCHEMA.items() for row in rows]
NUMERIC_KEYS = [
    (section, row[0]) for section, rows in SCHEMA.items() for row in rows if row[1] in (FLOAT, INT)
]

VACUUM_PERMEABILITY = 4e-7 * np.pi


def config_text(out_dir, **overrides):
    base = f"""
[pipeline]
stages = simulate,core,deconvolve
out = {out_dir}
seed = 0
noise_level = {overrides.get("noise_level", 0.0)}

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
h_sat_a_per_m = {overrides.get("h_sat", 0.75 * 1.2e-3 / VACUUM_PERMEABILITY)}

[core]
rows = {overrides.get("rows", "0,1")}

[pnp]
nu0 = 1e-5
iterations = {overrides.get("pnp_iterations", 6)}

[phantom]
kind = {overrides.get("phantom", "two-bar")}
separation_mm = 3.6
bar_length_a_mm = 12.0
bar_length_b_mm = 12.0
bar_width_mm = 1.2
margin_mm = 2.4
"""
    return base


def two_bar_33_text(out_dir, noise_level):
    with open(TWO_BAR_33) as f:
        text = f.read()
    assert "out = runs/two_bar_33" in text and "noise_level = 0.0" in text
    return text.replace("out = runs/two_bar_33", f"out = {out_dir}").replace(
        "noise_level = 0.0", f"noise_level = {noise_level!r}"
    )


def assert_close(actual, expected, rtol):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def make_config(tmp_path, name="run", **overrides):
    out = str(tmp_path / name)
    return PipelineConfig.from_string(config_text(out, **overrides), base_dir=str(tmp_path))


class TestConfig:
    def test_defaults_parse(self, tmp_path):
        config = make_config(tmp_path)
        assert config.stages() == ("simulate", "core", "deconvolve")
        assert config.grid().shape == (21, 21)
        assert config.scanner().samples_per_period == 14112
        assert config.core().rows == (0, 1)

    def test_unknown_stage_rejected(self, tmp_path):
        config = PipelineConfig.from_string(
            "[pipeline]\nstages = simulate,transmogrify\n", base_dir=str(tmp_path)
        )
        with pytest.raises(ValueError, match="transmogrify"):
            config.stages()

    def test_missing_input_file_rejected(self, tmp_path):
        config = PipelineConfig.from_string(
            "[pipeline]\nstages = simulate\n[preprocess]\nsnr_file = nope.csv\n",
            base_dir=str(tmp_path),
        )
        with pytest.raises(FileNotFoundError):
            config.validate()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[scanner]\ntrajectory_file = traj.csv\nexcitation_amplitude_mt = 1.5\n"
                "excitation_frequency_hz = 2500.0\n",
                r"^\[scanner\] excitation_amplitude_mt = 1.5 is not read with a trajectory_file$",
            ),
            (
                "[scanner]\ntrajectory_file = traj.csv\ntrajectory = file\n",
                r"^\[scanner\] trajectory: unknown key; did you mean 'trajectory_file'\?$",
            ),
            (
                "[pnp]\ndenoiser_command = drunet --sigma-in\ntv_scale = 2.0\n",
                r"^\[pnp\] tv_scale = 2.0 is only read without a denoiser_command$",
            ),
            (
                # tv_scale is the one TV key; zero, the identity, is still a set value
                "[pnp]\ndenoiser_command = drunet\ntv_scale = 0.0\n",
                r"^\[pnp\] tv_scale = 0.0 is only read without a denoiser_command$",
            ),
            (
                "[pnp]\ndenoiser_timeout_s = 5.0\n",
                r"^\[pnp\] denoiser_timeout_s = 5.0 is only read with a denoiser_command$",
            ),
        ],
        ids=["file-with-excitation", "trajectory-key", "tv-scale-with-command",
             "tv-scale-zero-with-command", "timeout-without-command"],
    )
    def test_every_key_set_is_read(self, tmp_path, text, message):
        # the trajectory and the denoiser follow from the keys set: a
        # trajectory file is read, the excitation is not; a denoiser
        # command is run, the TV settings are not
        (tmp_path / "traj.csv").write_text("t,x,y\n0,0,0\n1,0,0\n")
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_string(text, base_dir=str(tmp_path)).validate()

    @pytest.mark.parametrize("key", ["threshold_x", "threshold_y"])
    def test_snr_thresholds_named_only_with_an_snr_file(self, tmp_path, key):
        # without an snr_file every bin has infinite SNR, so no threshold drops one
        with pytest.raises(ValueError, match=rf"^\[preprocess\] {key} = 1e\+30 is only read "
                                             r"with an snr_file$"):
            PipelineConfig.from_string(f"[preprocess]\n{key} = 1e30\n").validate()
        PipelineConfig.from_string(f"[preprocess]\n{key} = 0.0\n").validate()

    def test_decimate_keeps_the_two_samples_a_signal_needs(self, tmp_path):
        # 69696 samples per period, ceil(69696 / decimate) kept; a
        # trajectory file's length is known only once it is read
        PipelineConfig.from_string("[scanner]\ndecimate = 69695\n").validate()
        with pytest.raises(ValueError, match=r"^\[scanner\] decimate = 69696 keeps 1 of 69696 "
                                             r"samples per period; a signal needs at least 2$"):
            PipelineConfig.from_string("[scanner]\ndecimate = 69696\n").validate()
        (tmp_path / "traj.csv").write_text("t,x,y\n0,0,0\n1,0,0\n")
        text = "[scanner]\ntrajectory_file = traj.csv\ndecimate = 69696\n"
        PipelineConfig.from_string(text, base_dir=str(tmp_path)).validate()


class TestSchema:
    def test_example_config_parses_to_the_defaults(self, tmp_path):
        text = example_config()
        example = PipelineConfig.from_string(text, base_dir=str(tmp_path))
        default = PipelineConfig.from_string("", base_dir=str(tmp_path))
        for name in GETTERS:
            assert getattr(example, name)() == getattr(default, name)(), name
        example.validate()
        raw = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        raw.read_string(text)
        assert [(s, k) for s in raw.sections() for k in raw[s]] == KEYS

    def test_defaults_of_dataclass_backed_keys_come_from_the_dataclasses(self):
        config = PipelineConfig.from_string("")
        grid = config.grid()
        assert config.core() == CoreStageConfig(grid=grid)
        assert config.pnp() == PnPConfig()
        assert config.phantom() == PhantomSpec(kind="two-bar", grid=grid)
        assert config.interpolation() == InterpolationScheme()
        assert config.kernel_spec() == KernelSpec(h=saturation_field(config.particle()))

    def test_empty_value_means_default(self):
        config = PipelineConfig.from_string("[core]\ngamma =\n[kernel]\nh_sat_a_per_m =\n")
        default = PipelineConfig.from_string("")
        assert config.core() == default.core()
        assert config.kernel_spec() == default.kernel_spec()

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_shipped_configs_parse_and_validate(self, path):
        config = PipelineConfig.from_file(path)
        config.validate()
        for name in GETTERS:
            getattr(config, name)()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[core]\ngama = 5\n", r"^\[core\] gama: unknown key; did you mean 'gamma'\?$"),
            ("[pnpp]\nnu0 = 1e-5\n", r"^\[pnpp\] unknown section; did you mean 'pnp'\?$"),
            ("[core]\ngamma = abc\n", r"^\[core\] gamma = abc: could not convert"),
            ("[core]\nrows = 0,x\n", r"^\[core\] rows = 0,x: invalid literal"),
            ("[DEFAULT]\ngamma = 5\n", r"^\[DEFAULT\] unknown section"),
            # removed keys: the Laplacian is in pixel units, the series cutoff a constant
            ("[core]\nlaplacian_units = pixel\n", r"^\[core\] laplacian_units: unknown key"),
            ("[kernel]\ntaylor_cutoff = 0.02\n", r"^\[kernel\] taylor_cutoff: unknown key"),
            # removed keys: denoiser_command picks the backend, TV and external are the two
            ("[pnp]\ndenoiser = external\n", r"^\[pnp\] denoiser: unknown key"),
            ("[pnp]\nblur_scale = 4.0\n", r"^\[pnp\] blur_scale: unknown key"),
            ("[phantom]\nbar_axis = y\n", r"^\[phantom\] bar_axis: unknown key"),
            # removed section: sweep takes its pairs from its caller
            ("[sweep]\npairs = 800,1e-5\n", r"^\[sweep\] unknown section"),
            # removed key: the TV prox always runs TV_STEPS; the hint is the PnP count
            ("[pnp]\ntv_iterations = 24\n",
             r"^\[pnp\] tv_iterations: unknown key; did you mean 'iterations'\?$"),
        ],
        ids=["typo", "section", "float", "ints", "default-section", "laplacian-units",
             "taylor-cutoff", "denoiser", "blur-scale", "bar-axis", "sweep", "tv-iterations"],
    )
    def test_bad_config_rejected_when_read(self, text, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_string(text)

    def test_validate_builds_every_dataclass(self):
        config = PipelineConfig.from_string("[pnp]\nnu0 = -1\n")
        with pytest.raises(ValueError, match=r"^\[pnp\] nu0 must be positive$"):
            config.validate()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_character_misspellings_name_section_and_key(self, data):
        section, key = data.draw(st.sampled_from(KEYS))
        i = data.draw(st.integers(0, len(key)))
        char = data.draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789_"))
        typo = data.draw(
            st.sampled_from(
                [key[:i] + char + key[i:], key[:i] + char + key[i + 1 :], key[:i] + key[i + 1 :]]
            )
        )
        assume(typo and typo not in {row[0] for row in SCHEMA[section]})
        with pytest.raises(ValueError, match=rf"^\[{section}\] {typo}: unknown key"):
            PipelineConfig.from_string(f"[{section}]\n{typo} = 1\n")

    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(NUMERIC_KEYS), value=st.text("abcxyz%(),.", min_size=1, max_size=5))
    def test_non_numeric_values_name_section_and_key(self, key, value):
        section, name = key
        with pytest.raises(ValueError, match=rf"^\[{section}\] {name} = "):
            PipelineConfig.from_string(f"[{section}]\n{name} = {value}\n")


class TestFullRun:
    def test_artifacts_and_manifest(self, tmp_path):
        config = make_config(tmp_path)
        result = run_pipeline(config)
        out = result.out_dir
        for name in ("phantom", "trace", "recon"):
            assert os.path.exists(os.path.join(out, name + ".float.txt"))
            assert os.path.exists(os.path.join(out, name + ".pgm"))
        for name in ("signal.npy", "diagnostics.csv", "timings.csv"):
            assert os.path.exists(os.path.join(out, name))
        # the config regenerates a Lissajous trajectory, so none is written
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))
        assert "trajectory" not in result.artifacts
        # manifest covers exactly the files in the directory (minus itself)
        listed = set(read_manifest(out))
        present = {f for f in os.listdir(out) if f != "manifest.txt"}
        assert listed == present

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        path = next(p for p in CONFIGS if p.endswith("two_bar_33.ini"))
        config = PipelineConfig.from_file(path)
        outs = [str(tmp_path / name) for name in ("first", "second")]
        for out in outs:
            run_pipeline(config, out_dir=out, seed=7)
        listed = read_manifest(outs[0])
        assert read_manifest(outs[1]) == listed
        assert {"trace.float.txt", "recon.float.txt", "diagnostics.csv"} <= set(listed)
        for name in listed:
            if name != "timings.csv":
                first, second = (Path(out, name).read_bytes() for out in outs)
                assert first == second, name

    def test_a_subnormal_tv_weight_gives_a_finite_recon(self, tmp_path):
        # tv_scale * sigma^2 is subnormal, so image / weight would overflow
        text = two_bar_33_text(tmp_path / "out", 0.0)
        assert "tv_scale = 1.0" in text
        text = text.replace("tv_scale = 1.0", "tv_scale = 1e-307")
        result = run_pipeline(PipelineConfig.from_string(text, base_dir=str(tmp_path)))
        recon = load_image(os.path.join(result.out_dir, "recon")).values
        assert np.isfinite(recon).all() and recon.max() > 0

    def test_recon_separates_bars(self, tmp_path):
        config = make_config(tmp_path)
        result = run_pipeline(config)
        recon = load_image(os.path.join(result.out_dir, "recon"))
        center = recon.geometry.shape[0] // 2
        _, profile = extract_profile(recon.values, "row", center, recon.geometry)
        assert dip_ratio(profile) >= 0.2
        rows = {(r[0], r[1], r[2]): r[3] for r in result.diagnostics_rows}
        assert rows[("deconvolve", "all", "center_row_dip_ratio")] == pytest.approx(
            dip_ratio(profile)
        )
        for r in (0, 1):
            assert rows[("core", f"row{r}", "converged")] == 1

    def test_deterministic_reruns(self, tmp_path):
        config_a = make_config(tmp_path, "a")
        config_b = make_config(tmp_path, "b")
        run_pipeline(config_a)
        run_pipeline(config_b)
        files_a = sorted(read_manifest(str(tmp_path / "a")))
        files_b = sorted(read_manifest(str(tmp_path / "b")))
        assert files_a == files_b
        for name in files_a:
            if name == "timings.csv":
                continue
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"artifact {name} differs between identical runs"

    def test_noise_is_seed_reproducible(self, tmp_path):
        config = make_config(tmp_path, "n1", noise_level=0.05)
        r1 = run_pipeline(config, out_dir=str(tmp_path / "n1"), seed=7)
        r2 = run_pipeline(config, out_dir=str(tmp_path / "n2"), seed=7)
        r3 = run_pipeline(config, out_dir=str(tmp_path / "n3"), seed=8)
        s1 = (tmp_path / "n1" / "signal.npy").read_bytes()
        s2 = (tmp_path / "n2" / "signal.npy").read_bytes()
        s3 = (tmp_path / "n3" / "signal.npy").read_bytes()
        assert s1 == s2
        assert s1 != s3

    def test_partial_rows_run(self, tmp_path):
        config = make_config(tmp_path, "partial", rows="0")
        result = run_pipeline(config)
        out = result.out_dir
        assert os.path.exists(os.path.join(out, "entry_a00.float.txt"))
        field = load_core_field(out, "core")
        assert field.has_entry(0, 0)
        assert field.has_entry(0, 1)
        assert not field.has_entry(1, 1)
        assert os.path.exists(os.path.join(out, "recon.float.txt"))

    def test_row_order_does_not_change_the_fit(self, tmp_path):
        # signal channel i is operator row i whatever order [core] rows lists
        outs = [
            run_pipeline(make_config(tmp_path, name, rows=rows)).out_dir
            for name, rows in (("ordered", "0,1"), ("reversed", "1,0"))
        ]
        for name in ("core_field.npy", "trace.float.txt", "recon.float.txt"):
            ordered, reversed_ = (Path(out, name).read_bytes() for out in outs)
            assert ordered == reversed_, name


class TestSignalArtifact:
    """The run writes the simulated signal as exact ``.npy``, whatever
    stages follow ``simulate``."""

    def test_signal_npy_equals_an_inline_save_signal(self, tmp_path):
        config = make_config(tmp_path, noise_level=0.05)
        result = run_pipeline(config, stages=("simulate", "core"))
        scanner = config.scanner()
        signal = simulate_signal(
            generate_phantom(config.phantom()), lissajous(scanner), config.kernel_spec(),
            scanner, config.interpolation(),
        )
        signal = add_noise(signal, 0.05, config.seed())
        save_signal(str(tmp_path / "inline.npy"), signal)
        assert result.artifacts["signal"] == str(tmp_path / "run" / "signal.npy")
        assert (tmp_path / "run" / "signal.npy").read_bytes() == (
            tmp_path / "inline.npy"
        ).read_bytes()
        written = np.load(result.artifacts["signal"])
        expected = np.column_stack([signal.times, signal.values])
        assert written.dtype == expected.dtype and written.shape == expected.shape
        assert written.tobytes() == expected.tobytes()
        assert list(result.timings) == ["simulate", "core"]

    def test_simulate_as_the_last_stage_writes_signal_npy(self, tmp_path):
        result = run_pipeline(make_config(tmp_path), stages=("simulate",))
        assert list(result.timings) == ["simulate"]
        assert result.artifacts["signal"] == str(tmp_path / "run" / "signal.npy")
        assert load_signal(result.artifacts["signal"]).n_samples == 14112


class TestPreprocessStage:
    """The ``[preprocess]`` inputs, which the core stage applies before its fit."""

    @staticmethod
    def flat_transfer_function(path, n_bins):
        tf = TransferFunction(
            spectra=2.0 * np.ones((2, n_bins), dtype=complex),
            usable=np.ones((2, n_bins), dtype=bool),
        )
        save_transfer_function(str(path), tf)

    def test_transfer_function_and_snr_files_are_applied(self, tmp_path):
        from mpirecon.fileio import save_snr_profile
        from mpirecon.preprocessing import SnrProfile

        run_pipeline(make_config(tmp_path, "sim"), stages=("simulate",))
        signal = load_signal(str(tmp_path / "sim" / "signal.npy"))
        n_bins = signal.n_samples // 2 + 1
        self.flat_transfer_function(tmp_path / "tf.csv", n_bins)
        profile = SnrProfile(values=np.ones((2, n_bins)), thresholds=np.zeros(2))
        save_snr_profile(str(tmp_path / "snr.csv"), profile)
        # halved by the transfer function, then DC removed by thresholding
        expected = 0.5 * signal.values
        expected -= expected.mean(axis=0, keepdims=True)
        save_signal(str(tmp_path / "expected.npy"), ScanSignal(expected, signal.times))

        sections = {
            "prep": "signal_file = sim/signal.npy\ntransfer_function_file = tf.csv\n"
            "snr_file = snr.csv\nthreshold_x = 0.0\nthreshold_y = 0.0\n",
            "expected": "signal_file = expected.npy\n",
        }
        traces = {}
        for name, section in sections.items():
            text = config_text(str(tmp_path / name)) + f"\n[preprocess]\n{section}"
            config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
            run_pipeline(config, stages=("core",))
            traces[name] = load_image(str(tmp_path / name / "trace")).values
        assert_close(traces["prep"], traces["expected"], 1e-12)

    def test_changed_signal_file_is_read_afresh(self, tmp_path):
        # two core runs in one directory: nothing of the first run's
        # preprocessed signal is left for the second to read
        run_pipeline(make_config(tmp_path, "sim"), stages=("simulate",))
        signal = load_signal(str(tmp_path / "sim" / "signal.npy"))
        save_signal(str(tmp_path / "a.npy"), signal)
        save_signal(str(tmp_path / "a3.npy"), ScanSignal(3.0 * signal.values, signal.times))
        self.flat_transfer_function(tmp_path / "tf.csv", signal.n_samples // 2 + 1)
        traces = {}
        for name in ("a", "a3"):
            text = config_text(str(tmp_path / "fit")) + (
                f"\n[preprocess]\nsignal_file = {name}.npy\ntransfer_function_file = tf.csv\n"
            )
            config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
            run_pipeline(config, stages=("core",))
            traces[name] = load_image(str(tmp_path / "fit" / "trace")).values
        assert_close(traces["a3"], 3.0 * traces["a"], 1e-12)


class TestStageSelection:
    def test_deconvolve_from_precomputed_trace(self, tmp_path):
        first = make_config(tmp_path, "first")
        run_pipeline(first)
        trace_base = str(tmp_path / "first" / "trace")
        text = config_text(str(tmp_path / "second")) + (
            f"\n[deconvolve]\ninput_trace = {trace_base}\n"
        )
        second = PipelineConfig.from_string(text, base_dir=str(tmp_path))
        result = run_pipeline(second, stages=("deconvolve",))
        assert os.path.exists(os.path.join(result.out_dir, "recon.float.txt"))
        assert not os.path.exists(os.path.join(result.out_dir, "signal.npy"))
        recon_direct = load_image(os.path.join(str(tmp_path / "first"), "recon"))
        recon_staged = load_image(os.path.join(result.out_dir, "recon"))
        assert np.array_equal(recon_direct.values, recon_staged.values)

    @pytest.mark.parametrize("trajectory", ["lissajous", "file", "partial"])
    def test_split_run_matches_one_shot_run(self, tmp_path, trajectory):
        # simulate, core and deconvolve as separate runs in one directory:
        # an analytic trajectory is regenerated, a file one is read and
        # decimated, and partial data deconvolves the entry core wrote even
        # where an earlier full run left a trace
        text = config_text("{out}", rows="0" if trajectory == "partial" else "0,1")
        if trajectory == "file":
            scanner = PipelineConfig.from_string(text).scanner()
            save_trajectory(str(tmp_path / "traj.csv"), lissajous(scanner))
            text = text.replace(
                "repetition_time_s = 1.0",
                "repetition_time_s = 1.0\ntrajectory_file = traj.csv\ndecimate = 4",
            )
        runs = {"once": [None], "split": [("simulate",), ("core",), ("deconvolve",)]}
        if trajectory == "partial":
            run_pipeline(PipelineConfig.from_string(config_text(str(tmp_path / "split"))))
        for name, stage_lists in runs.items():
            out = str(tmp_path / name)
            config = PipelineConfig.from_string(text.replace("{out}", out), base_dir=str(tmp_path))
            for stages in stage_lists:
                run_pipeline(config, stages=stages)
        listed = read_manifest(str(tmp_path / "once"))
        # each split run rewrites diagnostics.csv with its own stage's rows
        for name in set(listed) - {"timings.csv", "diagnostics.csv"}:
            once, split = (tmp_path / "once" / name), (tmp_path / "split" / name)
            assert once.read_bytes() == split.read_bytes(), name
        # the trajectory is written only when it came from a file
        assert ("trajectory.csv" in listed) == (trajectory == "file")

    def test_split_preprocess_and_core_match_one_shot_run(self, tmp_path):
        # core preprocesses the signal it fits, whether simulated in the
        # same run or read from signal.npy
        TestPreprocessStage.flat_transfer_function(tmp_path / "tf.csv", 14112 // 2 + 1)
        text = config_text("{out}")
        tf = "\n[preprocess]\ntransfer_function_file = tf.csv\n"
        runs = {
            "plain": (text, [("simulate", "core")]),
            "once": (text + tf, [("simulate", "core")]),
            "split": (text + tf, [("simulate",), ("core",)]),
        }
        for name, (run_text, stage_lists) in runs.items():
            out = str(tmp_path / name)
            config = PipelineConfig.from_string(
                run_text.replace("{out}", out), base_dir=str(tmp_path)
            )
            for stages in stage_lists:
                run_pipeline(config, stages=stages)
        for name in ("core_field.npy", "trace.float.txt"):
            once, split = (tmp_path / "once" / name), (tmp_path / "split" / name)
            assert once.read_bytes() == split.read_bytes(), name
        # the transfer function is read by a one-shot run too
        plain = (tmp_path / "plain" / "trace.float.txt").read_bytes()
        assert plain != (tmp_path / "once" / "trace.float.txt").read_bytes()

    @pytest.mark.parametrize("entry", ["sweep", "run_pipeline"])
    def test_signal_file_with_simulate_fails_before_any_stage(self, tmp_path, entry):
        # a one-shot run fits the simulated signal; a split core run would read the file
        run_pipeline(make_config(tmp_path, "sim"), stages=("simulate",))
        text = config_text(str(tmp_path / "run")) + (
            "\n[preprocess]\nsignal_file = sim/signal.npy\n"
        )
        config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
        message = (
            r"^\[preprocess\] signal_file = sim/signal.npy is not read by a run with simulate$"
        )
        with pytest.raises(ValueError, match=message):
            if entry == "sweep":
                sweep(config, pairs=[(1000.0, 1e-5)])
            else:
                run_pipeline(config)
        assert not (tmp_path / "run").exists()

    def test_input_trace_with_core_fails_before_any_stage(self, tmp_path):
        # a one-shot run deconvolves core's trace; a split deconvolve run would read the file
        run_pipeline(make_config(tmp_path, "first"), stages=("simulate", "core"))
        text = config_text(str(tmp_path / "run")) + (
            "\n[deconvolve]\ninput_trace = first/trace\n"
        )
        config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
        message = r"^\[deconvolve\] input_trace = first/trace is not read by a run with core$"
        with pytest.raises(ValueError, match=message):
            run_pipeline(config, stages=("core", "deconvolve"))
        assert not (tmp_path / "run").exists()
        run_pipeline(config, stages=("deconvolve",))

    @pytest.mark.parametrize("name", ["bogus", "preprocess"])
    def test_stages_argument_names_are_checked(self, tmp_path, name):
        message = rf"^unknown stage '{name}'; valid stages: \('simulate', 'core', 'deconvolve'\)$"
        with pytest.raises(ValueError, match=message):
            run_pipeline(make_config(tmp_path), stages=("simulate", name))
        assert not (tmp_path / "run").exists()

    def test_stages_argument_runs_in_pipeline_order(self, tmp_path):
        result = run_pipeline(make_config(tmp_path), stages=("core", "simulate"))
        assert list(result.timings) == ["simulate", "core"]

    def test_core_without_trajectory_fails_with_stage_tag(self, tmp_path):
        config = make_config(tmp_path, "broken")
        with pytest.raises(PipelineError, match=r"\[core\]"):
            run_pipeline(config, stages=("core",))

    @staticmethod
    def file_trajectory_run(tmp_path, row_4):
        rows = [f"{k * 1e-3!r},0.001,{k * 1e-4!r},1.0,1.0" for k in range(10)]
        rows[4] = row_4
        (tmp_path / "traj.csv").write_text("t,x,y,vx,vy\n" + "\n".join(rows) + "\n")
        text = config_text(str(tmp_path / "run")).replace(
            "repetition_time_s = 1.0", "trajectory_file = traj.csv"
        )
        return PipelineConfig.from_string(text, base_dir=str(tmp_path))

    def test_non_finite_trajectory_file_fails_with_stage_tag(self, tmp_path):
        config = self.file_trajectory_run(tmp_path, "0.004,0.001,nan,1.0,1.0")
        message = r"^\[simulate\] trajectory positions are not finite at sample 4$"
        with pytest.raises(PipelineError, match=message):
            run_pipeline(config)

    def test_non_uniform_trajectory_file_fails_with_stage_tag(self, tmp_path):
        # t[4] moved by 1e-3 of a step: the signal would carry non-uniform stamps
        config = self.file_trajectory_run(tmp_path, "0.004001,0.001,0.0004,1.0,1.0")
        message = r"^\[simulate\] non-uniform time stamps at t\[4\]$"
        with pytest.raises(PipelineError, match=message):
            run_pipeline(config)


class TestEndToEndRelations:
    """Relations between whole runs that hold whatever the solvers'
    accuracy, so they keep guarding the pipeline through numerical
    changes; the split-vs-one-shot run above is the third."""

    def test_scaled_signal_scales_trace_and_recon(self, tmp_path):
        # every stage after the signal is positively homogeneous of degree 1
        run_pipeline(
            PipelineConfig.from_string(two_bar_33_text(tmp_path / "c1", 1e-3)),
            stages=("simulate",),
        )
        signal = load_signal(str(tmp_path / "c1" / "signal.npy"))
        images = {}
        for c in (1.0, 2.0, 3.0):
            out = tmp_path / f"c{c:g}"
            text = two_bar_33_text(out, 1e-3)
            if c != 1.0:
                # fed as the documented CSV, the text form measured data arrives in
                np.savetxt(
                    tmp_path / f"signal_{c:g}.csv",
                    np.column_stack([signal.times, c * signal.values]),
                    fmt="%.17g", delimiter=",", header="t,s_x,s_y", comments="",
                )
                text += f"\n[preprocess]\nsignal_file = signal_{c:g}.csv\n"
            config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
            run_pipeline(config, stages=("core", "deconvolve"))
            images[c] = {name: load_image(str(out / name)).values for name in ("trace", "recon")}
        for name, unscaled in images[1.0].items():
            assert np.array_equal(images[2.0][name], 2.0 * unscaled), name
            assert_close(images[3.0][name], 3.0 * unscaled, 1e-12)

    def test_swapped_axes_transpose_core_field_and_recon(self):
        # transposed phantom and swapped x/y columns: a mirror of the same scan
        config = PipelineConfig.from_file(TWO_BAR_33)
        scanner, spec, scheme = config.scanner(), config.kernel_spec(), config.interpolation()
        phantom = generate_phantom(config.phantom())
        straight = lissajous(scanner)
        swapped = Trajectory(
            straight.times, straight.positions[:, ::-1], straight.velocities[:, ::-1]
        )
        transposed = ConcentrationImage(phantom.values.T, phantom.geometry)
        kernel = _deconvolution_kernel(config, phantom.geometry, spec)
        runs = []
        for rho, trajectory in ((phantom, straight), (transposed, swapped)):
            signal = simulate_signal(rho, trajectory, spec, scanner, scheme)
            field = solve_core_stage(
                signal.values, trajectory.positions, trajectory.velocities, config.core(), scheme
            ).field
            runs.append((field, zero_shot_pnp(extract_trace(field), kernel, config.pnp()).image))
        (field, recon), (mirrored_field, mirrored_recon) = runs
        for j in range(2):
            for k in range(2):
                assert_close(mirrored_field.entry(j, k), field.entry(1 - j, 1 - k).T, 1e-12)
        assert_close(mirrored_recon, recon.T, 1e-12)


class TestExcitedTrajectoryRun:
    def test_partial_data_with_excitation_and_decimation(self, tmp_path):
        # excitation-superposed sweep, forward-difference-compatible
        # decimation, and a single receive channel: the pipeline recovers
        # row 0 and deconvolves the first diagonal entry
        out = tmp_path / "excited"
        text = f"""
[pipeline]
stages = simulate,core,deconvolve
out = {out}
seed = 0

[grid]
height = 21
width = 21
extent_x_mm = 28.0
extent_y_mm = 28.0

[scanner]
gradient_x_t_per_m = 1.39
gradient_y_t_per_m = -3.16
drive_amplitude_x_mt = 12.0
drive_amplitude_y_mt = 31.0
drive_frequency_x_hz = 50.0
drive_frequency_y_hz = 1.0
excitation_amplitude_mt = 1.5
excitation_frequency_hz = 2500.0
sample_rate_hz = 60000
repetition_time_s = 1.0
decimate = 10

[kernel]
h_sat_a_per_m = {1.0 * 1.39 * 1.4e-3 / VACUUM_PERMEABILITY}

[core]
rows = 0

[pnp]
nu0 = 1e-5
iterations = 4

[phantom]
kind = dot
dot_center_x_mm = 2.0
dot_center_y_mm = -2.0
dot_size_mm = 2.0
"""
        config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
        result = run_pipeline(config)
        assert os.path.exists(os.path.join(result.out_dir, "entry_a00.float.txt"))
        assert os.path.exists(os.path.join(result.out_dir, "recon.float.txt"))
        # 60000 samples decimated by 10
        signal = np.load(os.path.join(result.out_dir, "signal.npy"))
        assert signal.shape[0] == 6000
        # stamped at the decimated rate: the samples cover the whole period
        assert np.allclose(np.diff(signal[:, 0]), 10 / 60000, rtol=1e-9, atol=0)
        recon = load_image(os.path.join(result.out_dir, "recon"))
        peak_iy, peak_ix = np.unravel_index(np.argmax(recon.values), recon.values.shape)
        x = recon.geometry.origin[0] + peak_ix * recon.geometry.spacing[0]
        y = recon.geometry.origin[1] + peak_iy * recon.geometry.spacing[1]
        assert abs(x - 2e-3) <= 2 * recon.geometry.spacing[0]
        assert abs(y - (-2e-3)) <= 2 * recon.geometry.spacing[1]


class TestExternalDenoiserRun:
    """``denoiser_command`` alone selects the external backend."""

    def external_config(self, tmp_path, body):
        command = external_script(tmp_path, body)
        text = config_text(str(tmp_path / "run"), pnp_iterations=3)
        assert text.count("[pnp]\n") == 1
        text = text.replace("[pnp]\n", f"[pnp]\ndenoiser_command = {' '.join(command)}\n")
        config = PipelineConfig.from_string(text, base_dir=str(tmp_path))
        assert config.denoiser() == DenoiserRef(command=tuple(command))
        return config, command

    def test_recon_equals_zero_shot_pnp_with_the_stub(self, tmp_path):
        config, command = self.external_config(tmp_path, HALVE_BODY)
        result = run_pipeline(config)
        trace = load_image(result.artifacts["trace"])
        kernel = _deconvolution_kernel(config, trace.geometry, config.kernel_spec())
        external = PnPConfig(nu0=1e-5, n_iterations=3, denoiser=DenoiserRef(command=command))
        recon = load_image(result.artifacts["recon"]).values
        assert np.array_equal(recon, zero_shot_pnp(trace.values, kernel, external).image)
        tv = PnPConfig(nu0=1e-5, n_iterations=3)
        assert not np.array_equal(recon, zero_shot_pnp(trace.values, kernel, tv).image)

    def test_stub_that_closes_its_output_fails_the_deconvolve_stage(self, tmp_path):
        config, _ = self.external_config(tmp_path, CLOSE_EARLY_BODY)
        with pytest.raises(
            PipelineError, match=r"^\[deconvolve\] external denoiser closed its output early$"
        ):
            run_pipeline(config)


class TestSweep:
    def test_single_pair_matches_direct_run(self, tmp_path):
        config = make_config(tmp_path, "direct")
        direct = run_pipeline(config)
        rows = {(r[0], r[1], r[2]): r[3] for r in direct.diagnostics_rows}
        direct_dip = rows[("deconvolve", "all", "center_row_dip_ratio")]

        sweep_config = make_config(tmp_path, "swept")
        h_default = sweep_config.kernel_spec().h
        ranked = sweep(sweep_config, pairs=[(h_default, 1e-5)])
        assert len(ranked) == 1
        assert ranked[0]["status"] == "ok"
        assert ranked[0]["score"] == pytest.approx(direct_dip, rel=1e-12)
        assert os.path.exists(os.path.join(str(tmp_path / "swept"), "sweep.csv"))

    def test_non_bar_phantom_scores_by_data_residual(self, tmp_path):
        config = make_config(tmp_path, "direct", phantom="dot")
        direct = run_pipeline(config)
        recon = load_image(direct.artifacts["recon"])
        trace = load_image(direct.artifacts["trace"]).values
        kernel = _deconvolution_kernel(config, recon.geometry, config.kernel_spec())
        blurred = np.real(np.fft.ifft2(np.fft.fft2(recon.values) * np.fft.fft2(kernel)))
        expected = -np.linalg.norm(blurred - trace) / np.linalg.norm(trace)

        sweep_config = make_config(tmp_path, "swept", phantom="dot")
        ranked = sweep(sweep_config, pairs=[(sweep_config.kernel_spec().h, 1e-5)])
        assert ranked[0]["status"] == "ok"
        assert ranked[0]["score"] == pytest.approx(expected, rel=1e-9)

    def test_reference_selection_pair_present_and_finite(self, tmp_path):
        config = make_config(tmp_path, "gridsearch")
        h_default = config.kernel_spec().h
        reference_pair = (1e-2 / VACUUM_PERMEABILITY, 4e-2)
        ranked = sweep(config, pairs=[(h_default, 1e-5), reference_pair])
        by_pair = {(r["h_sat"], r["nu0"]): r for r in ranked}
        row = by_pair[reference_pair]
        assert row["status"] == "ok"
        assert np.isfinite(row["score"])

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        config = make_config(tmp_path, "faulty")
        h_default = config.kernel_spec().h
        ranked = sweep(config, pairs=[(-5.0, 1e-5), (h_default, 1e-5)])
        status = sorted(r["status"] == "ok" for r in ranked)
        assert status == [False, True]

    def test_missing_trace_raises_instead_of_failing_every_pair(self, tmp_path):
        config = PipelineConfig.from_string(
            "[pipeline]\nstages = deconvolve\n", base_dir=str(tmp_path)
        )
        with pytest.raises(PipelineError, match=r"^\[deconvolve\] deconvolution needs a trace"):
            sweep(config, pairs=[(800.0, 1e-5), (900.0, 1e-4)])

    def test_score_invariant_under_reordering(self, tmp_path):
        config = make_config(tmp_path, "ordered")
        h_default = config.kernel_spec().h
        pairs = [(h_default, 1e-5), (h_default * 2, 1e-4)]
        first = sweep(config, pairs=pairs)
        second = sweep(
            make_config(tmp_path, "reordered"), pairs=list(reversed(pairs))
        )
        scores_first = {(r["h_sat"], r["nu0"]): r["score"] for r in first}
        scores_second = {(r["h_sat"], r["nu0"]): r["score"] for r in second}
        assert scores_first == scores_second


class TestProfileAndDip:
    def test_center_row_of_two_bar_recon(self, tmp_path):
        grid = GridGeometry.node_centered((2.0, 2.0), (11, 11))
        img = np.zeros((11, 11))
        img[:, 3] = 1.0
        img[:, 7] = 1.0
        coords, values = extract_profile(img, "row", 5, grid)
        assert values[3] == values[7] == 1.0
        assert coords.shape == (11,)
        assert coords[0] == pytest.approx(-1.0)

    def test_column_profile(self):
        grid = GridGeometry.node_centered((2.0, 2.0), (5, 5))
        img = np.arange(25.0).reshape(5, 5)
        coords, values = extract_profile(img, "column", 2, grid)
        assert np.array_equal(values, img[:, 2])

    def test_out_of_range(self):
        grid = GridGeometry.node_centered((2.0, 2.0), (5, 5))
        with pytest.raises(IndexError):
            extract_profile(np.zeros((5, 5)), "row", 9, grid)

    def test_dip_ratio_direct_computation(self):
        profile = np.array([0.0, 1.0, 0.4, 0.8, 0.0])
        # peaks at 1.0 and 0.8, valley 0.4, mean peak 0.9
        assert dip_ratio(profile) == pytest.approx(1.0 - 0.4 / 0.9)

    def test_dip_ratio_needs_two_peaks(self):
        assert dip_ratio(np.array([])) == 0.0
        assert dip_ratio(np.array([0.0, 1.0, 0.0])) == 0.0
        assert dip_ratio(np.full(7, 2.0)) == 0.0

    @pytest.mark.parametrize(
        "profile, dip",
        [
            ([0.0, 1.0, 1.0, 0.0, 0.5, 0.0], 1.0),
            ([0.0, 1.0, 0.999, 0.0, 0.5, 0.0], 1.0),
            ([0.0, 0.5, 0.5, 0.5, 0.2, 0.5, 0.5, 0.0], 1.0 - 0.2 / 0.5),
            ([0.0, 1.0, 1.0, 1.0, 0.0], 0.0),
            ([2.0, 2.0, 0.0, 1.0, 0.0], 0.0),
        ],
        ids=["flat-top", "near-flat-top", "two-flat-tops", "one-flat-top", "flat-edge"],
    )
    def test_dip_ratio_counts_a_flat_top_as_one_peak(self, profile, dip):
        # the tallest two peaks are two bars, not two samples of one bar; a
        # flat run on the profile's edge has no base below it on that side
        assert dip_ratio(np.array(profile)) == pytest.approx(dip)

    @pytest.mark.parametrize("bump, dip", [(0.38, 0.0), (0.42, 1.0 - 0.3 / 0.71)])
    def test_dip_ratio_counts_a_bump_from_a_tenth_of_the_maximum(self, bump, dip):
        # the bump rises 0.08, then 0.12, over its higher base 0.3
        profile = np.array([0.0, 0.5, 1.0, 0.5, 0.3, bump, 0.3, 0.0])
        assert dip_ratio(profile) == pytest.approx(dip)

    def test_dip_ratio_of_one_bar_with_tail_ripples_is_zero(self):
        # two merged bars read as one 2-pixel peak; the tail bumps at
        # 0.36% and 0.41% of the maximum are no peaks
        profile = np.array([
            0.0, 0.001, 0.002, 0.0036, 0.003, 0.02, 0.3, 0.9, 1.0,
            0.95, 0.4, 0.03, 0.003, 0.0041, 0.002, 0.001, 0.0,
        ])
        assert dip_ratio(profile) == 0.0

    def test_dip_ratio_of_a_valley_below_zero_exceeds_one(self):
        # the profile is not clipped at zero
        profile = np.array([0.0, 0.6, 1.0, 0.3, -0.2, 0.3, 0.9, 0.5, 0.0])
        assert dip_ratio(profile) == pytest.approx(1.0 + 0.2 / 0.95)

    def test_dip_ratio_keeps_a_second_bar_of_prominence_0_16(self):
        # columns 60-99 of a 160 x 160 trace's centre row, over its
        # maximum: the second bar (0.975) rises 0.162 over the valley 0.813
        profile = np.array([
            0.570, 0.596, 0.626, 0.630, 0.667, 0.704, 0.738, 0.756, 0.831, 0.887,
            0.917, 0.959, 1.000, 0.951, 0.928, 0.898, 0.869, 0.813, 0.841, 0.838,
            0.822, 0.819, 0.865, 0.848, 0.877, 0.937, 0.973, 0.950, 0.975, 0.937,
            0.879, 0.811, 0.789, 0.729, 0.688, 0.675, 0.645, 0.610, 0.599, 0.583,
        ])
        assert dip_ratio(profile) == pytest.approx(1.0 - 0.813 / 0.9875)
