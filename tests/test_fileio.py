"""Disk formats: image triples, signals, CSV trajectories, manifests."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpirecon.fileio import (
    _BLOCK_VALUES,
    _write_rows,
    load_core_field,
    load_image,
    load_signal,
    load_snr_profile,
    load_trajectory,
    load_transfer_function,
    read_manifest,
    save_core_field,
    save_image,
    save_signal,
    save_snr_profile,
    save_trajectory,
    save_transfer_function,
    write_manifest,
)
from mpirecon.forward import CoreOperatorField, ScanSignal
from mpirecon.geometry import GridGeometry
from mpirecon.preprocessing import SnrProfile, TransferFunction
from mpirecon.scanner import Trajectory

GRID = GridGeometry(shape=(5, 7), spacing=(0.5e-3, 0.25e-3), origin=(-1e-3, -2e-3))

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


# every float, with the extremes of %.17g drawn often
ANY_FLOAT = st.floats() | st.sampled_from(
    [1e308, -1e308, 5e-324, -5e-324, 2.225e-308, -0.0, math.nan, math.inf, -math.inf]
)


def first_line(path):
    with open(path) as f:
        return f.readline().strip()


def finite_arrays(rows, columns):
    return arrays(np.float64, st.tuples(rows, columns), elements=FINITE)


class TestBlockWriter:
    @pytest.mark.parametrize("delimiter, header", [(",", "t,s_x,s_y"), (" ", None)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_match_savetxt(self, tmp_path_factory, delimiter, header, data):
        columns = data.draw(st.integers(1, 5))
        block = _BLOCK_VALUES // columns
        rows = data.draw(st.sampled_from([1, 2, block, block + 1, 2 * block + 3]))
        values = data.draw(arrays(np.float64, (rows, columns), elements=ANY_FLOAT, fill=ANY_FLOAT))
        work = tmp_path_factory.mktemp("rows")
        _write_rows(str(work / "blocks.txt"), values, delimiter, header)
        np.savetxt(
            str(work / "savetxt.txt"), values, fmt="%.17g", delimiter=delimiter,
            header=header or "", comments="",
        )
        assert (work / "blocks.txt").read_bytes() == (work / "savetxt.txt").read_bytes()


class TestImageTriple:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=GRID.shape) * 1e-7   # exercises %.17g on small values
        base = str(tmp_path / "img")
        paths = save_image(base, values, GRID)
        assert [p.rsplit(".", 1)[-1] for p in paths] == ["pgm", "geom", "txt"]
        loaded = load_image(base)
        assert np.array_equal(loaded.values, values)
        assert loaded.geometry == GRID

    def test_pgm_preview_is_valid_p2(self, tmp_path):
        base = str(tmp_path / "img")
        save_image(base, np.linspace(0, 1, 35).reshape(GRID.shape), GRID)
        lines = (tmp_path / "img.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "7 5"
        assert lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == 35
        assert min(pixels) == 0 and max(pixels) == 255

    def test_constant_image_preview(self, tmp_path):
        base = str(tmp_path / "flat")
        save_image(base, np.full(GRID.shape, 3.3), GRID)
        lines = (tmp_path / "flat.pgm").read_text().splitlines()
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert set(pixels) == {0}

    @pytest.mark.filterwarnings("error")
    def test_preview_of_a_span_beyond_the_float_range(self, tmp_path):
        # max - min overflows to inf; the preview still spans 0..255
        base = str(tmp_path / "wide")
        values = np.linspace(-1.5, 1.5, 35).reshape(GRID.shape) * 1e308
        save_image(base, values, GRID)
        lines = (tmp_path / "wide.pgm").read_text().splitlines()
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert pixels[0] == 0 and pixels[-1] == 255
        assert pixels == sorted(pixels)
        assert np.array_equal(load_image(base).values, values)

    @pytest.mark.filterwarnings("error")
    def test_preview_of_a_subnormal_span(self, tmp_path):
        # 255 / (max - min) overflows to inf; the preview still spans 0..255
        grid = GridGeometry(shape=(2, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        values = np.array([[0.0, 5e-324], [1e-320, 0.0]])
        save_image(str(tmp_path / "tiny"), values, grid)
        lines = (tmp_path / "tiny.pgm").read_text().splitlines()
        assert [row.split() for row in lines[3:]] == [["0", "0"], ["255", "0"]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad, shown", [(np.nan, 0), (-np.inf, 0), (np.inf, 255)])
    def test_preview_of_a_non_finite_pixel(self, tmp_path, bad, shown):
        # the finite pixels keep the preview of the all-finite image
        finite = np.linspace(0, 1, 35).reshape(GRID.shape)
        save_image(str(tmp_path / "finite"), finite, GRID)
        expected = (tmp_path / "finite.pgm").read_text().split()
        values = finite.copy()
        values[1, 2] = bad
        base = str(tmp_path / "bad")
        save_image(base, values, GRID)
        words = (tmp_path / "bad.pgm").read_text().split()
        index = 4 + 1 * GRID.shape[1] + 2
        assert words[index] == str(shown)
        assert words[:index] + words[index + 1 :] == expected[:index] + expected[index + 1 :]
        assert np.array_equal(load_image(base).values, values, equal_nan=True)

    @pytest.mark.filterwarnings("error")
    def test_preview_of_an_image_without_finite_pixels(self, tmp_path):
        values = np.full(GRID.shape, np.nan)
        values[0] = np.inf
        values[1] = -np.inf
        save_image(str(tmp_path / "none"), values, GRID)
        lines = (tmp_path / "none.pgm").read_text().splitlines()
        assert lines[3].split() == ["255"] * GRID.shape[1]
        assert {v for row in lines[4:] for v in row.split()} == {"0"}

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_image(str(tmp_path / "bad"), np.zeros((3, 3)), GRID)

    @settings(max_examples=50, deadline=None)
    @given(
        values=finite_arrays(st.integers(1, 6), st.integers(1, 6)),
        spacing=st.tuples(POSITIVE, POSITIVE),
        origin=st.tuples(FINITE, FINITE),
    )
    def test_any_finite_image_round_trips_exactly(self, tmp_path_factory, values, spacing, origin):
        geometry = GridGeometry(shape=values.shape, spacing=spacing, origin=origin)
        base = str(tmp_path_factory.mktemp("img") / "img")
        save_image(base, values, geometry)
        loaded = load_image(base)
        assert np.array_equal(loaded.values, values)
        assert loaded.geometry == geometry


SIGNAL_FORMATS = ("signal.npy", "signal.csv")


def write_signal_array(path, data):
    """A ``t, s_x[, s_y]`` array as ``save_signal``'s ``.npy``, or as the
    documented CSV in which measured data arrives."""
    if path.endswith(".npy"):
        with open(path, "wb") as f:
            np.save(f, data)
    else:
        header = "t," + ",".join(f"s_{axis}" for axis in "xy"[: data.shape[1] - 1])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


class TestSignalCsv:
    """``save_signal`` writes ``.npy``; ``load_signal`` reads it and the CSV
    form, and every loading test runs on both."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = ScanSignal(values=rng.normal(size=(64, 2)), times=np.arange(64) / 2.5e6)
        path = str(tmp_path / "signal.npy")
        save_signal(path, sig)
        assert np.array_equal(np.load(path), np.column_stack([sig.times, sig.values]))
        loaded = load_signal(path)
        assert np.array_equal(loaded.values, sig.values)
        assert np.array_equal(loaded.times, sig.times)

    def test_single_channel(self, tmp_path):
        sig = ScanSignal(values=np.arange(10.0)[:, None], times=np.arange(10) / 100.0)
        path = str(tmp_path / "signal.npy")
        save_signal(path, sig)
        assert np.load(path).shape == (10, 2)
        loaded = load_signal(path)
        assert loaded.n_channels == 1

    @settings(max_examples=50, deadline=None)
    @given(
        values=finite_arrays(st.integers(2, 40), st.integers(1, 2)),
        sample_rate=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_any_finite_signal_round_trips_exactly(self, tmp_path_factory, values, sample_rate):
        sig = ScanSignal(values=values, times=np.arange(len(values)) / sample_rate)
        work = tmp_path_factory.mktemp("sig")
        for name in SIGNAL_FORMATS:
            path = str(work / name)
            write_signal_array(path, np.column_stack([sig.times, sig.values]))
            loaded = load_signal(path)
            assert np.array_equal(loaded.values, sig.values), name
            # the file carries the stamps, and the signal keeps them as they are
            assert np.array_equal(loaded.times, sig.times), name

    def test_long_excitation_rate_signal_loads(self, tmp_path):
        # one second at 640 kHz: the stamp rounding grows with the sample index
        sig = ScanSignal(values=np.zeros((640_000, 1)), times=np.arange(640_000) / 640e3)
        for name in SIGNAL_FORMATS:
            path = str(tmp_path / name)
            write_signal_array(path, np.column_stack([sig.times, sig.values]))
            loaded = load_signal(path)
            assert loaded.n_samples == 640_000, name
            assert np.array_equal(loaded.times, sig.times), name

    @pytest.mark.parametrize("stamps", [(0, 1, 3, 2.5), (0, 1, 2, 4), (0, 1, 2, float("nan"))])
    def test_non_uniform_stamps_rejected(self, tmp_path, stamps):
        for name in SIGNAL_FORMATS:
            path = str(tmp_path / name)
            write_signal_array(path, np.column_stack([stamps, np.ones(len(stamps))]))
            with pytest.raises(ValueError, match=r"non-uniform time stamps at t\[[23]\]$"):
                load_signal(path)
        # a signal built in memory passes the same check
        with pytest.raises(ValueError, match=r"^non-uniform time stamps at t\[[23]\]$"):
            ScanSignal(values=np.ones((len(stamps), 1)), times=stamps)

    @pytest.mark.parametrize(
        "stamps, n_samples, message",
        [((0, -1, -2, -3), 4, r"^signal time stamps must increase, got t\[1\] - t\[0\] = -1$"),
         ((2, 2, 2, 2), 4, r"^signal time stamps must increase, got t\[1\] - t\[0\] = 0$"),
         ((0, 1, 2), 4, r"^signal needs one time stamp per sample .+ got \(3,\) stamps for 4 samples$"),
         ((0,), 1, r"^signal needs one time stamp per sample .+ got \(1,\) stamps for 1 samples$")],
        ids=["decreasing", "constant", "count", "one-sample"],
    )
    def test_signal_built_from_bad_stamps_rejected(self, stamps, n_samples, message):
        with pytest.raises(ValueError, match=message):
            ScanSignal(values=np.ones((n_samples, 1)), times=stamps)

    @pytest.mark.parametrize(
        "data",
        [np.arange(4.0), np.arange(8).reshape(4, 2), np.ones((1, 2)), np.ones((4, 2, 1)),
         {"t": np.arange(4.0)}],
        ids=["1d", "int", "one-row", "3d", "npz-archive"],
    )
    def test_npy_that_is_not_a_2d_float_array_of_two_rows_rejected(self, tmp_path, data):
        path = str(tmp_path / "signal.npy")
        if isinstance(data, dict):
            with open(path, "wb") as f:
                np.savez(f, **data)
        else:
            write_signal_array(path, data)
        with pytest.raises(ValueError, match=r"^signal file .+signal\.npy must hold a 2-D float"):
            load_signal(path)

    @pytest.mark.parametrize("pickled", ["object-array", "bare-pickle"])
    def test_pickled_npy_refused(self, tmp_path, pickled):
        path = tmp_path / "signal.npy"
        payload = np.array([[0.0, {"not": "a sample"}], [1.0, None]], dtype=object)
        if pickled == "object-array":
            with open(path, "wb") as f:
                np.save(f, payload, allow_pickle=True)
        else:
            path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match=r"^signal file .+signal\.npy: .*pickle"):
            load_signal(str(path))


class TestTrajectoryCsv:
    def test_round_trip_with_velocities(self, tmp_path):
        rng = np.random.default_rng(2)
        traj = Trajectory(
            times=np.linspace(0, 1e-3, 20),
            positions=rng.normal(size=(20, 2)) * 1e-3,
            velocities=rng.normal(size=(20, 2)),
        )
        path = str(tmp_path / "traj.csv")
        save_trajectory(path, traj)
        assert first_line(path) == "t,x,y,vx,vy"
        loaded = load_trajectory(path)
        assert np.array_equal(loaded.positions, traj.positions)
        assert np.array_equal(loaded.velocities, traj.velocities)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_any_finite_trajectory_round_trips_exactly(self, tmp_path_factory, data):
        length = data.draw(st.integers(1, 30))
        traj = Trajectory(
            times=data.draw(finite_arrays(st.just(length), st.just(1)))[:, 0],
            positions=data.draw(finite_arrays(st.just(length), st.just(2))),
            velocities=data.draw(finite_arrays(st.just(length), st.just(2))),
        )
        path = str(tmp_path_factory.mktemp("traj") / "traj.csv")
        save_trajectory(path, traj)
        loaded = load_trajectory(path)
        for name in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(loaded, name), getattr(traj, name)), name

    def test_positions_only_get_forward_difference_velocities(self, tmp_path):
        t = np.linspace(0.0, 1.0, 11)
        pos = np.stack([2.0 * t, -1.0 * t], axis=-1)
        path = tmp_path / "traj.csv"
        rows = ["t,x,y"] + [f"{float(ti)!r},{float(x)!r},{float(y)!r}" for ti, (x, y) in zip(t, pos)]
        path.write_text("\n".join(rows) + "\n")
        loaded = load_trajectory(str(path))
        assert np.allclose(loaded.velocities, [[2.0, -1.0]] * 11)


class TestSpectraCsv:
    def test_transfer_function_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        spectra = rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))
        usable = rng.uniform(size=(2, 9)) > 0.3
        spectra[~usable] = 0.0
        tf = TransferFunction(spectra=spectra, usable=usable)
        path = str(tmp_path / "tf.csv")
        save_transfer_function(path, tf)
        loaded = load_transfer_function(path, 2, 9)
        assert np.array_equal(loaded.spectra, spectra)
        assert np.array_equal(loaded.usable, usable)

    def test_snr_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        profile = SnrProfile(values=rng.uniform(size=(2, 6)), thresholds=np.zeros(2))
        path = str(tmp_path / "snr.csv")
        save_snr_profile(path, profile)
        loaded = load_snr_profile(path, 2, 6, thresholds=[0.04, 0.01])
        assert np.array_equal(loaded.values, profile.values)
        assert np.array_equal(loaded.thresholds, [0.04, 0.01])


class TestCoreFieldSet:
    def test_round_trip_partial_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = {(0, 0): rng.normal(size=GRID.shape), (0, 1): rng.normal(size=GRID.shape)}
        field = CoreOperatorField(entries=entries, geometry=GRID, populated_rows=(0,))
        paths = save_core_field(str(tmp_path), "core", field)
        assert any(p.endswith("core_entries.txt") for p in paths)
        loaded = load_core_field(str(tmp_path), "core")
        assert loaded.populated_rows == (0,)
        assert sorted(loaded.entries) == [(0, 0), (0, 1)]
        for key in entries:
            assert np.array_equal(loaded.entries[key], entries[key])
        assert loaded.geometry == GRID

    def test_other_dimension_rejected(self, tmp_path):
        field = CoreOperatorField(entries={(0, 0): np.zeros(GRID.shape)}, geometry=GRID,
                                  populated_rows=(0,))
        save_core_field(str(tmp_path), "core", field)
        path = tmp_path / "core_entries.txt"
        text = path.read_text()
        assert text.startswith("dimension = 2\n")
        path.write_text(text.replace("dimension = 2", "dimension = 3"))
        with pytest.raises(ValueError, match="core fields are 2D, got dimension = 3$"):
            load_core_field(str(tmp_path), "core")


class TestManifest:
    def test_lists_relative_paths_sorted(self, tmp_path):
        a = tmp_path / "b.txt"
        b = tmp_path / "a.txt"
        a.write_text("x")
        b.write_text("y")
        write_manifest(str(tmp_path), [str(a), str(b)])
        assert read_manifest(str(tmp_path)) == ["a.txt", "b.txt"]
