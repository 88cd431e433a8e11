"""Disk formats: image triples, core fields, signals, CSV trajectories, manifests."""

import math
import os
import pickle
import re

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

    @pytest.mark.parametrize(
        "suffix, old, new, message",
        [
            (".geom", "spacing_x = 0.0005\n", "", "missing key spacing_x$"),
            (".geom", "height = 5\n", "", "missing key height$"),
            (".geom", "height = 5", "height = 5.0", "invalid literal for int"),
            (".geom", "origin_y = -0.002", "origin_y = ?", "could not convert string to float"),
            (".geom", "spacing_y = 0.00025", "spacing_y = -1", "grid spacing must be positive"),
            (".float.txt", "\n", " x\n", "could not convert"),
            (".float.txt", "\n", " 1\n", "the number of columns changed"),
            (".float.txt", "\n", "\n0 0 0 0 0 0 0\n", r"\(6, 7\) does not match grid \(5, 7\)$"),
        ],
        ids=["key-spacing", "key-height", "height", "origin", "spacing", "text", "ragged",
             "taller"],
    )
    def test_load_errors_name_the_file(self, tmp_path, suffix, old, new, message):
        base = tmp_path / "img"
        save_image(str(base), np.zeros(GRID.shape), GRID)
        path = tmp_path / ("img" + suffix)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ValueError, match=f"^image file {re.escape(str(path))}: .*{message}"):
            load_image(str(base))

    @staticmethod
    def per_pixel_pgm(values):
        """The preview as formatted pixel by pixel with ``str``."""
        finite = np.isfinite(values)
        kept = values[finite]
        lo, hi = (float(kept.min()), float(kept.max())) if kept.size else (0.0, 0.0)
        shown = np.where(finite, values, lo)
        if math.isinf(hi - lo):
            shown, lo, hi = shown / 2, lo / 2, hi / 2
        preview = np.round((shown - lo) / (hi - lo) * 255.0) if hi > lo else np.zeros(values.shape)
        preview = preview.astype(int)
        preview[values == np.inf] = 255
        h, w = values.shape
        lines = [f"P2\n{w} {h}\n255\n"]
        lines += [" ".join(map(str, row)) + "\n" for row in preview.tolist()]
        return "".join(lines).encode()

    @pytest.mark.parametrize("seed", range(3))
    def test_preview_bytes_equal_the_per_pixel_format(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        grid = GridGeometry(shape=(100, 100), spacing=(1.0, 1.0), origin=(0.0, 0.0))
        random = rng.normal(size=grid.shape)
        special = random.copy()
        special[rng.integers(100, size=30), rng.integers(100, size=30)] = np.nan
        special[rng.integers(100, size=30), rng.integers(100, size=30)] = np.inf
        special[rng.integers(100, size=30), rng.integers(100, size=30)] = -np.inf
        for name, values in (
            ("random", random), ("special", special), ("constant", np.full(grid.shape, -2.5))
        ):
            save_image(str(tmp_path / name), values, grid)
            assert (tmp_path / f"{name}.pgm").read_bytes() == self.per_pixel_pgm(values), name

    @settings(max_examples=100, deadline=None)
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_preview_bytes_equal_the_per_pixel_format_on_any_values(self, tmp_path_factory,
                                                                    values):
        grid = GridGeometry(shape=values.shape, spacing=(1.0, 1.0), origin=(0.0, 0.0))
        base = tmp_path_factory.mktemp("pgm") / "any"
        save_image(str(base), values, grid)
        assert base.with_suffix(".pgm").read_bytes() == self.per_pixel_pgm(values)

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


def core_field(rows, values, geometry=GRID):
    """A field populating ``rows``, each entry of ``values`` in turn."""
    keys = [(row, col) for row in sorted(rows) for col in (0, 1)]
    return CoreOperatorField(entries=dict(zip(keys, values)), geometry=geometry,
                             populated_rows=tuple(rows))


class TestCoreFieldSet:
    def test_round_trip_partial_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        field = core_field((0,), rng.normal(size=(2, *GRID.shape)))
        paths = save_core_field(str(tmp_path), "core", field)
        assert sorted(os.path.basename(p) for p in paths) == [
            "core_A00.pgm", "core_A01.pgm", "core_entries.txt", "core_field.npy"
        ]
        loaded = load_core_field(str(tmp_path), "core")
        assert loaded.populated_rows == (0,)
        assert sorted(loaded.entries) == [(0, 0), (0, 1)]
        for key in field.entries:
            assert np.array_equal(loaded.entries[key], field.entries[key])
        assert loaded.geometry == GRID

    def test_header_states_the_grid_as_the_geom_sidecar_does(self, tmp_path):
        rng = np.random.default_rng(6)
        field = core_field((1, 0), rng.normal(size=(4, *GRID.shape)))
        save_core_field(str(tmp_path), "core", field)
        save_image(str(tmp_path / "img"), field.entries[(0, 0)], GRID)
        geom = (tmp_path / "img.geom").read_text()
        assert (tmp_path / "core_entries.txt").read_text() == (
            "dimension = 2\nrows = 1,0\n" + geom
            + "entry = 0,0\nentry = 0,1\nentry = 1,0\nentry = 1,1\n"
        )
        # slices in the order of the entry lines
        stored = np.load(tmp_path / "core_field.npy")
        assert np.array_equal(stored, np.stack([field.entries[k] for k in sorted(field.entries)]))

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.sampled_from([(0,), (1,), (1, 0)]),
        data=st.data(),
        spacing=st.tuples(POSITIVE, POSITIVE),
        origin=st.tuples(FINITE, FINITE),
    )
    def test_any_field_round_trips_to_the_bit(self, tmp_path_factory, rows, data, spacing,
                                              origin):
        shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
        values = data.draw(
            arrays(np.float64, (2 * len(rows), *shape), elements=ANY_FLOAT, fill=ANY_FLOAT)
        )
        geometry = GridGeometry(shape=shape, spacing=spacing, origin=origin)
        field = core_field(rows, values, geometry)
        work = tmp_path_factory.mktemp("core")
        save_core_field(str(work), "core", field)
        loaded = load_core_field(str(work), "core")
        assert loaded.populated_rows == rows
        assert loaded.geometry == geometry
        assert sorted(loaded.entries) == sorted(field.entries)
        for (row, col), entry in field.entries.items():
            # NaN payloads, infinities and -0.0 included
            assert loaded.entries[(row, col)].dtype == np.float64
            assert loaded.entries[(row, col)].tobytes() == entry.tobytes()
            preview = (work / f"core_A{row}{col}.pgm").read_bytes()
            assert preview == TestImageTriple.per_pixel_pgm(entry)

    def test_other_dimension_rejected(self, tmp_path):
        field = core_field((0,), np.zeros((2, *GRID.shape)))
        save_core_field(str(tmp_path), "core", field)
        path = tmp_path / "core_entries.txt"
        text = path.read_text()
        assert text.startswith("dimension = 2\n")
        path.write_text(text.replace("dimension = 2", "dimension = 3"))
        with pytest.raises(ValueError, match="core fields are 2D, got dimension = 3$"):
            load_core_field(str(tmp_path), "core")

    @pytest.mark.parametrize(
        "line, message",
        [("spacing_y = 0.00025\n", "missing key spacing_y"),
         ("width = 7\n", "missing key width"),
         ("entry = 0,1\n", None)],
        ids=["spacing", "width", "entry"],
    )
    def test_header_without_a_line_is_refused_naming_it(self, tmp_path, line, message):
        save_core_field(str(tmp_path), "core", core_field((0,), np.zeros((2, *GRID.shape))))
        path = tmp_path / "core_entries.txt"
        assert line in path.read_text()
        path.write_text(path.read_text().replace(line, ""))
        named = str(path) if message else str(tmp_path / "core_field.npy")
        with pytest.raises(ValueError, match=re.escape(named)):
            load_core_field(str(tmp_path), "core")

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda f: pickle.dump(np.zeros((2, *GRID.shape)), f), "pickle"),
            (lambda f: np.save(f, np.array([None, {}], dtype=object), allow_pickle=True),
             "pickle"),
            (lambda f: np.save(f, np.zeros((2, *GRID.shape), dtype=np.int64)),
             " must hold a 3-D float array$"),
            (lambda f: np.save(f, np.zeros((2, *GRID.shape), dtype=complex)),
             " must hold a 3-D float array$"),
            (lambda f: np.save(f, np.zeros((2, GRID.n_pixels))), " must hold a 3-D float array$"),
            (lambda f: np.save(f, np.zeros((1, 2, *GRID.shape))), " must hold a 3-D float array$"),
            (lambda f: np.save(f, np.zeros((3, *GRID.shape))),
             r" holds shape \(3, 5, 7\); .*core_entries\.txt states \(2, 5, 7\)$"),
            (lambda f: np.save(f, np.zeros((1, *GRID.shape))),
             r" holds shape \(1, 5, 7\); .*core_entries\.txt states \(2, 5, 7\)$"),
            (lambda f: np.save(f, np.zeros((2, *GRID.shape[::-1]))),
             r" holds shape \(2, 7, 5\); .*core_entries\.txt states \(2, 5, 7\)$"),
        ],
        ids=["pickle", "object", "int", "complex", "2-d", "4-d", "more-entries",
             "fewer-entries", "transposed"],
    )
    def test_bad_array_is_refused_naming_the_file(self, tmp_path, write, message):
        save_core_field(str(tmp_path), "core", core_field((0,), np.zeros((2, *GRID.shape))))
        path = tmp_path / "core_field.npy"
        with open(path, "wb") as f:
            write(f)
        named = f"^core field file {re.escape(str(path))}.*{message}"
        with pytest.raises(ValueError, match=named):
            load_core_field(str(tmp_path), "core")


class TestManifest:
    def test_lists_relative_paths_sorted(self, tmp_path):
        a = tmp_path / "b.txt"
        b = tmp_path / "a.txt"
        a.write_text("x")
        b.write_text("y")
        write_manifest(str(tmp_path), [str(a), str(b)])
        assert read_manifest(str(tmp_path)) == ["a.txt", "b.txt"]
