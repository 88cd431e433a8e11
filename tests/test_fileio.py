"""Disk formats: image triples, CSV signals/trajectories, manifests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpirecon.fileio import (
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


def finite_arrays(rows, columns):
    return arrays(np.float64, st.tuples(rows, columns), elements=FINITE)


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


class TestSignalCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = ScanSignal(values=rng.normal(size=(64, 2)), sample_rate=2.5e6)
        path = str(tmp_path / "signal.csv")
        save_signal(path, sig)
        header = open(path).readline().strip()
        assert header == "t,s_x,s_y"
        loaded = load_signal(path)
        assert np.array_equal(loaded.values, sig.values)
        assert loaded.sample_rate == pytest.approx(sig.sample_rate, rel=1e-12)

    def test_single_channel(self, tmp_path):
        sig = ScanSignal(values=np.arange(10.0)[:, None], sample_rate=100.0)
        path = str(tmp_path / "signal.csv")
        save_signal(path, sig)
        assert open(path).readline().strip() == "t,s_x"
        loaded = load_signal(path)
        assert loaded.n_channels == 1

    @settings(max_examples=50, deadline=None)
    @given(
        values=finite_arrays(st.integers(2, 40), st.integers(1, 3)),
        sample_rate=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_any_finite_signal_round_trips_exactly(self, tmp_path_factory, values, sample_rate):
        sig = ScanSignal(values=values, sample_rate=sample_rate)
        path = str(tmp_path_factory.mktemp("sig") / "signal.csv")
        save_signal(path, sig)
        loaded = load_signal(path)
        assert np.array_equal(loaded.values, sig.values)
        # the file carries the stamps; the rate is the reciprocal of the first step
        assert loaded.sample_rate == 1.0 / sig.times()[1]

    def test_long_excitation_rate_signal_loads(self, tmp_path):
        # one second at 640 kHz: the stamp rounding grows with the sample index
        sig = ScanSignal(values=np.zeros((640_000, 1)), sample_rate=640e3)
        path = str(tmp_path / "signal.csv")
        save_signal(path, sig)
        loaded = load_signal(path)
        assert loaded.n_samples == 640_000
        assert loaded.sample_rate == 1.0 / sig.times()[1]

    @pytest.mark.parametrize("stamps", [(0, 1, 3, 2.5), (0, 1, 2, 4), (0, 1, 2, float("nan"))])
    def test_non_uniform_stamps_rejected(self, tmp_path, stamps):
        path = tmp_path / "signal.csv"
        path.write_text("t,s_x\n" + "".join(f"{t!r},1.0\n" for t in stamps))
        with pytest.raises(ValueError, match=r"non-uniform time stamps at t\[[23]\]$"):
            load_signal(str(path))


class TestTrajectoryCsv:
    def test_round_trip_with_velocities(self, tmp_path):
        rng = np.random.default_rng(2)
        traj = Trajectory(
            times=np.linspace(0, 1e-3, 20),
            positions=rng.normal(size=(20, 2)) * 1e-3,
            velocities=rng.normal(size=(20, 2)),
            source="analytic",
        )
        path = str(tmp_path / "traj.csv")
        save_trajectory(path, traj)
        assert open(path).readline().strip() == "t,x,y,vx,vy"
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
            source="sampled",
        )
        path = str(tmp_path_factory.mktemp("traj") / "traj.csv")
        save_trajectory(path, traj)
        loaded = load_trajectory(path)
        for name in ("times", "positions", "velocities"):
            assert np.array_equal(getattr(loaded, name), getattr(traj, name)), name
        assert loaded.source == "sampled"

    def test_positions_only_get_forward_difference_velocities(self, tmp_path):
        t = np.linspace(0.0, 1.0, 11)
        pos = np.stack([2.0 * t, -1.0 * t], axis=-1)
        path = tmp_path / "traj.csv"
        rows = ["t,x,y"] + [f"{float(ti)!r},{float(x)!r},{float(y)!r}" for ti, (x, y) in zip(t, pos)]
        path.write_text("\n".join(rows) + "\n")
        loaded = load_trajectory(str(path))
        assert loaded.source == "sampled"
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
        field = CoreOperatorField(
            entries=entries, dimension=2, geometry=GRID, populated_rows=(0,)
        )
        paths = save_core_field(str(tmp_path), "core", field)
        assert any(p.endswith("core_entries.txt") for p in paths)
        loaded = load_core_field(str(tmp_path), "core")
        assert loaded.dimension == 2
        assert loaded.populated_rows == (0,)
        assert sorted(loaded.entries) == [(0, 0), (0, 1)]
        for key in entries:
            assert np.array_equal(loaded.entries[key], entries[key])
        assert loaded.geometry == GRID


class TestManifest:
    def test_lists_relative_paths_sorted(self, tmp_path):
        a = tmp_path / "b.txt"
        b = tmp_path / "a.txt"
        a.write_text("x")
        b.write_text("y")
        write_manifest(str(tmp_path), [str(a), str(b)])
        assert read_manifest(str(tmp_path)) == ["a.txt", "b.txt"]
