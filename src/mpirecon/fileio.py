"""On-disk formats.

Images are written as a triple sharing one base path:

* ``<base>.pgm``        8-bit P2 preview, min-max normalized
* ``<base>.geom``       geometry sidecar: ``key = value`` lines with
                        height, width, origin_x/y (m), spacing_x/y (m)
* ``<base>.float.txt``  float64 values, whitespace-separated rows,
                        ``%.17g`` so values round-trip exactly

The scan signal is one ``(L, 1 + channels)`` float64 array of
``t, s_x[, s_y]``, written in NumPy's ``.npy`` format, which keeps every
value exactly.  ``t`` holds the stamps the signal was sampled at, and a
loaded signal keeps them as they are.  ``load_signal`` also reads it as a
CSV with header ``t,s_x[,s_y]``, the text form measured data arrives in.

CSV formats (header line included):

* trajectory       ``t,x,y[,vx,vy]``, ``%.17g`` floats (SI units;
                   velocities are computed by forward differences when
                   the columns are absent)
* transfer function ``bin,channel,re,im`` (unusable bins omitted)
* SNR profile      ``bin,channel,snr``

The ``.geom`` sidecar and the transfer-function and SNR CSVs write
floats with ``_fmt`` (``repr``, the shortest exact round-trip form).

A core-operator field becomes one image triple per populated entry
(``<prefix>_A<row><col>``) plus ``<prefix>_entries.txt`` naming them.
``manifest.txt`` lists every file a pipeline run wrote, one per line.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .forward import MIN_SAMPLES, CoreOperatorField, ScanSignal
from .geometry import ConcentrationImage, GridGeometry
from .preprocessing import SnrProfile, TransferFunction
from .scanner import Trajectory, trajectory_from_samples

FLOAT_FMT = "%.17g"
# values formatted per ``%`` operation: amortizes the per-row call while
# bounding the text held in memory (about 1.6k rows of a 5-column trajectory)
_BLOCK_VALUES = 8192


def _fmt(value) -> str:
    """Exact-round-trip float rendering (plain ``repr`` of a Python float)."""
    return repr(float(value))


def _write_rows(path: str, data: np.ndarray, delimiter: str, header: str | None = None) -> None:
    """The bytes of ``np.savetxt(path, data, fmt=FLOAT_FMT, delimiter=delimiter,
    header=header or "", comments="")``, formatting a block of rows per ``%``
    operation instead of one row per call."""
    n_rows, n_cols = data.shape
    row_fmt = delimiter.join([FLOAT_FMT] * n_cols) + "\n"
    block = max(1, _BLOCK_VALUES // n_cols)
    with open(path, "w") as f:
        if header:
            f.write(header + "\n")
        for start in range(0, n_rows, block):
            rows = data[start : start + block]
            f.write((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))


def save_image(base: str, values: np.ndarray, geometry: GridGeometry) -> list:
    """Write the preview/geometry/values triple; returns the paths."""
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(geometry.shape):
        raise ValueError(f"values shape {values.shape} does not match grid {geometry.shape}")
    paths = [base + ".pgm", base + ".geom", base + ".float.txt"]

    # the preview spans the finite pixels; NaN and -inf show as 0, +inf as 255
    finite = np.isfinite(values)
    kept = values[finite]
    lo, hi = (float(kept.min()), float(kept.max())) if kept.size else (0.0, 0.0)
    shown = np.where(finite, values, lo)
    if math.isinf(hi - lo):
        shown, lo, hi = shown / 2, lo / 2, hi / 2  # the span overflows; half of it does not
    # divide by the span, not multiply by 255 / span: a subnormal span makes that inf
    preview = np.round((shown - lo) / (hi - lo) * 255.0) if hi > lo else np.zeros(values.shape)
    preview = preview.astype(int)
    preview[values == np.inf] = 255
    h, w = values.shape
    with open(paths[0], "w") as f:
        f.write(f"P2\n{w} {h}\n255\n")
        for row in preview.tolist():
            f.write(" ".join(map(str, row)) + "\n")

    with open(paths[1], "w") as f:
        f.write(f"height = {h}\n")
        f.write(f"width = {w}\n")
        f.write(f"origin_x = {_fmt(geometry.origin[0])}\n")
        f.write(f"origin_y = {_fmt(geometry.origin[1])}\n")
        f.write(f"spacing_x = {_fmt(geometry.spacing[0])}\n")
        f.write(f"spacing_y = {_fmt(geometry.spacing[1])}\n")

    _write_rows(paths[2], values, " ")
    return paths


def load_image(base: str) -> ConcentrationImage:
    meta = {}
    with open(base + ".geom") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    geometry = GridGeometry(
        shape=(int(meta["height"]), int(meta["width"])),
        spacing=(float(meta["spacing_x"]), float(meta["spacing_y"])),
        origin=(float(meta["origin_x"]), float(meta["origin_y"])),
    )
    values = np.loadtxt(base + ".float.txt", ndmin=2)
    return ConcentrationImage(values=values, geometry=geometry)


def save_signal(path: str, signal: ScanSignal) -> None:
    """``t, s_x[, s_y]`` as one float64 ``.npy`` array.  Written through a
    file object, because ``np.save`` appends ``.npy`` to any other path."""
    with open(path, "wb") as f:
        np.save(f, np.column_stack([signal.times, signal.values]))


def load_signal(path: str) -> ScanSignal:
    """Signal from a ``.npy`` file, else from a ``t,s_x[,s_y]`` CSV.  The
    ``t`` column becomes the signal's stamps as they are: no rate is
    recovered.  What ``ScanSignal`` rejects, such as stamps that do not
    increase in uniform steps, fails with the file name in front."""
    if path.endswith(".npy"):
        with open(path, "rb") as f:
            try:
                data = np.load(f)  # allow_pickle stays off: no object arrays
            except ValueError as exc:
                raise ValueError(f"signal file {path}: {exc}") from None
    else:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not (isinstance(data, np.ndarray) and data.ndim == 2 and data.dtype.kind == "f"
            and len(data) >= MIN_SAMPLES):
        raise ValueError(
            f"signal file {path} must hold a 2-D float array of at least {MIN_SAMPLES} samples"
        )
    try:
        return ScanSignal(values=data[:, 1:], times=data[:, 0])
    except ValueError as exc:
        raise ValueError(f"signal file {path}: {exc}") from None


def save_trajectory(path: str, trajectory: Trajectory) -> None:
    data = np.column_stack([trajectory.times, trajectory.positions, trajectory.velocities])
    _write_rows(path, data, ",", "t,x,y,vx,vy")


def load_trajectory(path: str) -> Trajectory:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] == 5:
        return Trajectory(
            times=data[:, 0],
            positions=data[:, 1:3],
            velocities=data[:, 3:5],
        )
    if data.shape[1] == 3:
        return trajectory_from_samples(data[:, 1:3], data[:, 0])
    raise ValueError(f"trajectory file {path} must have columns t,x,y[,vx,vy]")


def save_transfer_function(path: str, tf: TransferFunction) -> None:
    with open(path, "w") as f:
        f.write("bin,channel,re,im\n")
        n_channels, n_bins = tf.spectra.shape
        for c in range(n_channels):
            for b in range(n_bins):
                if tf.usable[c, b]:
                    v = tf.spectra[c, b]
                    f.write(f"{b},{c},{_fmt(v.real)},{_fmt(v.imag)}\n")


def load_transfer_function(path: str, n_channels: int, n_bins: int) -> TransferFunction:
    spectra = np.zeros((n_channels, n_bins), dtype=complex)
    usable = np.zeros((n_channels, n_bins), dtype=bool)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    for b, c, re, im in data:
        spectra[int(c), int(b)] = re + 1j * im
        usable[int(c), int(b)] = True
    return TransferFunction(spectra=spectra, usable=usable)


def save_snr_profile(path: str, profile: SnrProfile) -> None:
    with open(path, "w") as f:
        f.write("bin,channel,snr\n")
        n_channels, n_bins = profile.values.shape
        for c in range(n_channels):
            for b in range(n_bins):
                f.write(f"{b},{c},{_fmt(profile.values[c, b])}\n")


def load_snr_profile(path: str, n_channels: int, n_bins: int, thresholds) -> SnrProfile:
    values = np.zeros((n_channels, n_bins))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    for b, c, snr in data:
        values[int(c), int(b)] = snr
    return SnrProfile(values=values, thresholds=np.asarray(thresholds, dtype=float))


def save_core_field(directory: str, prefix: str, field: CoreOperatorField) -> list:
    paths = []
    entries_path = os.path.join(directory, f"{prefix}_entries.txt")
    with open(entries_path, "w") as f:
        f.write("dimension = 2\n")
        f.write(f"rows = {','.join(str(r) for r in field.populated_rows)}\n")
        for (row, col) in sorted(field.entries):
            f.write(f"entry = {row},{col}\n")
    paths.append(entries_path)
    for (row, col) in sorted(field.entries):
        base = os.path.join(directory, f"{prefix}_A{row}{col}")
        paths.extend(save_image(base, field.entries[(row, col)], field.geometry))
    return paths


def load_core_field(directory: str, prefix: str) -> CoreOperatorField:
    entries_path = os.path.join(directory, f"{prefix}_entries.txt")
    rows, keys = (), []
    with open(entries_path) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            key, value = key.strip(), value.strip()
            if key == "dimension" and int(value) != 2:
                raise ValueError(f"{entries_path}: core fields are 2D, got dimension = {value}")
            if key == "rows":
                rows = tuple(int(v) for v in value.split(",") if v)
            elif key == "entry":
                row, col = value.split(",")
                keys.append((int(row), int(col)))
    entries = {}
    geometry = None
    for row, col in keys:
        image = load_image(os.path.join(directory, f"{prefix}_A{row}{col}"))
        entries[(row, col)] = image.values
        geometry = image.geometry
    return CoreOperatorField(entries=entries, geometry=geometry, populated_rows=rows)


def write_manifest(directory: str, paths: list) -> str:
    manifest = os.path.join(directory, "manifest.txt")
    with open(manifest, "w") as f:
        for p in sorted(os.path.relpath(p, directory) for p in paths):
            f.write(p + "\n")
    return manifest


def read_manifest(directory: str) -> list:
    with open(os.path.join(directory, "manifest.txt")) as f:
        return [line.strip() for line in f if line.strip()]
