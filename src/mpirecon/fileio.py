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

The ``.geom`` sidecar, the core-field header and the transfer-function
and SNR CSVs write floats with ``_fmt`` (``repr``, the shortest exact
round-trip form).

A core-operator field is one float64 ``<prefix>_field.npy`` array of
shape ``(entries, height, width)``, exact like the signal, with a
``<prefix>_entries.txt`` header: ``dimension = 2``, the populated
``rows``, the six geometry keys of the ``.geom`` sidecar and one
``entry = <row>,<col>`` line per array slice, in slice order.  Each entry
also gets a ``<prefix>_A<row><col>.pgm`` preview.

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
_PGM_TOKENS = np.array([str(level) for level in range(256)], dtype=object)  # preview levels


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


def _write_preview(path: str, values: np.ndarray) -> None:
    """8-bit P2 preview spanning the finite pixels; NaN and -inf show as 0,
    +inf as 255."""
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
    with open(path, "w") as f:
        f.write(f"P2\n{w} {h}\n255\n")
        for row in _PGM_TOKENS[preview].tolist():
            f.write(" ".join(row) + "\n")


def _geometry_lines(geometry: GridGeometry) -> str:
    """The six ``key = value`` lines of the ``.geom`` sidecar."""
    h, w = geometry.shape
    return (
        f"height = {h}\nwidth = {w}\n"
        f"origin_x = {_fmt(geometry.origin[0])}\norigin_y = {_fmt(geometry.origin[1])}\n"
        f"spacing_x = {_fmt(geometry.spacing[0])}\nspacing_y = {_fmt(geometry.spacing[1])}\n"
    )


def _read_pairs(path: str) -> list:
    """``(key, value)`` of each ``key = value`` line, in file order; blank
    and ``#`` lines are skipped."""
    pairs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_geometry(meta: dict) -> GridGeometry:
    """The grid that ``_geometry_lines`` wrote into ``meta``."""
    for key in ("height", "width", "origin_x", "origin_y", "spacing_x", "spacing_y"):
        if key not in meta:
            raise ValueError(f"missing key {key}")
    return GridGeometry(
        shape=(int(meta["height"]), int(meta["width"])),
        spacing=(float(meta["spacing_x"]), float(meta["spacing_y"])),
        origin=(float(meta["origin_x"]), float(meta["origin_y"])),
    )


def save_image(base: str, values: np.ndarray, geometry: GridGeometry) -> list:
    """Write the preview/geometry/values triple; returns the paths."""
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(geometry.shape):
        raise ValueError(f"values shape {values.shape} does not match grid {geometry.shape}")
    paths = [base + ".pgm", base + ".geom", base + ".float.txt"]
    _write_preview(paths[0], values)
    with open(paths[1], "w") as f:
        f.write(_geometry_lines(geometry))
    _write_rows(paths[2], values, " ")
    return paths


def load_image(base: str) -> ConcentrationImage:
    """The image triple at ``base``.  A missing or unparsable ``.geom`` key,
    and values that do not parse or do not fit the geometry, fail with the
    file name in front."""
    path = base + ".geom"
    try:
        geometry = _parse_geometry(dict(_read_pairs(path)))
        path = base + ".float.txt"
        return ConcentrationImage(values=np.loadtxt(path, ndmin=2), geometry=geometry)
    except ValueError as exc:
        raise ValueError(f"image file {path}: {exc}") from None


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
    """Write the header, the values array and one preview per entry;
    returns the paths."""
    keys = sorted(field.entries)
    values = np.stack([np.asarray(field.entries[key], dtype=float) for key in keys])
    if values.shape[1:] != tuple(field.geometry.shape):
        raise ValueError(
            f"entry shape {values.shape[1:]} does not match grid {field.geometry.shape}"
        )
    header = os.path.join(directory, f"{prefix}_entries.txt")
    with open(header, "w") as f:
        f.write("dimension = 2\n")
        f.write(f"rows = {','.join(str(r) for r in field.populated_rows)}\n")
        f.write(_geometry_lines(field.geometry))
        f.writelines(f"entry = {row},{col}\n" for row, col in keys)
    array = os.path.join(directory, f"{prefix}_field.npy")
    with open(array, "wb") as f:  # a path would get ``.npy`` appended
        np.save(f, values)
    paths = [header, array]
    for (row, col), entry in zip(keys, values):
        paths.append(os.path.join(directory, f"{prefix}_A{row}{col}.pgm"))
        _write_preview(paths[-1], entry)
    return paths


def load_core_field(directory: str, prefix: str) -> CoreOperatorField:
    """The field ``save_core_field`` wrote.  The array is read without
    unpickling; a header that does not parse, or an array that is not a
    3-D float array of one ``height x width`` slice per ``entry`` line,
    fails with the file name in front."""
    header = os.path.join(directory, f"{prefix}_entries.txt")
    pairs = _read_pairs(header)
    rows, keys = (), []
    try:
        for key, value in pairs:
            if key == "dimension" and int(value) != 2:
                raise ValueError(f"core fields are 2D, got dimension = {value}")
            if key == "rows":
                rows = tuple(int(v) for v in value.split(",") if v)
            elif key == "entry":
                row, col = value.split(",")
                keys.append((int(row), int(col)))
        geometry = _parse_geometry(dict(pairs))
    except ValueError as exc:
        raise ValueError(f"core field header {header}: {exc}") from None
    path = os.path.join(directory, f"{prefix}_field.npy")
    with open(path, "rb") as f:
        try:
            data = np.load(f)  # allow_pickle stays off: no object arrays
        except ValueError as exc:
            raise ValueError(f"core field file {path}: {exc}") from None
    if not (isinstance(data, np.ndarray) and data.ndim == 3 and data.dtype.kind == "f"):
        raise ValueError(f"core field file {path} must hold a 3-D float array")
    stated = (len(keys), *geometry.shape)  # one slice per entry line
    if data.shape != stated:
        raise ValueError(
            f"core field file {path} holds shape {data.shape}; {header} states {stated}"
        )
    data = data.astype(float, copy=False)
    entries = {key: data[i] for i, key in enumerate(keys)}
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
