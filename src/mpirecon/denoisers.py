"""Denoiser backends for the plug-and-play loop.

A reference names one of two backends, chosen by whether it has a
command:

* external (``command`` set): a child process speaking a binary
  request/response protocol over stdin/stdout, so a pretrained neural
  denoiser can be plugged in without rebuilding this package,
* total variation (no command): the proximal operator of a TV penalty
  with weight proportional to the squared noise level (Beck and
  Teboulle's fast gradient projection on Chambolle's dual: ``TV_STEPS``
  steps in float32, as a network would run), the in-repo reference.

Both receive only images normalized to [0, 1] and the noise level in
that range; total variation acts as the identity at noise level zero.

External protocol, version 1 (little-endian): request and response both
consist of the 24-byte header ``b"ZSPD"``, u32 version, u32 height,
u32 width, f64 sigma, followed by height*width f64 pixels row-major.
One request is in flight at a time.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import threading

import numpy as np

PROTOCOL_MAGIC = b"ZSPD"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("<4sIIId")

# Fast gradient projection steps of the TV prox: the fewest that leave it
# no farther from the converged prox than 60 of Chambolle's steps did, on
# every denoiser input of the shipped configs and the benchmark workloads
TV_STEPS = 24


class ExternalDenoiserError(RuntimeError):
    """Protocol failure of an external denoiser (timeout, bad reply)."""


@dataclasses.dataclass(frozen=True, kw_only=True)
class DenoiserRef:
    """Reference to a denoiser backend plus its parameters; a ``command``
    selects the external backend, else total variation.

    tv_scale -- total variation: penalty weight per unit squared noise
    command  -- external: argv of the child process
    timeout  -- external: seconds to wait per request
    """

    tv_scale: float = 1.0
    command: tuple = ()
    timeout: float = 30.0

    def __post_init__(self):
        if not self.tv_scale >= 0:
            raise ValueError(f"tv_scale must be nonnegative, got {self.tv_scale!r}")
        if self.tv_scale == np.inf:
            raise ValueError(f"tv_scale must be finite, got {self.tv_scale!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")
        if not self.timeout <= threading.TIMEOUT_MAX:  # select.select's limit
            raise ValueError(
                f"timeout must be at most {threading.TIMEOUT_MAX!r}, got {self.timeout!r}"
            )


# Largest |image| / weight the float32 loop takes.  The extrapolated dual
# point has |r| < 3, so |div r| < 12 and, for |image| / weight <= S, each
# component of the gradient step r + grad((div r - image / weight) / 8)
# stays below 6 + S / 4.  Its squared magnitude, below 2 (6 + S / 4)^2,
# is then about an eighth of the float32 maximum at most.
_FLOAT32_SCALED_LIMIT = float(np.sqrt(np.finfo(np.float32).max))


def tv_prox(image: np.ndarray, weight: float, n_iterations: int = TV_STEPS) -> np.ndarray:
    """Proximal operator of ``weight * TV`` via fast gradient projection.

    Beck and Teboulle's FGP (IEEE TIP 18, 2009) on Chambolle's dual: each
    step moves the extrapolated dual field ``r`` by ``1/8`` of the
    gradient of ``div r - image / weight``, projects every pixel onto
    ``|p| <= 1`` and extrapolates with Nesterov's momentum.  The output is
    ``image - weight * div p``.

    Takes and returns float64; the loop runs in float32 on ``image /
    weight``, cast once, and the result is formed in float64.  The loop
    is truncated, so float32 costs little: on a 100 x 100 uniform image
    with weight 0.01, one more step moves the output by about 1e-5 and
    float32 by about 3e-8.  The prox moves no pixel by more than ``4 *
    weight``, so where ``|image| / weight`` exceeds
    ``_FLOAT32_SCALED_LIMIT`` (about 1.8e19), past which the float32 loop
    could overflow, it returns the image itself: every weight gives a
    finite output.

    The dual fields live in flat ``(2, h*w)`` buffers, where a row shift
    is an offset of ``w`` and a column shift one of 1.  Flat shifts never
    carry a nonzero value across an image edge because the last row of
    each field's first component and the last column of its second are
    kept at zero.  The divergence sums ``(p0[i, j] - p0[i-1, j]) + (p1[i, j] - p1[i, j-1])``,
    so transposing the image transposes the output bit for bit.  Every
    element sees the same floating-point operations in the same order as
    the textbook slice form (``tests/tv_oracle.py``), so the output is
    bit-identical.
    """
    if weight <= 0.0 or not np.abs(image).max() / _FLOAT32_SCALED_LIMIT <= weight:
        return image.copy()
    h, w = image.shape
    n = h * w
    scaled = np.ravel(image / weight).astype(np.float32)
    p = np.zeros((2, n), np.float32)  # projected field
    r = np.zeros((2, n), np.float32)  # extrapolated field
    q = np.zeros((2, n), np.float32)  # next projected field
    div = np.empty(n, np.float32)
    row_diff = np.empty(n, np.float32)
    norm = np.empty(n, np.float32)
    below, above = div[w:], div[:-w]
    right, left = div[1:], div[:-1]

    def divergence(field):
        # (f0[i, j] - f0[i-1, j]) + (f1[i, j] - f1[i, j-1]); at j = 0 the
        # flat neighbour f1[i-1, w-1] is a kept zero
        rows, cols = field
        row_diff[:w] = rows[:w]
        np.subtract(rows[w:], rows[:-w], out=row_diff[w:])
        div[0] = cols[0]
        np.subtract(cols[1:], cols[:-1], out=div[1:])
        np.add(row_diff, div, out=div)

    t = 1.0
    for _ in range(n_iterations):
        divergence(r)
        np.subtract(div, scaled, out=div)
        np.multiply(div, 0.125, out=div)
        # q = r + grad(div); q holds the field before p, so its kept
        # zeros are in place
        np.subtract(below, above, out=q[0, :-w])
        np.subtract(right, left, out=q[1, :-1])
        q[1, w - 1 :: w] = 0.0
        np.add(q, r, out=q)
        # r is free until the momentum step, so it holds the squares
        np.multiply(q, q, out=r)
        np.add(r[0], r[1], out=norm)
        np.sqrt(norm, out=norm)
        np.maximum(norm, 1.0, out=norm)
        np.divide(q, norm, out=q)
        # a Python float keeps the momentum arithmetic in float32
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        t = t_next
        np.subtract(q, p, out=r)
        np.multiply(r, momentum, out=r)
        np.add(r, q, out=r)
        p, q = q, p
    divergence(p)
    return image - weight * div.reshape(h, w).astype(np.float64)


class TotalVariationDenoiser:
    def __init__(self, ref: DenoiserRef):
        self.tv_scale = ref.tv_scale

    def __call__(self, image: np.ndarray, sigma: float) -> np.ndarray:
        return tv_prox(image, self.tv_scale * sigma**2)

    def close(self):
        pass


class ExternalDenoiser:
    """Bridge to a child-process denoiser; lazily started, synchronous.

    ``subprocess`` and ``select`` are imported where the child is started
    and read, so importing the package loads neither."""

    def __init__(self, ref: DenoiserRef):
        self.command = list(ref.command)
        self.timeout = ref.timeout
        self._proc = None

    def _start(self):
        if self._proc is None or self._proc.poll() is not None:
            import subprocess

            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )

    def _read_exact(self, n_bytes: int) -> bytes:
        import select

        chunks = []
        remaining = n_bytes
        fd = self._proc.stdout.fileno()
        while remaining > 0:
            ready, _, _ = select.select([fd], [], [], self.timeout)
            if not ready:
                self.close()
                raise ExternalDenoiserError(
                    f"external denoiser timed out after {self.timeout} s"
                )
            chunk = os.read(fd, remaining)
            if not chunk:
                self.close()
                raise ExternalDenoiserError("external denoiser closed its output early")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def __call__(self, image: np.ndarray, sigma: float) -> np.ndarray:
        self._start()
        height, width = image.shape
        header = _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, height, width, float(sigma))
        payload = np.ascontiguousarray(image, dtype="<f8").tobytes()
        try:
            self._proc.stdin.write(header + payload)
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self.close()
            raise ExternalDenoiserError(f"external denoiser rejected the request: {exc}")
        reply = self._read_exact(_HEADER.size)
        magic, version, r_height, r_width, _ = _HEADER.unpack(reply)
        if magic != PROTOCOL_MAGIC or version != PROTOCOL_VERSION:
            self.close()
            raise ExternalDenoiserError(f"malformed reply header: {reply!r}")
        if (r_height, r_width) != (height, width):
            self.close()
            raise ExternalDenoiserError(
                f"reply image is {r_height} x {r_width}, expected {height} x {width}"
            )
        pixels = self._read_exact(height * width * 8)
        return np.frombuffer(pixels, dtype="<f8").reshape(height, width).astype(float)

    def close(self):
        if self._proc is not None:
            for stream in (self._proc.stdin, self._proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
            self._proc.kill()
            self._proc.wait()
            self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def open_denoiser(ref: DenoiserRef):
    """Instantiate the backend for a denoiser reference."""
    return ExternalDenoiser(ref) if ref.command else TotalVariationDenoiser(ref)
