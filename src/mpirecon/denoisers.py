"""Denoiser backends for the plug-and-play loop.

Three kinds are supported:

* ``gaussian-blur``: Gaussian smoothing with kernel width proportional
  to the declared noise level,
* ``total-variation``: the proximal operator of a TV penalty with weight
  proportional to the squared noise level (Chambolle's projection),
* ``external``: a child process speaking a binary request/response
  protocol over stdin/stdout, so a pretrained neural denoiser can be
  plugged in without rebuilding this package.

All backends receive images normalized to [0, 1] with the noise level
expressed in that range; the reference kinds act as the identity at
noise level zero.

External protocol, version 1 (little-endian): request and response both
consist of the 24-byte header ``b"ZSPD"``, u32 version, u32 height,
u32 width, f64 sigma, followed by height*width f64 pixels row-major.
One request is in flight at a time.
"""

from __future__ import annotations

import dataclasses
import os
import select
import struct
import subprocess

import numpy as np

PROTOCOL_MAGIC = b"ZSPD"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("<4sIIId")

KINDS = ("gaussian-blur", "total-variation", "external")


class ExternalDenoiserError(RuntimeError):
    """Protocol failure of an external denoiser (timeout, bad reply)."""


@dataclasses.dataclass(frozen=True)
class DenoiserRef:
    """Reference to a denoiser backend plus its per-kind parameters.

    blur_scale -- gaussian-blur: kernel width in pixels per unit noise
    tv_scale   -- total-variation: penalty weight per unit squared noise
    tv_iterations -- total-variation: projection iterations
    command    -- external: argv of the child process
    timeout    -- external: seconds to wait per request
    """

    kind: str
    blur_scale: float = 4.0
    tv_scale: float = 1.0
    tv_iterations: int = 60
    command: tuple = ()
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown denoiser kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "external" and len(self.command) == 0:
            raise ValueError("external denoiser requires a command")


class GaussianBlurDenoiser:
    def __init__(self, ref: DenoiserRef):
        self.blur_scale = ref.blur_scale

    def __call__(self, image: np.ndarray, sigma: float) -> np.ndarray:
        width = self.blur_scale * sigma
        if width == 0.0:
            return image.copy()
        from scipy.ndimage import gaussian_filter

        return gaussian_filter(image, sigma=width, mode="nearest")

    def close(self):
        pass


def _tv_gradient(image: np.ndarray) -> np.ndarray:
    out = np.zeros((2,) + image.shape)
    out[0, :-1, :] = image[1:, :] - image[:-1, :]
    out[1, :, :-1] = image[:, 1:] - image[:, :-1]
    return out


def tv_prox(image: np.ndarray, weight: float, n_iterations: int = 60) -> np.ndarray:
    """Proximal operator of ``weight * TV`` via Chambolle's dual projection.

    The dual field and the gradient live in flat ``(2, h*w)`` buffers,
    where a row shift is an offset of ``w`` and a column shift one of 1.
    Flat shifts never carry a nonzero value across an image edge because
    the last row of ``p[0]``, the last column of ``p[1]`` and the last
    column of the column gradient are kept at zero.  Every element sees
    the same floating-point operations in the same order as the textbook
    slice form (``tests/tv_oracle.py``), so the output is bit-identical.
    """
    if weight <= 0.0:
        return image.copy()
    h, w = image.shape
    n = h * w
    scaled = np.ravel(image / weight)
    p = np.zeros((2, n))
    grad = np.zeros((2, n))
    squares = np.empty((2, n))
    div = np.empty(n)
    shrink = np.empty(n)
    p_rows, p_cols = p
    grad_rows, grad_cols = grad[0, :-w], grad[1, :-1]
    col_edge = grad[1, w - 1 :: w]
    below, above = div[w:], div[:-w]
    right, left = div[1:], div[:-1]
    p_above, p_left = p_rows[:-w], p_cols[:-1]

    def divergence():
        # (((0 + p0[i, j]) - p0[i-1, j]) + p1[i, j]) - p1[i, j-1]
        np.add(p_rows, 0.0, out=div)
        np.subtract(below, p_above, out=below)
        np.add(div, p_cols, out=div)
        np.subtract(right, p_left, out=right)

    tau = 0.25
    for _ in range(n_iterations):
        divergence()
        np.subtract(div, scaled, out=div)
        np.subtract(below, above, out=grad_rows)
        np.subtract(right, left, out=grad_cols)
        col_edge[...] = 0.0
        np.multiply(grad, grad, out=squares)
        np.add(squares[0], squares[1], out=shrink)
        np.sqrt(shrink, out=shrink)
        np.multiply(shrink, tau, out=shrink)
        np.add(shrink, 1.0, out=shrink)
        np.multiply(grad, tau, out=grad)
        np.add(p, grad, out=p)
        np.divide(p, shrink, out=p)
    divergence()
    return image - weight * div.reshape(h, w)


def total_variation(image: np.ndarray) -> float:
    """Isotropic discrete total variation (test and diagnostics helper)."""
    grad = _tv_gradient(np.asarray(image, dtype=float))
    return float(np.sqrt(np.sum(grad**2, axis=0)).sum())


class TotalVariationDenoiser:
    def __init__(self, ref: DenoiserRef):
        self.tv_scale = ref.tv_scale
        self.n_iterations = ref.tv_iterations

    def __call__(self, image: np.ndarray, sigma: float) -> np.ndarray:
        return tv_prox(image, self.tv_scale * sigma**2, self.n_iterations)

    def close(self):
        pass


class ExternalDenoiser:
    """Bridge to a child-process denoiser; lazily started, synchronous."""

    def __init__(self, ref: DenoiserRef):
        self.command = list(ref.command)
        self.timeout = ref.timeout
        self._proc: subprocess.Popen | None = None

    def _start(self):
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )

    def _read_exact(self, n_bytes: int) -> bytes:
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
    if ref.kind == "gaussian-blur":
        return GaussianBlurDenoiser(ref)
    if ref.kind == "total-variation":
        return TotalVariationDenoiser(ref)
    return ExternalDenoiser(ref)
