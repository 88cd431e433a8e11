"""Denoiser backends and the external-process protocol."""

import struct
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tv_oracle
from mpirecon.denoisers import (
    DenoiserRef,
    ExternalDenoiser,
    ExternalDenoiserError,
    GaussianBlurDenoiser,
    TotalVariationDenoiser,
    open_denoiser,
    total_variation,
    tv_prox,
)

HEADER = struct.Struct("<4sIIId")


def external_script(tmp_path, body, name="denoiser.py"):
    """Write a child-process denoiser speaking the stdin/stdout protocol."""
    path = tmp_path / name
    path.write_text(
        textwrap.dedent(
            """\
            import struct, sys
            import numpy as np
            HEADER = struct.Struct("<4sIIId")
            stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
            while True:
                raw = stdin.read(HEADER.size)
                if len(raw) < HEADER.size:
                    break
                magic, version, height, width, sigma = HEADER.unpack(raw)
                pixels = np.frombuffer(stdin.read(height * width * 8), dtype="<f8")
                pixels = pixels.reshape(height, width)
            """
        )
        + textwrap.indent(textwrap.dedent(body), "    ")
    )
    return (sys.executable, str(path))


ECHO_BODY = """\
stdout.write(raw)
stdout.write(pixels.astype("<f8").tobytes())
stdout.flush()
"""

HALVE_BODY = """\
stdout.write(raw)
stdout.write((0.5 * pixels).astype("<f8").tobytes())
stdout.flush()
"""

BAD_MAGIC_BODY = """\
stdout.write(b"JUNK" + raw[4:])
stdout.write(pixels.astype("<f8").tobytes())
stdout.flush()
"""

WRONG_SHAPE_BODY = """\
stdout.write(HEADER.pack(magic, version, height + 1, width, sigma))
stdout.write(pixels.astype("<f8").tobytes())
stdout.flush()
"""

SILENT_BODY = """\
import time
time.sleep(60)
"""


class TestDenoiserRef:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DenoiserRef("median")

    def test_external_requires_command(self):
        with pytest.raises(ValueError):
            DenoiserRef("external")

    def test_open_dispatch(self):
        assert isinstance(open_denoiser(DenoiserRef("gaussian-blur")), GaussianBlurDenoiser)
        assert isinstance(
            open_denoiser(DenoiserRef("total-variation")), TotalVariationDenoiser
        )
        assert isinstance(
            open_denoiser(DenoiserRef("external", command=("true",))), ExternalDenoiser
        )


class TestGaussianBlur:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(12, 13))
        out = GaussianBlurDenoiser(DenoiserRef("gaussian-blur"))(img, 0.0)
        assert np.array_equal(out, img)

    def test_constant_preserved(self):
        img = np.full((10, 10), 0.4)
        out = GaussianBlurDenoiser(DenoiserRef("gaussian-blur"))(img, 0.3)
        assert np.allclose(out, 0.4, atol=1e-12)

    def test_reduces_variance(self):
        rng = np.random.default_rng(1)
        img = 0.5 + 0.1 * rng.standard_normal((32, 32))
        out = GaussianBlurDenoiser(DenoiserRef("gaussian-blur"))(img, 0.3)
        assert out.var() < img.var()


class TestTotalVariation:
    def noisy_step(self, seed=2):
        rng = np.random.default_rng(seed)
        img = np.zeros((24, 24))
        img[:, 12:] = 1.0
        return img + 0.15 * rng.standard_normal(img.shape)

    def test_zero_weight_is_identity(self):
        img = self.noisy_step()
        assert np.array_equal(tv_prox(img, 0.0), img)

    def test_tv_never_increases(self):
        img = self.noisy_step()
        for weight in (0.05, 0.1, 0.3):
            out = tv_prox(img, weight)
            assert total_variation(out) <= total_variation(img)

    def test_matches_1d_dual_oracle_on_striped_image(self):
        # A row-constant image makes the 2D prox separable into identical
        # 1D problems; projected dual gradient ascent is an independent
        # oracle for those.
        rng = np.random.default_rng(3)
        profile = np.concatenate([np.zeros(10), np.ones(12), np.zeros(10)])
        profile = profile + 0.1 * rng.standard_normal(profile.size)
        img = np.tile(profile, (16, 1))
        weight = 0.08
        out = TotalVariationDenoiser(DenoiserRef("total-variation", tv_scale=1.0,
                                                 tv_iterations=400))(img, np.sqrt(weight))

        # oracle: min_x 0.5||x - y||^2 + w sum|Dx| via its dual projection
        y = profile
        d = y.size - 1
        p = np.zeros(d)
        step = 0.2
        for _ in range(20_000):
            x = y.copy()
            x[:-1] += p
            x[1:] -= p
            grad = x[1:] - x[:-1]
            p = np.clip(p + step * grad, -weight, weight)
        x = y.copy()
        x[:-1] += p
        x[1:] -= p
        assert np.abs(out[8] - x).max() < 0.02

    def test_sigma_zero_identity_through_ref(self):
        img = self.noisy_step()
        out = TotalVariationDenoiser(DenoiserRef("total-variation"))(img, 0.0)
        assert np.array_equal(out, img)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bytes_match_the_slice_form_oracle(self, data):
        h, w = data.draw(
            st.sampled_from([(1, 1), (1, 9), (9, 1), (3, 5), (7, 3), (13, 11)])
            | st.tuples(st.integers(1, 17), st.integers(1, 17))
        )
        transposed = data.draw(st.booleans())
        shape = (w, h) if transposed else (h, w)
        values = data.draw(
            arrays(np.int64, shape, elements=st.integers(-3, 3))
            | arrays(
                np.float64,
                shape,
                elements=st.sampled_from([0.0, -0.0, 1.0])
                | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            )
        )
        image = values.T if transposed else values
        weight = data.draw(st.floats(1e-6, 10.0))
        n_iterations = data.draw(st.sampled_from([0, 1, 60]))
        out = tv_prox(image, weight, n_iterations)
        expected = tv_oracle.tv_prox(image, weight, n_iterations)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_100_by_100_at_pipeline_weights_matches_the_oracle(self):
        rng = np.random.default_rng(5)
        image = rng.uniform(size=(100, 100))
        for weight in (1e-4, 3e-3, 0.05, 3.3):
            assert tv_prox(image, weight).tobytes() == tv_oracle.tv_prox(image, weight).tobytes()


class TestExternalProtocol:
    def test_echo_round_trip(self, tmp_path):
        cmd = external_script(tmp_path, ECHO_BODY)
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(9, 7))
        with ExternalDenoiser(DenoiserRef("external", command=cmd, timeout=20.0)) as ext:
            out = ext(img, 0.25)
            again = ext(img * 2.0, 0.1)  # second request over the same process
        assert np.array_equal(out, img)
        assert np.array_equal(again, img * 2.0)

    def test_pixels_actually_travel(self, tmp_path):
        cmd = external_script(tmp_path, HALVE_BODY)
        img = np.linspace(0.0, 1.0, 20).reshape(4, 5)
        with ExternalDenoiser(DenoiserRef("external", command=cmd, timeout=20.0)) as ext:
            out = ext(img, 0.0)
        assert np.allclose(out, 0.5 * img)

    def test_bad_magic_rejected(self, tmp_path):
        cmd = external_script(tmp_path, BAD_MAGIC_BODY)
        with ExternalDenoiser(DenoiserRef("external", command=cmd, timeout=20.0)) as ext:
            with pytest.raises(ExternalDenoiserError, match="malformed"):
                ext(np.zeros((3, 3)), 0.1)

    def test_wrong_shape_rejected(self, tmp_path):
        cmd = external_script(tmp_path, WRONG_SHAPE_BODY)
        with ExternalDenoiser(DenoiserRef("external", command=cmd, timeout=20.0)) as ext:
            with pytest.raises(ExternalDenoiserError, match="expected"):
                ext(np.zeros((3, 3)), 0.1)

    def test_timeout(self, tmp_path):
        cmd = external_script(tmp_path, SILENT_BODY)
        with ExternalDenoiser(DenoiserRef("external", command=cmd, timeout=0.5)) as ext:
            with pytest.raises(ExternalDenoiserError, match="timed out"):
                ext(np.zeros((3, 3)), 0.1)
