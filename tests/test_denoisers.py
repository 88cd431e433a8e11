"""Denoiser backends and the external-process protocol."""

import os
import select
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tv_oracle
from denoiser_stubs import (
    BAD_MAGIC_BODY,
    ECHO_BODY,
    HALVE_BODY,
    SILENT_BODY,
    WRONG_SHAPE_BODY,
    external_script,
)
from mpirecon.denoisers import (
    DenoiserRef,
    ExternalDenoiser,
    ExternalDenoiserError,
    TotalVariationDenoiser,
    open_denoiser,
    tv_prox,
)


class TestDenoiserRef:
    def test_open_dispatch(self):
        assert isinstance(open_denoiser(DenoiserRef()), TotalVariationDenoiser)
        assert isinstance(open_denoiser(DenoiserRef(command=("true",))), ExternalDenoiser)

    @pytest.mark.parametrize(
        "timeout, message",
        [(-1.0, "timeout must be positive"), (float("nan"), "timeout must be positive"),
         (float("inf"), "timeout must be at most .*, got inf"),
         (1e10, "timeout must be at most .*, got 10000000000.0")],
    )
    def test_timeout_must_be_positive_and_finite(self, timeout, message):
        # select.select overflows on a longer wait, so it fails here
        with pytest.raises(ValueError, match=message):
            DenoiserRef(command=("true",), timeout=timeout)

    def test_timeout_max_is_accepted_and_select_takes_it(self):
        ref = DenoiserRef(command=("true",), timeout=threading.TIMEOUT_MAX)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"x")
            assert select.select([read_end], [], [], ref.timeout)[0] == [read_end]
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_fields_are_keyword_only(self):
        # a positional backend name must not land in tv_scale
        with pytest.raises(TypeError):
            DenoiserRef("total-variation")


# the oracle test's shapes: fixed ones with single rows and columns, and any
SHAPES = st.sampled_from([(1, 1), (1, 9), (9, 1), (3, 5), (7, 3), (13, 11)]) | st.tuples(
    st.integers(1, 17), st.integers(1, 17)
)


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
            assert tv_oracle.total_variation(out) <= tv_oracle.total_variation(img)

    def test_matches_1d_dual_oracle_on_striped_image(self):
        # A row-constant image makes the 2D prox separable into identical
        # 1D problems; projected dual gradient ascent is an independent
        # oracle for those.
        rng = np.random.default_rng(3)
        profile = np.concatenate([np.zeros(10), np.ones(12), np.zeros(10)])
        profile = profile + 0.1 * rng.standard_normal(profile.size)
        img = np.tile(profile, (16, 1))
        weight = 0.08
        ref = DenoiserRef(tv_scale=1.0, tv_iterations=400)
        out = TotalVariationDenoiser(ref)(img, np.sqrt(weight))

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
        out = TotalVariationDenoiser(DenoiserRef())(img, 0.0)
        assert np.array_equal(out, img)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bytes_match_the_slice_form_oracle(self, data):
        h, w = data.draw(SHAPES)
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
        # the second step is the first with momentum
        n_iterations = data.draw(st.sampled_from([0, 1, 2, 60]))
        out = tv_prox(image, weight, n_iterations)
        expected = tv_oracle.tv_prox(image, weight, n_iterations)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_100_by_100_at_pipeline_weights_matches_the_oracle(self):
        rng = np.random.default_rng(5)
        image = rng.uniform(size=(100, 100))
        for weight in (1e-4, 3e-3, 0.05, 3.3):
            assert tv_prox(image, weight).tobytes() == tv_oracle.tv_prox(image, weight).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        shape=SHAPES,
        seed=st.integers(0, 2**32 - 1),
        weight=st.floats(1e-6, 10.0),
        n_iterations=st.sampled_from([0, 1, 60]),
    )
    def test_transposing_the_image_transposes_the_bytes(self, shape, seed, weight, n_iterations):
        image = np.random.default_rng(seed).uniform(-3.0, 3.0, shape)
        out = tv_prox(image, weight, n_iterations)
        assert tv_prox(image.T, weight, n_iterations).tobytes() == out.T.copy().tobytes()

    def test_float32_loop_stays_close_to_float64_at_pipeline_weights(self):
        # Largest change against the float64 loop on this image, and what
        # one more step changes in float64 (0: converged):
        #   weight         1e-4     3e-3     0.05     0.3      3.3
        #   float32        1.0e-9   2.5e-8   7.4e-8   2.2e-7   1.2e-7
        #   one more step  0        1.9e-6   2.9e-4   1.2e-2   5.3e-3
        # Over the images of seeds 5 to 7 the change peaks at 1.1e-5 weight
        # (seed 6, weight 3e-3); the bound is 1e-4 weight.
        image = np.random.default_rng(5).uniform(size=(100, 100))
        for weight in (1e-4, 3e-3, 0.05, 0.3, 3.3):
            reference = tv_oracle.tv_prox(image, weight, dtype=np.float64)
            assert np.abs(tv_prox(image, weight) - reference).max() <= 1e-4 * weight, weight

    @pytest.mark.parametrize("weight", [3e-3, 1e-2, 3e-2, 0.1, 0.3])
    def test_default_steps_are_as_close_as_60_chambolle_steps(self, weight):
        # Relative L2 distance to the converged prox (1,000 float64 steps,
        # within 2e-4 of 8,000 at weight 0.3) on a noisy two-bar image:
        #   weight                3e-3     1e-2     3e-2     0.1      0.3
        #   60 Chambolle steps    4.5e-6   7.1e-5   9.7e-4   1.8e-2   4.9e-2
        #   default FGP / that    0.37     0.33     0.45     0.72     0.96
        image = np.zeros((100, 100))
        image[20:80, 40:46] = image[20:80, 54:60] = 1.0
        image += 0.1 * np.random.default_rng(0).standard_normal(image.shape)
        converged = tv_oracle.tv_prox(image, weight, 1000, dtype=np.float64)

        def distance(out):
            return np.linalg.norm(out - converged) / np.linalg.norm(converged)

        chambolle = distance(tv_oracle.chambolle_prox(image, weight))
        assert distance(tv_prox(image, weight)) <= chambolle

    @pytest.mark.parametrize("weight", [1e-30, 1e-39, 1e-300, 5e-324])
    def test_a_tiny_weight_gives_the_image(self, weight):
        # |image| / weight would overflow the float32 loop; the prox moves
        # no pixel by more than 4 weight, so the image itself is returned
        image = self.noisy_step()
        assert np.array_equal(tv_prox(image, weight), image)

    def test_the_largest_scaled_image_runs_the_loop(self):
        # |image| / weight = 1.8e19, just inside the float32 range rule, on
        # a checkerboard, whose gradient is the steepest: the loop runs
        # without overflow and moves pixels by at most 4 weight.  The move
        # shows only on the zero pixel; on the others it rounds away.
        image = np.where(np.indices((24, 24)).sum(axis=0) % 2, 1.0, -1.0)
        image[5, 7] = 0.0
        weight = 1.0 / 1.8e19
        with np.errstate(over="raise", invalid="raise"):
            out = tv_prox(image, weight)
        assert np.isfinite(out).all() and not np.array_equal(out, image)
        assert np.all(np.abs(out - image) <= 4 * weight * (1 + 1e-6) + np.spacing(np.abs(image)))


class TestExternalProtocol:
    def test_echo_round_trip(self, tmp_path):
        cmd = external_script(tmp_path, ECHO_BODY)
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(9, 7))
        with ExternalDenoiser(DenoiserRef(command=cmd, timeout=20.0)) as ext:
            out = ext(img, 0.25)
            again = ext(img * 2.0, 0.1)  # second request over the same process
        assert np.array_equal(out, img)
        assert np.array_equal(again, img * 2.0)

    def test_pixels_actually_travel(self, tmp_path):
        cmd = external_script(tmp_path, HALVE_BODY)
        img = np.linspace(0.0, 1.0, 20).reshape(4, 5)
        with ExternalDenoiser(DenoiserRef(command=cmd, timeout=20.0)) as ext:
            out = ext(img, 0.0)
        assert np.allclose(out, 0.5 * img)

    def test_bad_magic_rejected(self, tmp_path):
        cmd = external_script(tmp_path, BAD_MAGIC_BODY)
        with ExternalDenoiser(DenoiserRef(command=cmd, timeout=20.0)) as ext:
            with pytest.raises(ExternalDenoiserError, match="malformed"):
                ext(np.zeros((3, 3)), 0.1)

    def test_wrong_shape_rejected(self, tmp_path):
        cmd = external_script(tmp_path, WRONG_SHAPE_BODY)
        with ExternalDenoiser(DenoiserRef(command=cmd, timeout=20.0)) as ext:
            with pytest.raises(ExternalDenoiserError, match="expected"):
                ext(np.zeros((3, 3)), 0.1)

    def test_timeout(self, tmp_path):
        cmd = external_script(tmp_path, SILENT_BODY)
        with ExternalDenoiser(DenoiserRef(command=cmd, timeout=0.5)) as ext:
            with pytest.raises(ExternalDenoiserError, match="timed out"):
                ext(np.zeros((3, 3)), 0.1)
