"""Transfer-function estimation/correction and SNR thresholding."""

import numpy as np
import pytest

from mpirecon.forward import ScanSignal, apply_analog_filter
from mpirecon.preprocessing import (
    SNR_CAP,
    SnrProfile,
    TransferFunction,
    compute_snr,
    correct_transfer_function,
    estimate_transfer_function,
    snr_threshold,
)


def random_spectra(rng, n_set, n_channels, n_bins):
    return rng.normal(size=(n_set, n_channels, n_bins)) + 1j * rng.normal(
        size=(n_set, n_channels, n_bins)
    )


def random_signal(rng, n=128, channels=2, zero_dc=False):
    values = rng.normal(size=(n, channels))
    if zero_dc:
        values -= values.mean(axis=0, keepdims=True)
    return ScanSignal(values=values, sample_rate=1e3)


class TestEstimateTransferFunction:
    def test_single_pair_is_pointwise_ratio(self):
        rng = np.random.default_rng(0)
        sim = random_spectra(rng, 1, 2, 33)
        meas = random_spectra(rng, 1, 2, 33)
        tf = estimate_transfer_function(meas, sim)
        assert np.allclose(tf.spectra[tf.usable], (meas[0] / sim[0])[tf.usable], rtol=1e-12)

    def test_identical_sets_give_unity(self):
        rng = np.random.default_rng(1)
        sim = random_spectra(rng, 5, 2, 40)
        tf = estimate_transfer_function(sim, sim)
        assert np.all(tf.usable)
        assert np.allclose(tf.spectra, 1.0, rtol=1e-12)

    def test_complex_scaling_recovered_exactly(self):
        rng = np.random.default_rng(2)
        sim = random_spectra(rng, 4, 1, 25)
        c = 0.7 - 1.3j
        tf = estimate_transfer_function(c * sim, sim)
        assert np.allclose(tf.spectra[tf.usable], c, rtol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            estimate_transfer_function(
                np.zeros((0, 2, 8), dtype=complex), np.zeros((0, 2, 8), dtype=complex)
            )

    def test_all_zero_denominator_rejected(self):
        meas = np.ones((3, 1, 8), dtype=complex)
        with pytest.raises(ValueError):
            estimate_transfer_function(meas, np.zeros_like(meas))

    def test_weak_bins_flagged_unusable(self):
        rng = np.random.default_rng(3)
        sim = random_spectra(rng, 3, 1, 16)
        sim[:, 0, 5] = 0.0
        tf = estimate_transfer_function(sim.copy(), sim)
        assert not tf.usable[0, 5]
        assert tf.spectra[0, 5] == 0.0


class TestCorrectTransferFunction:
    def test_unity_is_identity(self):
        rng = np.random.default_rng(4)
        sig = random_signal(rng)
        n_bins = sig.n_samples // 2 + 1
        tf = TransferFunction(
            spectra=np.ones((2, n_bins), dtype=complex), usable=np.ones((2, n_bins), dtype=bool)
        )
        out = correct_transfer_function(sig, tf)
        assert np.allclose(out.values, sig.values, atol=1e-12)

    def test_round_trip_with_analog_filter(self):
        rng = np.random.default_rng(5)
        sig = random_signal(rng)
        kernel = rng.normal(size=sig.n_samples) + 2.0  # keep spectrum away from zero
        filtered = apply_analog_filter(sig, kernel)
        spectrum = np.fft.rfft(kernel)
        tf = TransferFunction(
            spectra=np.tile(spectrum, (2, 1)), usable=np.ones((2, spectrum.size), dtype=bool)
        )
        recovered = correct_transfer_function(filtered, tf)
        scale = np.abs(sig.values).max()
        assert np.abs(recovered.values - sig.values).max() <= 1e-8 * scale

    def test_constant_two_halves_signal(self):
        rng = np.random.default_rng(6)
        sig = random_signal(rng)
        n_bins = sig.n_samples // 2 + 1
        tf = TransferFunction(
            spectra=2.0 * np.ones((2, n_bins), dtype=complex),
            usable=np.ones((2, n_bins), dtype=bool),
        )
        out = correct_transfer_function(sig, tf)
        assert np.allclose(out.values, 0.5 * sig.values, atol=1e-12)

    def test_output_is_real_valued(self):
        rng = np.random.default_rng(8)
        sig = random_signal(rng)
        n_bins = sig.n_samples // 2 + 1
        tf = TransferFunction(
            spectra=(1.0 + 0.5j) * np.ones((2, n_bins), dtype=complex),
            usable=np.ones((2, n_bins), dtype=bool),
        )
        out = correct_transfer_function(sig, tf)
        assert out.values.dtype == np.float64

    def test_bin_count_mismatch(self):
        rng = np.random.default_rng(9)
        sig = random_signal(rng)
        tf = TransferFunction(
            spectra=np.ones((2, 10), dtype=complex), usable=np.ones((2, 10), dtype=bool)
        )
        with pytest.raises(ValueError):
            correct_transfer_function(sig, tf)


class TestSnrThreshold:
    def test_zero_threshold_removes_only_dc(self):
        rng = np.random.default_rng(10)
        sig = random_signal(rng)
        n_bins = sig.n_samples // 2 + 1
        profile = SnrProfile(values=np.ones((2, n_bins)), thresholds=np.zeros(2))
        out = snr_threshold(sig, profile)
        expected = sig.values - sig.values.mean(axis=0, keepdims=True)
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_infinite_threshold_zeroes_signal(self):
        rng = np.random.default_rng(11)
        sig = random_signal(rng)
        n_bins = sig.n_samples // 2 + 1
        profile = SnrProfile(values=np.ones((2, n_bins)), thresholds=np.full(2, np.inf))
        out = snr_threshold(sig, profile)
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_channel_asymmetric_masking(self):
        # x-channel SNR below its threshold, y-channel above: x zeroed,
        # y untouched (DC-free input).
        rng = np.random.default_rng(12)
        sig = random_signal(rng, zero_dc=True)
        n_bins = sig.n_samples // 2 + 1
        values = np.stack([np.full(n_bins, 0.03), np.full(n_bins, 0.02)])
        profile = SnrProfile(values=values, thresholds=np.array([0.04, 0.01]))
        out = snr_threshold(sig, profile)
        assert np.allclose(out.values[:, 0], 0.0, atol=1e-14)
        assert np.allclose(out.values[:, 1], sig.values[:, 1], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        sig = random_signal(rng)
        n_bins = sig.n_samples // 2 + 1
        values = rng.uniform(0.0, 2.0, size=(2, n_bins))
        profile = SnrProfile(values=values, thresholds=np.array([1.0, 0.5]))
        once = snr_threshold(sig, profile)
        twice = snr_threshold(once, profile)
        # the bin mask is a projection: a second pass only re-rounds the FFT
        scale = np.abs(once.values).max()
        assert np.abs(twice.values - once.values).max() <= 1e-13 * scale
        # bit-exact in the Fourier domain: masking twice equals masking once
        keep = (values >= profile.thresholds[:, None]).astype(float)
        keep[:, 0] = 0.0
        spectrum = np.fft.rfft(sig.values, axis=0).T
        assert np.array_equal(spectrum * keep * keep, spectrum * keep)


class TestComputeSnr:
    def test_perfect_fit_reports_cap(self):
        rng = np.random.default_rng(14)
        sim = random_spectra(rng, 4, 1, 16)
        profile = compute_snr(sim.copy(), sim)
        assert np.all(profile.values == SNR_CAP)

    def test_orthogonal_noise_gives_near_zero(self):
        rng = np.random.default_rng(15)
        n_set, n_bins = 400, 8
        sim = random_spectra(rng, n_set, 1, n_bins)
        meas = random_spectra(rng, n_set, 1, n_bins)  # independent of sim
        profile = compute_snr(meas, sim)
        assert np.all(profile.values < 0.1)

    def test_ten_percent_noise_gives_snr_near_hundred(self):
        # Monte-Carlo oracle: unit-power bins plus 10% complex noise give
        # power SNR near 100; the median over 817 bins is a stable probe.
        rng = np.random.default_rng(16)
        n_set, n_bins = 16, 817
        phases = rng.uniform(0, 2 * np.pi, size=(n_set, 1, n_bins))
        sim = np.exp(1j * phases)
        noise = 0.1 / np.sqrt(2) * (
            rng.normal(size=sim.shape) + 1j * rng.normal(size=sim.shape)
        )
        profile = compute_snr(sim + noise, sim)
        median = np.median(profile.values)
        assert 50.0 < median < 200.0

    def test_undefined_fit_gives_zero(self):
        sim = np.ones((3, 1, 6), dtype=complex)
        sim[:, 0, 2] = 0.0
        meas = np.ones_like(sim)
        profile = compute_snr(meas, sim)
        assert profile.values[0, 2] == 0.0
