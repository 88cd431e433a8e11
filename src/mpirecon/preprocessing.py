"""Frequency-domain signal conditioning.

The receive chain multiplies the signal spectrum by a transfer function
and some frequency bins are too unreliable to use.  This module
estimates the transfer function from matched measured/simulated spectrum
pairs in a least-squares fashion, divides it out, computes per-bin
signal-to-noise ratios from the same pairs, and zeroes bins below a
per-channel threshold.

Spectra are one-sided (real-input DFT) with ``L // 2 + 1`` bins for
``L`` time samples; bin 0 is DC.  A 1632-sample period therefore has
817 bins.  Outputs are real time series by construction.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .forward import ScanSignal

SNR_CAP = 1e12  # reported when the residual of a perfect fit vanishes
DENOMINATOR_GUARD = 1e-12  # times the per-channel peak bin power


@dataclasses.dataclass
class TransferFunction:
    """Per-channel complex response over one-sided frequency bins.

    ``usable`` flags bins where the least-squares denominator was large
    enough to trust the estimate.
    """

    spectra: np.ndarray  # (C, F) complex
    usable: np.ndarray  # (C, F) bool

    def __post_init__(self):
        self.spectra = np.asarray(self.spectra, dtype=complex)
        self.usable = np.asarray(self.usable, dtype=bool)
        if self.spectra.shape != self.usable.shape:
            raise ValueError("spectra and usable mask shapes differ")

    @property
    def n_bins(self) -> int:
        return self.spectra.shape[1]


@dataclasses.dataclass
class SnrProfile:
    """Per-channel, per-bin SNR values with per-channel thresholds."""

    values: np.ndarray  # (C, F) >= 0
    thresholds: np.ndarray  # (C,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        if np.any(self.values < 0):
            raise ValueError("SNR values must be nonnegative")
        if np.any(self.thresholds < 0):
            raise ValueError("SNR thresholds must be nonnegative")
        if self.thresholds.shape != (self.values.shape[0],):
            raise ValueError("one threshold per channel required")

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]


def _as_spectrum_set(spectra) -> np.ndarray:
    arr = np.asarray(spectra, dtype=complex)
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty set of spectra with shape (set, channels, bins)")
    return arr


def _least_squares_fit(measured, simulated):
    """Per-bin complex least squares of measured against simulated over
    the set axis; returns (coefficients, usable mask, numerator residual
    inputs)."""
    measured = _as_spectrum_set(measured)
    simulated = _as_spectrum_set(simulated)
    if measured.shape != simulated.shape:
        raise ValueError(
            f"measured {measured.shape} and simulated {simulated.shape} sets must match"
        )
    denom = np.sum(np.abs(simulated) ** 2, axis=0)  # (C, F)
    guard = DENOMINATOR_GUARD * denom.max(axis=1, keepdims=True)
    usable = denom > guard
    if not np.any(usable):
        raise ValueError("least-squares denominator vanishes on every bin")
    numer = np.sum(measured * np.conj(simulated), axis=0)
    coeff = np.zeros_like(numer)
    np.divide(numer, denom, out=coeff, where=usable)
    return coeff, usable, measured, simulated


def estimate_transfer_function(measured_spectra, simulated_spectra) -> TransferFunction:
    """Fit one complex factor per bin so that ``measured ~ tf * simulated``
    across the spectrum set: ``tf = sum(m conj(s)) / sum(|s|^2)``."""
    coeff, usable, _, _ = _least_squares_fit(measured_spectra, simulated_spectra)
    return TransferFunction(spectra=coeff, usable=usable)


def compute_snr(measured_spectra, simulated_spectra) -> SnrProfile:
    """Per-bin ratio of fitted power to residual power after the
    least-squares fit; capped for vanishing residuals, zero where the fit
    is undefined."""
    coeff, usable, measured, simulated = _least_squares_fit(measured_spectra, simulated_spectra)
    fitted = coeff[None, :, :] * simulated
    fitted_power = np.sum(np.abs(fitted) ** 2, axis=0)
    residual_power = np.sum(np.abs(measured - fitted) ** 2, axis=0)
    snr = np.zeros_like(fitted_power)
    tiny = fitted_power / SNR_CAP
    degenerate = residual_power <= tiny
    np.divide(fitted_power, residual_power, out=snr, where=usable & ~degenerate)
    snr[usable & degenerate & (fitted_power > 0)] = SNR_CAP
    np.clip(snr, 0.0, SNR_CAP, out=snr)
    return SnrProfile(values=snr, thresholds=np.zeros(snr.shape[0]))


def _check_bins(signal: ScanSignal, n_bins: int, n_channels: int, what: str) -> None:
    expected = signal.n_samples // 2 + 1
    if n_bins != expected:
        raise ValueError(
            f"{what} has {n_bins} bins but the {signal.n_samples}-sample signal needs {expected}"
        )
    if n_channels != signal.n_channels:
        raise ValueError(f"{what} channel count {n_channels} != signal {signal.n_channels}")


def correct_transfer_function(signal: ScanSignal, tf: TransferFunction) -> ScanSignal:
    """Divide the signal spectrum by the transfer function per channel.

    Unusable bins are zero-filled: they are treated as absent data.
    """
    _check_bins(signal, tf.n_bins, tf.spectra.shape[0], "transfer function")
    spectrum = np.fft.rfft(signal.values, axis=0).T  # (C, F)
    corrected = np.zeros_like(spectrum)
    np.divide(spectrum, tf.spectra, out=corrected, where=tf.usable)
    out = np.fft.irfft(corrected.T, n=signal.n_samples, axis=0)
    return ScanSignal(values=out, sample_rate=signal.sample_rate)


def snr_threshold(signal: ScanSignal, profile: SnrProfile) -> ScanSignal:
    """Zero every bin whose SNR falls below the channel threshold, plus
    the DC bin (background-corrected signals carry no DC information)."""
    _check_bins(signal, profile.n_bins, profile.values.shape[0], "SNR profile")
    spectrum = np.fft.rfft(signal.values, axis=0).T  # (C, F)
    keep = profile.values >= profile.thresholds[:, None]
    keep[:, 0] = False
    out = np.fft.irfft((spectrum * keep).T, n=signal.n_samples, axis=0)
    return ScanSignal(values=out, sample_rate=signal.sample_rate)
