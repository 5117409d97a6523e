"""Signal measurements the perturbation tests use as oracles: RMS, a
Hann-windowed spectrum of the mono mixdown (channel mean), its dominant
frequency, and SNR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from audiomorph.audio import AudioBuffer
from audiomorph.errors import DomainError, ParameterError


@dataclass(frozen=True)
class Spectrum:
    """Single-sided magnitude spectrum with its bin grid."""

    bin_frequencies: np.ndarray
    magnitudes: np.ndarray
    resolution: float = field(default=0.0)

    def __post_init__(self):
        if len(self.bin_frequencies) != len(self.magnitudes):
            raise ValueError("bin_frequencies and magnitudes must have equal length")


def rms(buffer: AudioBuffer) -> np.ndarray:
    """Per-channel root-mean-square in linear units."""
    if buffer.frames == 0:
        raise DomainError("rms of an empty buffer is undefined")
    return np.sqrt(np.mean(buffer.samples**2, axis=1))


def _pooled_rms(samples: np.ndarray) -> float:
    return float(np.sqrt(np.mean(samples**2)))


def spectrum(buffer: AudioBuffer, fft_size: int) -> Spectrum:
    """Hann-windowed magnitude spectrum of the first ``fft_size`` frames of
    the mono mixdown."""
    if fft_size <= 0 or fft_size & (fft_size - 1):
        raise ParameterError(f"fft_size must be a power of two, got {fft_size}")
    if buffer.frames < fft_size:
        raise DomainError(f"buffer has {buffer.frames} frames, need {fft_size}")
    mono = buffer.mono_mix()[:fft_size]
    window = np.hanning(fft_size)
    mags = np.abs(np.fft.rfft(mono * window))
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / buffer.sample_rate)
    return Spectrum(freqs, mags, resolution=buffer.sample_rate / fft_size)


def dominant_frequency(buffer: AudioBuffer, fft_size: int) -> float:
    """Bin-center frequency of the largest spectral magnitude (Hz)."""
    spec = spectrum(buffer, fft_size)
    return float(spec.bin_frequencies[int(np.argmax(spec.magnitudes))])


def measure_snr(signal: AudioBuffer, noisy: AudioBuffer) -> float:
    """Signal-to-noise ratio 20*log10(rms(signal) / rms(noisy - signal)) in dB.

    Identical inputs (zero noise) return +inf as the distinguished
    "no noise" result.
    """
    if signal.samples.shape != noisy.samples.shape:
        raise DomainError("signal and noisy buffers must have identical shape")
    if signal.sample_rate != noisy.sample_rate:
        raise DomainError("signal and noisy buffers must share a sample rate")
    noise_rms = _pooled_rms(noisy.samples - signal.samples)
    signal_rms = _pooled_rms(signal.samples)
    if noise_rms == 0.0:
        return math.inf
    if signal_rms == 0.0:
        return -math.inf
    return 20.0 * math.log10(signal_rms / noise_rms)
