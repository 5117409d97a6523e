"""Signal measurements the perturbation tests use as oracles: RMS, a
Hann-windowed spectrum of the mono mixdown (channel mean), its dominant
frequency, and SNR; and the spotter's summation order over plain floats."""

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


def pairwise_sum(terms) -> float:
    """Sum of a list of Python floats in numpy's pairwise order: fewer than
    8 terms in sequence from 0.0; up to 128 terms as 8 running partial
    sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
    sequence; more than 128 as the sum of two halves, the first a multiple
    of 8 long."""
    n = len(terms)
    if n < 8:
        total = 0.0
        for term in terms:
            total += term
        return total
    if n <= 128:
        partial = list(terms[:8])
        blocks = n - n % 8
        for i in range(8, blocks, 8):
            for j in range(8):
                partial[j] += terms[i + j]
        total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
            (partial[4] + partial[5]) + (partial[6] + partial[7])
        )
        for term in terms[blocks:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
