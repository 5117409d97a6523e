"""Basic signal-level perturbations: tempo/shift, spatial, frequency,
injection, and amplitude. These are the building blocks the compound
effects are composed from.

All functions are pure: they take an AudioBuffer and return a new one,
never mutating the input. Every op preserves the sample rate.
"""

from __future__ import annotations

import math

import numpy as np

from ..audio import AudioBuffer, clamp
from ..errors import DomainError, ParameterError

_STRETCH_FRAME_S = 0.050
#: cross-correlation alignment search half-width for overlap-add stretching
_STRETCH_TOL_S = 0.005


def _resample_linear(samples: np.ndarray, speed: float) -> np.ndarray:
    """Play (channels, frames) samples at ``speed``; length scales by
    1/speed, frequencies scale by speed. Linear interpolation: tone error
    < 0.5% of frequency at 16 kHz over the +-12 semitone range."""
    n = samples.shape[1]
    m = max(1, int(round(n / speed)))
    positions = np.arange(m) * speed
    positions = np.minimum(positions, n - 1)
    grid = np.arange(n)
    return np.stack([np.interp(positions, grid, ch) for ch in samples])


def time_stretch(x: AudioBuffer, factor: float) -> AudioBuffer:
    """Change tempo without changing pitch (overlap-add with
    cross-correlation alignment). Output duration = factor * input +-2%."""
    if not 0.25 <= factor <= 4.0:
        raise ParameterError(f"stretch factor must be in [0.25, 4.0], got {factor}")
    if factor == 1.0:
        return x
    rate = x.sample_rate
    n = x.frames
    n_out = max(1, int(round(n * factor)))
    frame = int(round(_STRETCH_FRAME_S * rate))
    if n < 2 * frame or n_out < frame:
        # clip shorter than the analysis window: interpolate (pitch contract
        # is vacuous at this scale, duration contract still holds)
        resampled = _resample_linear(x.samples, n / n_out)
        return AudioBuffer(clamp(resampled[:, :n_out]), rate)

    window = np.hanning(frame)
    hop = frame // 2
    tol = int(round(_STRETCH_TOL_S * rate))
    mono = x.mono_mix()
    out = np.zeros((x.channels, n_out + frame))
    weight = np.zeros(n_out + frame)

    prev = None
    s = 0
    while s < n_out:
        nominal = int(round(s / factor))
        nominal = min(max(nominal, 0), n - frame)
        if prev is None:
            a = nominal
        else:
            # align to the natural continuation of the previous frame
            target = prev + hop
            ref = np.zeros(frame)
            avail = min(frame, n - target) if target < n else 0
            if avail > 0:
                ref[:avail] = mono[target : target + avail]
            lo = max(0, nominal - tol)
            hi = min(n - frame, nominal + tol)
            if hi <= lo or not np.any(ref):
                a = nominal
            else:
                region = mono[lo : hi + frame]
                scores = np.correlate(region, ref, mode="valid")
                a = lo + int(np.argmax(scores))
        out[:, s : s + frame] += x.samples[:, a : a + frame] * window
        weight[s : s + frame] += window
        prev = a
        s += hop

    voiced = weight > 1e-8
    out[:, voiced] /= weight[voiced]
    return AudioBuffer(clamp(out[:, :n_out]), rate)


def time_shift(x: AudioBuffer, delta_s: float) -> AudioBuffer:
    """Shift content by delta_s seconds (positive = later), zero-filling
    the vacated end. Duration is unchanged."""
    if abs(delta_s) >= x.duration:
        raise ParameterError(
            f"|delta| must be < duration ({x.duration:.3f} s), got {delta_s}"
        )
    shift = int(round(delta_s * x.sample_rate))
    if shift == 0:
        return x
    out = np.zeros_like(x.samples)
    if shift > 0:
        out[:, shift:] = x.samples[:, : x.frames - shift]
    else:
        out[:, : x.frames + shift] = x.samples[:, -shift:]
    return AudioBuffer(out, x.sample_rate)


def pan(x: AudioBuffer, position: float) -> AudioBuffer:
    """Constant-power stereo placement: theta = (position+1)*pi/4, left
    gain cos(theta), right gain sin(theta). Total power is preserved.
    Stereo input is mixed down by channel mean first: dual-mono material
    keeps its power exactly and nothing can clip."""
    if not -1.0 <= position <= 1.0:
        raise ParameterError(f"pan position must be in [-1, +1], got {position}")
    theta = (position + 1.0) * math.pi / 4.0
    mono = x.mono_mix()
    left = math.cos(theta) * mono
    right = math.sin(theta) * mono
    return AudioBuffer(np.stack([left, right]), x.sample_rate)


def surround(x: AudioBuffer, rotation_hz: float) -> AudioBuffer:
    """Rotating spatial effect: time-varying constant-power pan with
    position(t) = sin(2*pi*rotation_hz*t)."""
    if not 0.0 < rotation_hz <= 5.0:
        raise ParameterError(f"rotation must be in (0, 5] Hz, got {rotation_hz}")
    t = np.arange(x.frames) / x.sample_rate
    theta = (np.sin(2 * np.pi * rotation_hz * t) + 1.0) * math.pi / 4.0
    mono = x.mono_mix()
    return AudioBuffer(np.stack([np.cos(theta) * mono, np.sin(theta) * mono]), x.sample_rate)


def pitch_shift(x: AudioBuffer, semitones: float) -> AudioBuffer:
    """Scale all frequencies by 2^(semitones/12) while keeping duration
    within +-2% (resample, then stretch back)."""
    if abs(semitones) > 12.0:
        raise ParameterError(f"|semitones| must be <= 12, got {semitones}")
    if semitones == 0:
        return x
    ratio = 2.0 ** (semitones / 12.0)
    resampled = AudioBuffer(clamp(_resample_linear(x.samples, ratio)), x.sample_rate)
    stretch_back = x.frames / resampled.frames
    return time_stretch(resampled, stretch_back)


def inject_noise(x: AudioBuffer, target_snr_db: float, seed: int) -> AudioBuffer:
    """Add Gaussian white noise scaled so the measured SNR equals
    target_snr_db (exactly, before clamping). Deterministic given seed."""
    signal_rms = float(np.sqrt(np.mean(x.samples**2)))
    if signal_rms == 0.0:
        raise DomainError("cannot target an SNR against silent input")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(x.samples.shape)
    noise_rms = float(np.sqrt(np.mean(noise**2)))
    scale = signal_rms / (noise_rms * 10.0 ** (target_snr_db / 20.0))
    return AudioBuffer(clamp(x.samples + scale * noise), x.sample_rate)


def repeat_segment(x: AudioBuffer, start_s: float, end_s: float, count: int) -> AudioBuffer:
    """Duplicate the [start_s, end_s) span ``count`` extra times in place;
    duration grows by count*(end_s - start_s)."""
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ParameterError(f"count must be an integer >= 1, got {count}")
    if not 0.0 <= start_s < end_s <= x.duration + 1e-12:
        raise ParameterError(
            f"need 0 <= start < end <= duration ({x.duration:.3f} s), "
            f"got [{start_s}, {end_s})"
        )
    i0 = int(round(start_s * x.sample_rate))
    i1 = int(round(end_s * x.sample_rate))
    i1 = min(i1, x.frames)
    if i1 <= i0:
        raise ParameterError("segment rounds to zero frames")
    segment = x.samples[:, i0:i1]
    parts = [x.samples[:, :i1]] + [segment] * count + [x.samples[:, i1:]]
    return AudioBuffer(np.concatenate(parts, axis=1), x.sample_rate)


def gain(x: AudioBuffer, db: float) -> AudioBuffer:
    """Scale amplitude by 10^(db/20), hard-clamping anything that leaves
    [-1, +1]."""
    if not abs(db) <= 40.0:
        raise ParameterError(f"|gain| must be <= 40 dB, got {db}")
    if db == 0:
        return x
    return AudioBuffer(clamp(x.samples * 10.0 ** (db / 20.0)), x.sample_rate)
