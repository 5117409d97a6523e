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
#: grains windowed and added at a time by the overlap-add
_OLA_GRAINS = 32
#: seconds an op may add to a clip (echo's taps, reverb's tail, repeat_segment's
#: copies, discontinuity's stutters), checked before the longer output is allocated
MAX_TAIL_S = 10.0


def check_seed(seed) -> None:
    """A negative integer seed is a ParameterError; any other seed goes to
    ``np.random.default_rng`` as given (None draws fresh entropy)."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


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


def _overlap_add(samples: np.ndarray, starts, window: np.ndarray, hop: int):
    """Overlap-add of the grains ``samples[:, a:a+frame] * window`` for ``a``
    in ``starts``, grain k placed at ``k * hop``, and of the windows alone.

    Each output sample sums its grains from 0.0 in order of k, as adding
    one grain per hop does. A grain spans up to three hop-long pieces, so
    adding the last piece of every grain, then the one before, then the
    first, keeps that order, and so does taking ``_OLA_GRAINS`` grains at
    a time, which bounds the temporaries."""
    frame = window.size
    pieces = -(-frame // hop)
    count = len(starts)
    channels = samples.shape[0]
    out = np.zeros((channels, count + pieces, hop))
    weight = np.zeros((count + pieces, hop))
    spans = [(r, slice(r * hop, min((r + 1) * hop, frame))) for r in reversed(range(pieces))]
    for r, span in spans:
        weight[r : r + count, : span.stop - span.start] += window[span]
    grains_at = np.lib.stride_tricks.sliding_window_view(samples, frame, axis=1)
    for k in range(0, count, _OLA_GRAINS):
        grains = grains_at[:, starts[k : k + _OLA_GRAINS]]
        grains *= window
        for r, span in spans:
            out[:, k + r : k + r + grains.shape[1], : span.stop - span.start] += grains[:, :, span]
    return out.reshape(channels, -1), weight.reshape(-1)


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
    if frame < 2 or n < 2 * frame or n_out < frame:
        # clip shorter than the analysis window, or a window under two
        # samples (no hop): interpolate (pitch contract is vacuous at this
        # scale, duration contract still holds)
        resampled = _resample_linear(x.samples, n / n_out)
        return AudioBuffer(clamp(resampled[:, :n_out]), rate)

    window = np.hanning(frame)
    hop = frame // 2
    tol = int(round(_STRETCH_TOL_S * rate))
    mono = x.mono_mix()
    starts = []
    for s in range(0, n_out, hop):
        a = min(max(int(round(s / factor)), 0), n - frame)
        if starts:
            # align to the natural continuation of the previous frame,
            # zero-padded where it runs past the end of the clip
            target = starts[-1] + hop
            if target + frame <= n:
                ref = mono[target : target + frame]
            else:
                ref = np.zeros(frame)
                ref[: max(0, n - target)] = mono[target:]
            lo = max(0, a - tol)
            hi = min(n - frame, a + tol)
            if hi > lo and np.count_nonzero(ref):
                scores = np.correlate(mono[lo : hi + frame], ref, mode="valid")
                a = lo + int(scores.argmax())
        starts.append(a)

    out, weight = _overlap_add(x.samples, starts, window, hop)
    out, weight = out[:, :n_out], weight[:n_out]
    np.divide(out, weight, out=out, where=weight > 1e-8)
    return AudioBuffer(clamp(out), rate)


def time_shift(x: AudioBuffer, delta_s: float) -> AudioBuffer:
    """Shift content by delta_s seconds (positive = later), zero-filling
    the vacated end. Duration is unchanged."""
    if not (math.isfinite(delta_s) and abs(delta_s) < x.duration):
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
    if not (math.isfinite(semitones) and abs(semitones) <= 12.0):
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
    if not math.isfinite(target_snr_db):
        raise ParameterError(f"target SNR must be finite, got {target_snr_db}")
    check_seed(seed)
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
    duration grows by count*(end_s - start_s) to the frame, at most 10 s
    (``MAX_TAIL_S``) of copied frames."""
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
    # the frames actually copied, not the seconds asked for: a sub-frame
    # span rounds up to one frame
    if int(count) * (i1 - i0) > MAX_TAIL_S * x.sample_rate:
        raise ParameterError(
            f"count * segment must be at most {MAX_TAIL_S} s, "
            f"got {count} * {i1 - i0} frames"
        )
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
