"""Compound signal-level perturbations: compressor, ring modulator, bass
boost, tremolo, distortion, echo, reverb.

Each effect is a composition of the basic tempo/frequency/injection/
amplitude moves; accordingly this module may only depend on the audio
core and the basic ops (enforced by an architecture test).

The compressor's level detector and the bass boost's low-pass are linear
recurrences, ``y[n] = a*y[n-1] + u[n]``, which ``_scan`` computes as a
log-step prefix scan (Blelloch 1990) in about log2(frames) elementwise
numpy passes, so the result does not depend on numpy's SIMD width. Its
sums group differently from a sample-by-sample loop's: the floats differ
from the loop's by up to about 1e-14 of the input's peak, far below a
16-bit step. The gain ballistics branch on their state, so they loop
over plain Python floats (about twice as fast as numpy scalars),
``_BLOCK`` samples at a time; over a long zero-gain run they only decay
the state, which is a running numpy product in the loop's order.

The reverb's impulse response depends on its parameters, the sample rate
and the FFT size alone, so its spectrum is built once and cached
read-only for integer seeds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..audio import AudioBuffer, clamp
from ..errors import ParameterError
from .basic import MAX_TAIL_S, check_seed, time_shift

_RMS_WINDOW_S = 0.010
_ATTACK_S = 0.010
_RELEASE_S = 0.100
# samples converted to a Python list at a time by the gain ballistics
_BLOCK = 4096
# zero-gain runs at least this long skip the ballistics loop
_MIN_ZERO_RUN = 32
#: echo's output holds every tap, so their count is bounded before allocating
MAX_ECHO_TAPS = 32


def _blocks(frames: int):
    """Consecutive slices of at most ``_BLOCK`` samples covering ``frames``."""
    for start in range(0, frames, _BLOCK):
        yield slice(start, start + _BLOCK)


def _scan(u: np.ndarray, a: float) -> np.ndarray:
    """``y[n] = a*y[n-1] + u[n]`` along the last axis from ``y[-1] = 0``, in
    place of ``u``: after the pass at stride ``d`` each ``y[n]`` holds the
    terms ``a**k * u[n-k]`` for ``k < 2*d``, until ``a**d`` underflows."""
    d = 1
    while d < u.shape[-1] and (p := a**d) != 0.0:
        u[..., d:] += p * u[..., :-d]
        d *= 2
    return u


def _one_pole(values: np.ndarray, coeff: float) -> np.ndarray:
    """``y[n] = coeff*y[n-1] + (1-coeff)*values[n]``, from ``y[-1] = values[0]``."""
    u = values * (1.0 - coeff)
    u[0] += coeff * values[0]
    return _scan(u, coeff)


def _zero_runs(gains: np.ndarray) -> list:
    """``[start, stop)`` of each run of at least ``_MIN_ZERO_RUN`` zero gains."""
    zero = np.concatenate(([False], gains == 0.0, [False]))
    edges = np.flatnonzero(zero[1:] != zero[:-1]).reshape(-1, 2)
    return edges[edges[:, 1] - edges[:, 0] >= _MIN_ZERO_RUN].tolist()


def _decay(dst: np.ndarray, gains: np.ndarray, state: float, coeff: float) -> float:
    """Fill ``dst`` with the ballistics over a run of zero ``gains``, the
    running product ``state * coeff**k``, and return the last state. The
    loop's ``+ keep * g`` adds a signed zero, which changes a product only
    where it is -0.0: the first +0.0 gain turns it to +0.0, and the
    products after stay +0.0."""
    dst.fill(coeff)
    dst[0] = coeff * state
    np.multiply.accumulate(dst, out=dst)
    if dst[-1] == 0.0:
        # the products shrink towards zero, so their zeros are a suffix
        first = np.count_nonzero(dst)
        negative = np.logical_and.accumulate(np.signbit(gains[first:]))
        negative &= np.signbit(dst[first])
        dst[first:] = np.where(negative, -0.0, 0.0)
    return float(dst[-1])


def _smooth_gain(gain_db: np.ndarray, rate: int) -> np.ndarray:
    """Gain ballistics: compression engages with the 10 ms attack constant
    and lets go with the 100 ms release constant. Over a run of zero gain
    the state only decays, by the attack constant while it is above 0 and
    by the release constant otherwise, so long runs are numpy products."""
    a_attack = math.exp(-1.0 / (rate * _ATTACK_S))
    a_release = math.exp(-1.0 / (rate * _RELEASE_S))
    keep_attack = 1.0 - a_attack
    keep_release = 1.0 - a_release
    out = np.empty_like(gain_db)
    state = 0.0

    def loop(gains: np.ndarray, dst: np.ndarray) -> None:
        nonlocal state
        dst[:] = [
            state := a_attack * state + keep_attack * g
            if g < state
            else a_release * state + keep_release * g
            for g in gains.tolist()
        ]

    for block in _blocks(gain_db.shape[0]):
        gains = gain_db[block]
        dst = out[block]
        start = 0
        for lo, hi in _zero_runs(gains):
            loop(gains[start:lo], dst[start:lo])
            coeff = a_attack if state > 0.0 else a_release
            state = _decay(dst[lo:hi], gains[lo:hi], state, coeff)
            start = hi
        loop(gains[start:], dst[start:])
    return out


def compress(x: AudioBuffer, threshold_db: float, ratio: float) -> AudioBuffer:
    """Dynamic range compression: levels above threshold_db are reduced so
    out_level = T + (L - T)/ratio; below threshold the signal is untouched.

    The RMS level detector is calibrated so a full-scale sine reads 0 dBFS;
    the computed gain moves with 10 ms attack / 100 ms release.
    """
    if not (math.isfinite(threshold_db) and threshold_db < 0):
        raise ParameterError(f"threshold must be finite and negative dBFS, got {threshold_db}")
    if not (math.isfinite(ratio) and ratio >= 1):
        raise ParameterError(f"ratio must be finite and >= 1, got {ratio}")
    if x.frames == 0:
        return x
    power = np.mean(x.samples**2, axis=0)
    mean_square = _one_pole(power, math.exp(-1.0 / (x.sample_rate * _RMS_WINDOW_S)))
    # sine calibration: mean square A^2/2 must read as level 20*log10(A)
    level_db = 10.0 * np.log10(np.maximum(mean_square * 2.0, 1e-24))
    over = level_db > threshold_db
    gain_db = np.zeros_like(level_db)
    gain_db[over] = (threshold_db - level_db[over]) * (1.0 - 1.0 / ratio)
    gain_db = _smooth_gain(gain_db, x.sample_rate)
    return AudioBuffer(clamp(x.samples * 10.0 ** (gain_db / 20.0)), x.sample_rate)


def ring_modulate(x: AudioBuffer, carrier_hz: float) -> AudioBuffer:
    """Multiply by a sine carrier; a pure tone at f splits into sidebands
    at f +- carrier_hz."""
    nyquist = x.sample_rate / 2.0
    if not 0.0 < carrier_hz < nyquist:
        raise ParameterError(f"carrier must be in (0, {nyquist}) Hz, got {carrier_hz}")
    t = np.arange(x.frames) / x.sample_rate
    return AudioBuffer(x.samples * np.sin(2 * np.pi * carrier_hz * t), x.sample_rate)


def _one_pole_lowpass(samples: np.ndarray, cutoff_hz: float, rate: int) -> np.ndarray:
    """``y[n] = y[n-1] + beta*(x[n] - y[n-1])`` per channel, from ``y[-1] = 0``."""
    beta = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / rate)
    return _scan(beta * samples, 1.0 - beta)


def bass_boost(x: AudioBuffer, cutoff_hz: float, gain_db: float) -> AudioBuffer:
    """Boost low frequencies: y = clamp(x + g * lowpass(x)) with
    g = 10^(gain_db/20) and a first-order low-pass at cutoff_hz."""
    if not 20.0 <= cutoff_hz <= 400.0:
        raise ParameterError(f"cutoff must be in [20, 400] Hz, got {cutoff_hz}")
    if not (math.isfinite(gain_db) and abs(gain_db) <= 40.0):
        raise ParameterError(f"|gain| must be <= 40 dB, got {gain_db}")
    g = 10.0 ** (gain_db / 20.0)
    low = _one_pole_lowpass(x.samples, cutoff_hz, x.sample_rate)
    return AudioBuffer(clamp(x.samples + g * low), x.sample_rate)


def tremolo(x: AudioBuffer, rate_hz: float, depth: float) -> AudioBuffer:
    """Periodic volume modulation: y = x * (1 + depth*sin(2*pi*rate_hz*t))
    / (1 + depth); the normalization keeps the peak at or below the input
    peak."""
    if not 0.5 <= rate_hz <= 20.0:
        raise ParameterError(f"tremolo rate must be in [0.5, 20] Hz, got {rate_hz}")
    if not 0.0 < depth <= 1.0:
        raise ParameterError(f"depth must be in (0, 1], got {depth}")
    t = np.arange(x.frames) / x.sample_rate
    envelope = (1.0 + depth * np.sin(2 * np.pi * rate_hz * t)) / (1.0 + depth)
    return AudioBuffer(x.samples * envelope, x.sample_rate)


def distort(x: AudioBuffer, clip_threshold: float, drive: float) -> AudioBuffer:
    """Three-stage distortion: hard clip at +-clip_threshold, convolve
    with the harmonic kernel [1, 0, 0.2*drive] (a tap 2 samples late),
    then apply a linear 1 -> (1+drive) ramp and re-clamp. Length is
    preserved (causal FIR, tail truncated)."""
    if not 0.0 < clip_threshold <= 1.0:
        raise ParameterError(f"clip threshold must be in (0, 1], got {clip_threshold}")
    if not (math.isfinite(drive) and drive >= 0.0):
        raise ParameterError(f"drive must be finite and >= 0, got {drive}")
    taps = np.array([1.0, 0.0, 0.2 * drive])
    clipped = np.clip(x.samples, -clip_threshold, clip_threshold)
    n = x.frames
    convolved = np.stack([np.convolve(ch, taps)[:n] for ch in clipped])
    ramp = np.linspace(1.0, 1.0 + drive, n) if n else np.ones(0)
    return AudioBuffer(clamp(convolved * ramp), x.sample_rate)


def echo(x: AudioBuffer, delay_s: float, decay: float, taps: int) -> AudioBuffer:
    """Feedforward delay line: y = x + sum_k decay^k * shift(x, k*delay),
    extended to hold the last tap; ``taps`` is at most 32
    (``MAX_ECHO_TAPS``) and ``taps * delay_s`` at most 10 s
    (``MAX_TAIL_S``). decay 0 is the identity."""
    if not (math.isfinite(delay_s) and delay_s > 0):
        raise ParameterError(f"delay must be finite and positive, got {delay_s}")
    if not 0.0 <= decay < 1.0:
        raise ParameterError(f"decay must be in [0, 1), got {decay}")
    if not (isinstance(taps, (int, np.integer)) and 1 <= taps <= MAX_ECHO_TAPS):
        raise ParameterError(f"taps must be an integer in [1, {MAX_ECHO_TAPS}], got {taps}")
    if taps * delay_s > MAX_TAIL_S:
        raise ParameterError(
            f"taps * delay_s must be at most {MAX_TAIL_S} s, got {taps} * {delay_s}"
        )
    if decay == 0.0:
        return x
    d = int(round(delay_s * x.sample_rate))
    if d == 0:
        return x
    n_out = x.frames + taps * d
    padded = AudioBuffer(
        np.concatenate([x.samples, np.zeros((x.channels, n_out - x.frames))], axis=1),
        x.sample_rate,
    )
    acc = padded.samples.copy()
    for k in range(1, taps + 1):
        acc += decay**k * time_shift(padded, k * d / x.sample_rate).samples
    return AudioBuffer(clamp(acc), x.sample_rate)


@functools.lru_cache(maxsize=4)
def _impulse_spectrum(
    intensity: float, duration_s: float, seed, rate: int, size: int
) -> np.ndarray:
    """rfft at ``size`` points of the impulse response: a unit leading tap
    plus seed-deterministic noise under a 60 dB exponential decay over
    duration_s, scaled by intensity. Read-only, as callers share it."""
    ir_len = int(round(duration_s * rate))
    h = np.zeros(1 + ir_len)
    h[0] = 1.0
    if ir_len and intensity > 0.0:
        t = np.arange(ir_len) / rate
        envelope = 10.0 ** (-3.0 * t / duration_s)  # -60 dB across the tail
        rng = np.random.default_rng(seed)
        h[1:] = intensity * rng.standard_normal(ir_len) * envelope
    spectrum = np.fft.rfft(h, size)
    spectrum.flags.writeable = False
    return spectrum


def reverb(x: AudioBuffer, intensity: float, duration_s: float, seed: int) -> AudioBuffer:
    """Convolve with a synthetic impulse response: a unit leading tap plus
    seed-deterministic noise under a 60 dB exponential decay over
    duration_s, scaled by intensity; ``duration_s`` is at most 10 s
    (``MAX_TAIL_S``). Output length is the full convolution length."""
    if not (math.isfinite(intensity) and intensity >= 0.0):
        raise ParameterError(f"intensity must be finite and >= 0, got {intensity}")
    if not 0.0 <= duration_s <= MAX_TAIL_S:
        raise ParameterError(f"duration_s must be in [0, {MAX_TAIL_S}] s, got {duration_s}")
    check_seed(seed)
    rate = x.sample_rate
    n_out = x.frames + int(round(duration_s * rate))
    size = 1
    while size < n_out:
        size *= 2
    # an integer seed names its noise; any other seed default_rng takes
    # (None, a list) builds the spectrum afresh, as no cache key stands for it
    if isinstance(seed, (int, np.integer)):
        spectrum_h = _impulse_spectrum(intensity, duration_s, seed, rate, size)
    else:
        spectrum_h = _impulse_spectrum.__wrapped__(intensity, duration_s, seed, rate, size)
    out = np.stack(
        [np.fft.irfft(np.fft.rfft(ch, size) * spectrum_h, size)[:n_out] for ch in x.samples]
    )
    return AudioBuffer(clamp(out), x.sample_rate)
