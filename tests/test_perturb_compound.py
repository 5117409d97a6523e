"""Compound perturbations: contract examples plus spectral/energy oracles."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomorph.audio import AudioBuffer, quantize_int16, write_wav
from audiomorph.backends import Category, ModerationBackend, Verdict
from audiomorph.campaign import CampaignConfig, replay_campaign, run_campaign
from audiomorph.deskcorpus import synth_seeds
from audiomorph.errors import ParameterError
from audiomorph.perturb import compound
from .conftest import envelope_period_s, sine
from .oracles import rms, spectrum

RATE = 16000


def _peak_dbfs(samples):
    return 20 * math.log10(np.max(np.abs(samples)))


def _top_two_peak_freqs(buf, fft_size):
    spec = spectrum(buf, fft_size)
    mags = spec.magnitudes.copy()
    first = int(np.argmax(mags))
    # suppress the first peak's neighborhood before finding the second
    lo, hi = max(0, first - 5), first + 6
    mags[lo:hi] = 0
    second = int(np.argmax(mags))
    return sorted([spec.bin_frequencies[first], spec.bin_frequencies[second]])


class TestCompress:
    def test_steady_state_peak(self):
        buf = sine(440.0, amplitude=1.0, duration_s=1.5)
        out = compound.compress(buf, threshold_db=-20.0, ratio=4.0)
        tail = out.samples[:, -RATE // 4 :]
        # gain law: level 0 dBFS over a -20 threshold at 4:1 lands at -15
        assert _peak_dbfs(tail) == pytest.approx(-15.0, abs=1.0)

    def test_below_threshold_identity(self):
        buf = sine(440.0, amplitude=0.05)  # -26 dBFS, under the threshold
        out = compound.compress(buf, threshold_db=-20.0, ratio=4.0)
        assert np.max(np.abs(out.samples - buf.samples)) < 1e-6

    def test_crest_factor_decreases(self):
        # speech-like: a carrier under smooth syllabic (2 Hz) modulation;
        # crest measured past the cold-start gain transient
        t = np.arange(3 * RATE) / RATE
        carrier = np.sin(2 * np.pi * 220 * t)
        syllables = 0.1 + 0.9 * np.abs(np.sin(2 * np.pi * 2 * t))
        buf = AudioBuffer(0.9 * carrier * syllables, RATE)
        out = compound.compress(buf, threshold_db=-20.0, ratio=4.0)
        skip = RATE // 2

        def crest(samples):
            return np.max(np.abs(samples)) / np.sqrt(np.mean(samples**2))

        assert crest(out.samples[:, skip:]) < crest(buf.samples[:, skip:])

    @pytest.mark.parametrize("kwargs", [dict(threshold_db=0.0, ratio=4.0), dict(threshold_db=-20.0, ratio=0.5)])
    def test_invalid_params(self, tone_440, kwargs):
        with pytest.raises(ParameterError):
            compound.compress(tone_440, **kwargs)


class TestRingModulate:
    def test_sidebands(self):
        buf = sine(440.0, duration_s=1.5)
        out = compound.ring_modulate(buf, 30.0)
        resolution = RATE / 16384
        low, high = _top_two_peak_freqs(out, 16384)
        assert low == pytest.approx(410.0, abs=resolution)
        assert high == pytest.approx(470.0, abs=resolution)

    def test_silence_passthrough(self):
        buf = AudioBuffer(np.zeros(RATE), RATE)
        assert not np.any(compound.ring_modulate(buf, 100.0).samples)

    def test_energy_halves(self):
        # 1 s at 30 Hz carrier = 30 whole periods
        buf = sine(440.0, duration_s=1.0)
        out = compound.ring_modulate(buf, 30.0)
        assert np.sum(out.samples**2) == pytest.approx(np.sum(buf.samples**2) / 2, rel=0.02)

    @pytest.mark.parametrize("carrier", [0.0, -5.0, 8000.0, 9000.0])
    def test_invalid_carrier(self, tone_440, carrier):
        with pytest.raises(ParameterError):
            compound.ring_modulate(tone_440, carrier)


class TestBassBoost:
    def test_passband_boost(self):
        buf = sine(50.0, amplitude=0.2, duration_s=1.0)
        out = compound.bass_boost(buf, cutoff_hz=200.0, gain_db=6.0)
        skip = RATE // 10  # drop the filter warmup
        ratio = np.sqrt(np.mean(out.samples[:, skip:] ** 2) / np.mean(buf.samples[:, skip:] ** 2))
        expected = 1.0 + 10 ** (6.0 / 20.0)
        assert abs(ratio - expected) <= 0.1 * expected

    def test_stopband_flat(self):
        buf = sine(4000.0, amplitude=0.2, duration_s=1.0)
        out = compound.bass_boost(buf, cutoff_hz=200.0, gain_db=6.0)
        skip = RATE // 10
        ratio_db = 20 * math.log10(
            np.sqrt(np.mean(out.samples[:, skip:] ** 2)) / np.sqrt(np.mean(buf.samples[:, skip:] ** 2))
        )
        assert abs(ratio_db) <= 1.0

    def test_silence_passthrough(self):
        buf = AudioBuffer(np.zeros(RATE), RATE)
        assert not np.any(compound.bass_boost(buf, 200.0, 0.0).samples)

    @pytest.mark.parametrize("kwargs", [dict(cutoff_hz=10.0, gain_db=6.0), dict(cutoff_hz=500.0, gain_db=6.0), dict(cutoff_hz=200.0, gain_db=math.inf)])
    def test_invalid_params(self, tone_440, kwargs):
        with pytest.raises(ParameterError):
            compound.bass_boost(tone_440, **kwargs)


class TestTremolo:
    def test_small_depth_near_identity(self, tone_440):
        out = compound.tremolo(tone_440, 4.0, depth=1e-6)
        assert np.max(np.abs(out.samples - tone_440.samples)) < 1e-5

    def test_envelope_period(self):
        buf = AudioBuffer(np.full(2 * RATE, 0.5), RATE)
        out = compound.tremolo(buf, 4.0, depth=0.8)
        period = envelope_period_s(out.samples[0], RATE, max_lag_s=0.4)
        assert period == pytest.approx(0.25, rel=0.05)

    def test_peak_never_exceeds_input(self):
        rng = np.random.default_rng(4)
        buf = AudioBuffer(rng.uniform(-0.9, 0.9, RATE), RATE)
        out = compound.tremolo(buf, 4.0, depth=1.0)
        assert np.max(np.abs(out.samples)) <= np.max(np.abs(buf.samples)) + 1e-12

    @pytest.mark.parametrize("kwargs", [dict(rate_hz=0.1, depth=0.5), dict(rate_hz=25.0, depth=0.5), dict(rate_hz=4.0, depth=0.0), dict(rate_hz=4.0, depth=1.5)])
    def test_invalid_params(self, tone_440, kwargs):
        with pytest.raises(ParameterError):
            compound.tremolo(tone_440, **kwargs)


class TestDistort:
    def test_clip_peak_exact(self):
        buf = sine(440.0, amplitude=1.0)
        out = compound.distort(buf, clip_threshold=0.5, drive=0.0)
        assert np.max(np.abs(out.samples)) == 0.5

    def test_third_harmonic(self):
        buf = sine(440.0, amplitude=1.0, duration_s=1.5)
        out = compound.distort(buf, clip_threshold=0.5, drive=0.0)
        spec = spectrum(out, 16384)
        third_bin = int(round(1320.0 / spec.resolution))
        window = spec.magnitudes[third_bin - 2 : third_bin + 3]
        floor = np.median(spec.magnitudes)
        assert 20 * math.log10(np.max(window) / floor) >= 20.0

    def test_identity_configuration(self, tone_440):
        out = compound.distort(tone_440, clip_threshold=1.0, drive=0.0)
        assert np.array_equal(out.samples, tone_440.samples)

    def test_ramp_raises_tail(self):
        buf = AudioBuffer(np.full(RATE, 0.25), RATE)
        out = compound.distort(buf, clip_threshold=1.0, drive=1.0)
        # ramp runs 1 -> 2, kernel adds 0.2*drive two samples late
        assert out.samples[0, -1] == pytest.approx(0.25 * 1.2 * 2.0, rel=1e-6)

    @pytest.mark.parametrize("kwargs", [dict(clip_threshold=0.0, drive=0.0), dict(clip_threshold=1.5, drive=0.0), dict(clip_threshold=0.5, drive=-1.0)])
    def test_invalid_params(self, tone_440, kwargs):
        with pytest.raises(ParameterError):
            compound.distort(tone_440, **kwargs)


class TestEcho:
    def test_impulse_taps(self):
        data = np.zeros(RATE)
        data[0] = 1.0
        buf = AudioBuffer(data, RATE)
        out = compound.echo(buf, delay_s=0.25, decay=0.5, taps=2)
        d = int(0.25 * RATE)
        assert out.frames == RATE + 2 * d
        assert out.samples[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert out.samples[0, d] == pytest.approx(0.5, abs=1e-6)
        assert out.samples[0, 2 * d] == pytest.approx(0.25, abs=1e-6)
        others = out.samples.copy()
        for idx in (0, d, 2 * d):
            others[0, idx] = 0.0
        assert np.max(np.abs(others)) < 1e-12

    def test_zero_decay_identity(self, tone_440):
        out = compound.echo(tone_440, 0.25, 0.0, 2)
        assert out.frames == tone_440.frames
        assert np.array_equal(out.samples, tone_440.samples)

    def test_autocorrelation_peak_at_delay(self):
        rng = np.random.default_rng(12)
        buf = AudioBuffer(np.clip(0.4 * rng.standard_normal(RATE // 2), -1, 1), RATE)
        out = compound.echo(buf, delay_s=0.25, decay=0.6, taps=1)
        x = out.samples[0]
        ac = np.correlate(x, x, mode="full")[x.size - 1 :]
        floor = int(0.1 * RATE)
        lag = floor + int(np.argmax(ac[floor : int(0.4 * RATE)]))
        assert abs(lag - int(0.25 * RATE)) <= 1

    @pytest.mark.parametrize("kwargs", [dict(delay_s=0.0, decay=0.5, taps=1), dict(delay_s=0.1, decay=1.0, taps=1), dict(delay_s=0.1, decay=0.5, taps=0)])
    def test_invalid_params(self, tone_440, kwargs):
        with pytest.raises(ParameterError):
            compound.echo(tone_440, **kwargs)

    def test_taps_bounded_before_allocating(self, tone_440):
        # 10**9 taps of 10 ms would ask for over a terabyte
        with pytest.raises(ParameterError, match="taps"):
            compound.echo(tone_440, delay_s=0.01, decay=0.5, taps=10**9)
        with pytest.raises(ParameterError, match="taps"):
            compound.echo(tone_440, delay_s=0.01, decay=0.5, taps=compound.MAX_ECHO_TAPS + 1)
        out = compound.echo(tone_440, delay_s=0.01, decay=0.5, taps=compound.MAX_ECHO_TAPS)
        assert out.frames == tone_440.frames + compound.MAX_ECHO_TAPS * int(0.01 * RATE)

    def test_tail_bounded_before_allocating(self, tone_440):
        # delay_s=1e9 would ask for over a hundred terabytes
        for taps, delay_s in [(1, 1e9), (4, 2.5001), (compound.MAX_ECHO_TAPS, 0.5)]:
            with pytest.raises(ParameterError, match="delay_s"):
                compound.echo(tone_440, delay_s=delay_s, decay=0.5, taps=taps)
        out = compound.echo(tone_440, delay_s=2.5, decay=0.5, taps=4)
        assert out.frames == tone_440.frames + int(compound.MAX_TAIL_S * RATE)


class TestReverb:
    def test_zero_intensity_identity_on_original_span(self, tone_440):
        out = compound.reverb(tone_440, intensity=0.0, duration_s=0.3, seed=1)
        ir_len = int(0.3 * RATE)
        assert out.frames == tone_440.frames + ir_len  # n + (1 + ir_len) - 1
        assert np.allclose(out.samples[:, : tone_440.frames], tone_440.samples, atol=1e-12)
        assert np.max(np.abs(out.samples[:, tone_440.frames :])) < 1e-12

    def test_convolution_length(self, tone_440):
        out = compound.reverb(tone_440, intensity=0.3, duration_s=0.2, seed=7)
        assert out.frames == tone_440.frames + int(0.2 * RATE)

    def test_tail_decays_monotonically(self):
        data = np.zeros(RATE // 4)
        data[0] = 0.5
        buf = AudioBuffer(data, RATE)
        out = compound.reverb(buf, intensity=0.4, duration_s=0.3, seed=3)
        window = int(0.05 * RATE)
        tail = out.samples[0, 1:]  # skip the unit tap
        energies = [
            float(np.sum(tail[k * window : (k + 1) * window] ** 2))
            for k in range(int(0.3 / 0.05))
        ]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_seed_deterministic(self, tone_440):
        a = compound.reverb(tone_440, 0.3, 0.2, seed=9)
        b = compound.reverb(tone_440, 0.3, 0.2, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = compound.reverb(tone_440, 0.3, 0.2, seed=10)
        assert np.max(np.abs(a.samples - c.samples)) > 0

    @pytest.mark.parametrize("kwargs", [dict(intensity=-0.1, duration_s=0.3, seed=1), dict(intensity=0.3, duration_s=-1.0, seed=1)])
    def test_invalid_params(self, tone_440, kwargs):
        with pytest.raises(ParameterError):
            compound.reverb(tone_440, **kwargs)

    # rejected even when no noise is drawn (zero intensity)
    @pytest.mark.parametrize("intensity", [0.0, 0.3])
    def test_negative_seed_rejected(self, tone_440, intensity):
        with pytest.raises(ParameterError, match="seed"):
            compound.reverb(tone_440, intensity, 0.2, seed=-1)

    def test_tail_bounded_before_allocating(self, tone_440):
        for duration_s in (1e9, compound.MAX_TAIL_S + 0.001):
            with pytest.raises(ParameterError, match="duration_s"):
                compound.reverb(tone_440, 0.3, duration_s, seed=1)
        out = compound.reverb(tone_440, 0.3, compound.MAX_TAIL_S, seed=1)
        assert out.frames == tone_440.frames + int(compound.MAX_TAIL_S * RATE)


def plain_reverb(x: AudioBuffer, intensity: float, duration_s: float, seed) -> AudioBuffer:
    """The reverb as it was before its impulse spectrum was cached, kept
    verbatim as the bit-identical reference."""
    rate = x.sample_rate
    ir_len = int(round(duration_s * rate))
    h = np.zeros(1 + ir_len)
    h[0] = 1.0
    if ir_len and intensity > 0.0:
        t = np.arange(ir_len) / rate
        envelope = 10.0 ** (-3.0 * t / duration_s)  # -60 dB across the tail
        rng = np.random.default_rng(seed)
        h[1:] = intensity * rng.standard_normal(ir_len) * envelope
    n_out = x.frames + h.size - 1
    size = 1
    while size < n_out:
        size *= 2
    spectrum_h = np.fft.rfft(h, size)
    out = np.stack(
        [np.fft.irfft(np.fft.rfft(ch, size) * spectrum_h, size)[:n_out] for ch in x.samples]
    )
    return AudioBuffer(np.clip(out, -1.0, 1.0), x.sample_rate)


class TestReverbCache:
    # (intensity, duration_s, seed): a base and one change of each
    PARAMS = [(0.3, 0.2, 9), (0.4, 0.2, 9), (0.3, 0.25, 9), (0.3, 0.2, 10)]

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        compound._impulse_spectrum.cache_clear()
        yield
        compound._impulse_spectrum.cache_clear()

    def test_repeated_calls_keep_the_bytes(self, tone_440):
        want = plain_reverb(tone_440, 0.3, 0.2, 9).samples.tobytes()
        for _ in range(3):
            assert compound.reverb(tone_440, 0.3, 0.2, seed=9).samples.tobytes() == want
        info = compound._impulse_spectrum.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_parameters_rate_and_size_never_share_an_entry(self):
        # the first two clips differ only in length, so in FFT size; the
        # third is at another rate
        clips = [
            AudioBuffer(np.sin(np.arange(frames) / 7.0) * 0.5, rate)
            for frames, rate in [(RATE // 2, RATE), (RATE, RATE), (8000 // 2, 8000)]
        ]
        calls = [(clip, *params) for clip in clips for params in self.PARAMS]
        for clip, intensity, duration_s, seed in calls:
            compound.reverb(clip, intensity, duration_s, seed)
        info = compound._impulse_spectrum.cache_info()
        assert (info.hits, info.misses) == (0, len(calls))
        # back in the other order, past evictions, every output keeps its bytes
        for clip, intensity, duration_s, seed in reversed(calls):
            got = compound.reverb(clip, intensity, duration_s, seed)
            want = plain_reverb(clip, intensity, duration_s, seed)
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_cached_spectrum_is_read_only(self, tone_440):
        compound.reverb(tone_440, 0.3, 0.2, seed=9)
        spectrum = compound._impulse_spectrum(0.3, 0.2, 9, RATE, 32768)
        assert compound._impulse_spectrum.cache_info().hits == 1
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    @pytest.mark.parametrize(
        "seed", [[1, 2], [[1, 2], [3]], np.array([1, 2])], ids=["list", "nested", "array"]
    )
    def test_unhashable_seed_keeps_the_bytes(self, tone_440, seed):
        got = compound.reverb(tone_440, 0.3, 0.2, seed=seed)
        assert got.samples.tobytes() == plain_reverb(tone_440, 0.3, 0.2, seed).samples.tobytes()

    def test_unseeded_reverb_draws_fresh_noise(self, tone_440):
        a = compound.reverb(tone_440, 0.3, 0.2, seed=None)
        b = compound.reverb(tone_440, 0.3, 0.2, seed=None)
        assert a.samples.tobytes() != b.samples.tobytes()


# The recurrences as sample-by-sample numpy-scalar loops, kept as references.
# The gain ballistics run on blocked Python floats in the same order, so
# they match their loop bit for bit. The level detector and the low-pass run
# as a log-step scan, whose sums group differently: they match their loops
# within 1e-12 of the input's peak and give the same 16-bit samples.


def loop_one_pole(values: np.ndarray, coeff: float) -> np.ndarray:
    out = np.empty_like(values)
    state = values[0]
    for i, v in enumerate(values):
        state = coeff * state + (1.0 - coeff) * v
        out[i] = state
    return out


def loop_smooth_gain(gain_db: np.ndarray, rate: int) -> np.ndarray:
    a_attack = math.exp(-1.0 / (rate * compound._ATTACK_S))
    a_release = math.exp(-1.0 / (rate * compound._RELEASE_S))
    out = np.empty_like(gain_db)
    state = 0.0
    for i, g in enumerate(gain_db):
        coeff = a_attack if g < state else a_release
        state = coeff * state + (1.0 - coeff) * g
        out[i] = state
    return out


def loop_one_pole_lowpass(samples: np.ndarray, cutoff_hz: float, rate: int) -> np.ndarray:
    beta = 1.0 - math.exp(-2.0 * math.pi * cutoff_hz / rate)
    out = np.empty_like(samples)
    for ch in range(samples.shape[0]):
        state = 0.0
        row = samples[ch]
        dst = out[ch]
        for i in range(row.shape[0]):
            state += beta * (row[i] - state)
            dst[i] = state
    return out


def _loop_references():
    """Patch the loop references in, so compress and bass_boost compute the
    outputs of the sample-by-sample loops."""
    return mock.patch.multiple(
        compound,
        _one_pole=loop_one_pole,
        _smooth_gain=loop_smooth_gain,
        _one_pole_lowpass=loop_one_pole_lowpass,
    )


def assert_scan_matches(got: np.ndarray, want: np.ndarray, inputs: np.ndarray) -> None:
    """``got`` differs from ``want`` by at most 1e-12 of the peak of
    ``inputs``, and both give the same 16-bit samples. A scan's rounding
    error scales with the input's peak, not with each output, which can
    cancel to near zero; below the smallest normal float, where float64
    steps are absolute, any difference passes."""
    peak = float(np.max(np.abs(inputs), initial=0.0))
    atol = max(1e-12 * peak, np.finfo(np.float64).tiny)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
    assert np.array_equal(quantize_int16(got), quantize_int16(want))


# block sizes of the gain ballistics: every sample its own block, a small
# odd block, the default
_BLOCKS = [1, 3, compound._BLOCK]
_COEFFS = [0.0, 0.5, math.exp(-1.0 / 160.0), math.exp(-1.0 / 441.0), 1.0 - 1e-9]
# peak scales of the drawn signals: all zero, subnormal, quiet, loud
_SCALES = [0.0, 1e-310, 1e-6, 0.1, 1.0]


@st.composite
def _lengths(draw, block):
    # 1..3 blocks, biased to lengths at and next to block boundaries
    edge = draw(st.integers(1, 3)) * block + draw(st.integers(-1, 1))
    return draw(st.sampled_from([max(1, edge), draw(st.integers(1, 3 * block))]))


@st.composite
def _scan_lengths(draw):
    # biased to lengths at and next to the powers of two where a scan pass
    # starts to reach the first sample
    edge = 2 ** draw(st.integers(0, 13)) + draw(st.integers(-1, 1))
    return draw(st.sampled_from([max(1, edge), draw(st.integers(1, 3 * compound._BLOCK))]))


@st.composite
def _signal(draw, channels=1):
    n = draw(_scan_lengths())
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from(_SCALES))
    rng = np.random.default_rng(seed)
    return np.clip(rng.standard_normal((channels, n)) * scale, -1.0, 1.0)


@st.composite
def _gain_runs(draw, block):
    """Gain in dB as up to 8 runs: zero runs (released) of either sign,
    negative runs (compressing), subnormal negative runs and positive runs,
    some with per-sample jitter, so the attack/release switch flips often
    and in both directions. Some draws add a zero run after each positive
    run, where the state decays on the attack branch."""
    n = draw(_lengths(block))
    level = st.one_of(
        st.just(0.0),
        st.just(-0.0),
        st.floats(-40.0, 40.0, allow_nan=False),
        st.floats(-np.finfo(np.float64).tiny, -5e-324),
    )
    levels = draw(st.lists(level, min_size=1, max_size=8))
    if draw(st.booleans()):
        levels = [v for lv in levels for v in ((lv, 0.0) if lv > 0.0 else (lv,))]
    runs = len(levels)
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=runs - 1, max_size=runs - 1)))
    gain_db = np.repeat(levels, np.diff([0, *cuts, n])).astype(np.float64)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # in place where nonzero, so zero runs keep their sign
        np.add(gain_db, rng.standard_normal(n), out=gain_db, where=gain_db != 0.0)
    return gain_db


class TestRecurrencesMatchLoops:
    @given(data=st.data())
    @settings(max_examples=75, deadline=None)
    def test_one_pole(self, data):
        values = data.draw(_signal())[0]
        coeff = data.draw(st.one_of(st.sampled_from(_COEFFS), st.floats(0.0, 1.0)))
        assert_scan_matches(compound._one_pole(values, coeff), loop_one_pole(values, coeff), values)

    @pytest.mark.parametrize("block", _BLOCKS)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_smooth_gain(self, block, data):
        gain_db = data.draw(_gain_runs(block))
        # 1: every zero-gain run, however short, takes the numpy path
        min_zero_run = data.draw(st.sampled_from([1, compound._MIN_ZERO_RUN]))
        # at 1 and 10 Hz a constant is under 1/2, so a decaying state
        # underflows to a signed zero inside a zero-gain run
        rate = data.draw(st.sampled_from([1, 10, 8000, 16000, 44100]))
        with mock.patch.multiple(compound, _BLOCK=block, _MIN_ZERO_RUN=min_zero_run):
            got = compound._smooth_gain(gain_db, rate)
        assert got.tobytes() == loop_smooth_gain(gain_db, rate).tobytes()

    @pytest.mark.parametrize("rate", [1, 10])
    @pytest.mark.parametrize(
        "zeros",
        [(-0.0,), (0.0,), (-0.0, 0.0, -0.0), (0.0, -0.0)],
        ids=["negative", "positive", "negative-positive-negative", "positive-negative"],
    )
    def test_smooth_gain_signed_zero_runs(self, rate, zeros):
        # a compressing run decays to -0.0 over the zero runs that follow;
        # the first +0.0 gain turns the state to +0.0 for good
        gain_db = np.concatenate([np.full(40, -3.0), *[np.full(1000, z) for z in zeros]])
        with mock.patch.object(compound, "_MIN_ZERO_RUN", 1):
            got = compound._smooth_gain(gain_db, rate)
        want = loop_smooth_gain(gain_db, rate)
        assert want[-1] == 0.0
        assert got.tobytes() == want.tobytes()

    @given(data=st.data())
    @settings(max_examples=75, deadline=None)
    def test_one_pole_lowpass(self, data):
        samples = data.draw(_signal(channels=data.draw(st.integers(1, 2))))
        cutoff = data.draw(st.floats(20.0, 400.0))
        rate = data.draw(st.sampled_from([8000, 16000, 44100]))
        assert_scan_matches(
            compound._one_pole_lowpass(samples, cutoff, rate),
            loop_one_pole_lowpass(samples, cutoff, rate),
            samples,
        )

    @pytest.mark.parametrize("frames", [1, 2, 4097])
    @pytest.mark.parametrize("scale", [0.0, 1e-310, 1.0], ids=["zeros", "subnormal", "full-scale"])
    @pytest.mark.parametrize("coeff", [0.0, 1.0 - 1e-9], ids=["memoryless", "near-one"])
    def test_one_pole_edges(self, frames, scale, coeff):
        values = np.clip(np.random.default_rng(frames).standard_normal(frames) * scale, -1.0, 1.0)
        assert_scan_matches(compound._one_pole(values, coeff), loop_one_pole(values, coeff), values)

    # (cutoff_hz, rate): at 1 Hz a 400 Hz cutoff gives beta 1, so the
    # feedback 1 - beta is 0; at this rate a 20 Hz cutoff gives 1 - 1e-9
    @pytest.mark.parametrize("frames", [1, 2, 4097])
    @pytest.mark.parametrize("scale", [0.0, 1e-310, 1.0], ids=["zeros", "subnormal", "full-scale"])
    @pytest.mark.parametrize(
        "cutoff, rate", [(400.0, 1), (20.0, 125_663_706_144)], ids=["memoryless", "near-one"]
    )
    def test_one_pole_lowpass_edges_stereo(self, frames, scale, cutoff, rate):
        rng = np.random.default_rng(frames)
        samples = np.clip(rng.standard_normal((2, frames)) * scale, -1.0, 1.0)
        assert_scan_matches(
            compound._one_pole_lowpass(samples, cutoff, rate),
            loop_one_pole_lowpass(samples, cutoff, rate),
            samples,
        )


def _syllabic(channels, duration_s, seed):
    """Speech-like test signal: noise under a 2-4 Hz syllabic envelope that
    crosses a -20 dBFS threshold in both directions, with silent gaps."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * RATE)
    t = np.arange(n) / RATE
    envelope = np.maximum(0.0, np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * t))
    return AudioBuffer(np.clip(0.5 * envelope * rng.standard_normal((channels, n)), -1, 1), RATE)


class TestEffectsMatchLoops:
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize(
        "threshold_db, ratio", [(-20.0, 4.0), (-40.0, 1.0), (-6.0, 20.0)]
    )
    def test_compress(self, channels, threshold_db, ratio):
        buf = _syllabic(channels, 1.5, seed=channels)
        with _loop_references():
            want = compound.compress(buf, threshold_db, ratio)
        got = compound.compress(buf, threshold_db, ratio)
        assert_scan_matches(got.samples, want.samples, buf.samples)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("cutoff_hz, gain_db", [(150.0, 6.0), (20.0, -40.0), (400.0, 40.0)])
    def test_bass_boost(self, channels, cutoff_hz, gain_db):
        buf = _syllabic(channels, 1.5, seed=10 + channels)
        with _loop_references():
            want = compound.bass_boost(buf, cutoff_hz, gain_db)
        got = compound.bass_boost(buf, cutoff_hz, gain_db)
        assert_scan_matches(got.samples, want.samples, buf.samples)

    @pytest.mark.parametrize("block", [1, 3])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_short_clips_any_block(self, block, data):
        channels = data.draw(st.integers(1, 2))
        frames = data.draw(st.integers(1, 40))
        sample = st.floats(-1.0, 1.0, allow_nan=False, width=64)
        samples = data.draw(st.lists(sample, min_size=channels * frames, max_size=channels * frames))
        buf = AudioBuffer(np.reshape(samples, (channels, frames)), RATE)
        with _loop_references():
            want = (compound.compress(buf, -20.0, 4.0), compound.bass_boost(buf, 150.0, 6.0))
        with mock.patch.object(compound, "_BLOCK", block):
            got = (compound.compress(buf, -20.0, 4.0), compound.bass_boost(buf, 150.0, 6.0))
        for g, w in zip(got, want):
            assert_scan_matches(g.samples, w.samples, buf.samples)


class _AnswersInsult(ModerationBackend):
    """Calls every clip an insult, from its digest alone."""

    name = "insult"

    def moderate(self, audio, digest):
        return Verdict(Category.INSULT, 0.5)


def test_campaign_recorded_with_loops_replays_with_scans(tmp_path):
    """A campaign recorded with the loop references patched in, on three
    six-second desk seeds (one stereo) under compress and bass_boost,
    replays with the scans: every recorded digest is regenerated, and the
    reports are the recorded bytes, on pool threads and in worker
    processes."""
    clips = [clip.channel(0) for _, _, clip in synth_seeds(100)]
    joined = [np.concatenate([clips[(5 * i + j) % len(clips)] for j in range(6)]) for i in range(3)]
    seeds = []
    for i, samples in enumerate([joined[0], joined[1], np.stack(joined[1:])]):
        write_wav(AudioBuffer(samples, RATE), tmp_path / f"long_{i}.wav")
        seeds.append({"id": f"long_{i}", "path": f"long_{i}.wav", "category": "insult"})
    config = CampaignConfig.from_dict(
        {
            "seeds": seeds,
            "mrs": [
                {"kind": "compress", "params": {"threshold_db": -20.0, "ratio": 4.0}},
                {"kind": "compress", "params": {"threshold_db": -40.0, "ratio": 1.0}},
                {"kind": "compress", "params": {"threshold_db": -6.0, "ratio": 20.0}},
                {"kind": "bass_boost", "params": {"cutoff_hz": 150.0, "gain_db": 6.0}},
                {"kind": "bass_boost", "params": {"cutoff_hz": 20.0, "gain_db": -40.0}},
                {"kind": "bass_boost", "params": {"cutoff_hz": 400.0, "gain_db": 40.0}},
            ],
            "backends": [{"kind": "fixture", "name": "insult", "path": "unused"}],
            "output_dir": "recorded",
            "workers": 1,
        },
        base_dir=tmp_path,
    )
    with _loop_references():
        recorded = run_campaign(config, backends=[_AnswersInsult()])
    cases = json.loads(recorded.manifest.read_text(encoding="utf-8"))["cases"]
    assert len({case["digest"] for case in cases}) == len(cases) == 18
    for workers in (1, 4):
        replayed = replay_campaign(recorded.manifest, tmp_path / f"replay{workers}", workers=workers)
        assert json.loads(replayed.manifest.read_text(encoding="utf-8"))["cases"] == cases
        for name in ("report.json", "report.csv"):
            assert (replayed.output_dir / name).read_bytes() == (recorded.output_dir / name).read_bytes()
