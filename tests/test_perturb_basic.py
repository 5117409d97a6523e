"""Basic perturbations: contract examples plus property checks."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomorph.audio import AudioBuffer
from audiomorph.errors import DomainError, ParameterError
from audiomorph.perturb import basic
from audiomorph.perturb import OPS, Perturbation
from .conftest import envelope_period_s, sine, stereo_sine
from .oracles import dominant_frequency, measure_snr, rms
from .test_golden_digests import RELATIONS, TRANSCRIPT

RATE = 16000


def impulse(at_s=0.0, duration_s=1.0, rate=RATE, amplitude=1.0):
    data = np.zeros(int(duration_s * rate))
    data[int(round(at_s * rate))] = amplitude
    return AudioBuffer(data, rate)


class TestTimeStretch:
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_duration_scales(self, tone_440, factor):
        out = basic.time_stretch(tone_440, factor)
        assert out.duration == pytest.approx(tone_440.duration * factor, rel=0.02)
        assert out.sample_rate == tone_440.sample_rate

    def test_factor_one_is_exact_identity(self, tone_440):
        out = basic.time_stretch(tone_440, 1.0)
        assert np.array_equal(out.samples, tone_440.samples)

    @pytest.mark.parametrize("factor", [0.5, 1.5, 2.0])
    def test_pitch_preserved(self, factor):
        buf = sine(440.0, duration_s=2.5)
        out = basic.time_stretch(buf, factor)
        assert dominant_frequency(out, 16384) == pytest.approx(440.0, abs=5.0)

    @pytest.mark.parametrize("factor", [0.1, 4.5, -1.0, 0.0])
    def test_out_of_range_rejected(self, tone_440, factor):
        with pytest.raises(ParameterError):
            basic.time_stretch(tone_440, factor)

    def test_round_trip_duration(self, tone_440):
        out = basic.time_stretch(basic.time_stretch(tone_440, 2.0), 0.5)
        assert out.duration == pytest.approx(tone_440.duration, rel=0.04)

    def test_stereo_preserves_channels(self):
        buf = stereo_sine(300.0, 700.0)
        assert basic.time_stretch(buf, 1.5).channels == 2

    def test_short_clip_duration_contract_still_holds(self):
        buf = sine(440.0, duration_s=0.04)  # under one analysis window
        out = basic.time_stretch(buf, 2.0)
        assert out.frames == pytest.approx(2 * buf.frames, abs=1)

    @pytest.mark.parametrize("rate", [10, 20, 29])
    def test_window_under_two_samples_interpolates(self, rate):
        # a 50 ms window rounds to 0 or 1 samples: no hop to step by
        buf = AudioBuffer(np.full(10 * rate, 0.1), rate)
        out = basic.time_stretch(buf, 1.5)
        assert out.frames == 15 * rate


class TestTimeShift:
    def test_impulse_moves(self):
        out = basic.time_shift(impulse(0.0), 0.25)
        expected = int(0.25 * RATE)
        assert out.samples[0, expected] == 1.0
        assert np.count_nonzero(out.samples) == 1
        assert out.frames == RATE

    def test_negative_shift(self):
        out = basic.time_shift(impulse(0.5), -0.25)
        assert out.samples[0, int(0.25 * RATE)] == 1.0

    def test_zero_identity(self, tone_440):
        assert np.array_equal(basic.time_shift(tone_440, 0.0).samples, tone_440.samples)

    def test_energy_equals_retained_region(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.uniform(-0.9, 0.9, 4000), RATE)
        delta = 0.1
        out = basic.time_shift(buf, delta)
        retained = buf.samples[:, : buf.frames - int(delta * RATE)]
        assert np.sum(out.samples**2) == pytest.approx(np.sum(retained**2))

    @pytest.mark.parametrize("delta", [1.0, -1.0, 2.0])
    def test_shift_past_duration_rejected(self, tone_440, delta):
        with pytest.raises(ParameterError):
            basic.time_shift(tone_440, delta)


class TestPan:
    def test_hard_left_silences_right(self, tone_440):
        out = basic.pan(tone_440, -1.0)
        assert out.channels == 2
        assert rms(out)[1] < 1e-9

    def test_center_balances_channels(self, tone_440):
        out = basic.pan(tone_440, 0.0)
        left, right = rms(out)
        assert abs(left - right) / left < 1e-9

    def test_half_right_ratio(self, tone_440):
        out = basic.pan(tone_440, 0.5)
        left, right = rms(out)
        assert right / left == pytest.approx(math.tan(3 * math.pi / 8), rel=0.01)

    @pytest.mark.parametrize("position", [-1.0, -0.5, 0.0, 0.3, 1.0])
    def test_power_preserved(self, tone_440, position):
        out = basic.pan(tone_440, position)
        power_in = np.mean(tone_440.samples**2)
        power_out = np.mean(out.samples**2) * 2  # stereo pool: L^2+R^2 per frame
        assert abs(10 * math.log10(power_out / power_in)) < 0.5

    def test_out_of_range_rejected(self, tone_440):
        with pytest.raises(ParameterError):
            basic.pan(tone_440, 1.5)

    def test_dual_mono_stereo_input_keeps_power(self):
        mono = sine(440.0)
        dual = AudioBuffer(np.vstack([mono.samples, mono.samples]), RATE)
        out = basic.pan(dual, 0.0)
        assert np.sum(out.samples**2) == pytest.approx(np.sum(mono.samples**2), rel=1e-9)


class TestSurround:
    def test_envelope_period_one_second(self):
        buf = AudioBuffer(np.full(3 * RATE, 0.5), RATE)
        out = basic.surround(buf, 1.0)
        period = envelope_period_s(out.samples[0], RATE, max_lag_s=2.5)
        assert period == pytest.approx(1.0, rel=0.05)

    def test_silence_in_silence_out(self):
        buf = AudioBuffer(np.zeros(RATE), RATE)
        out = basic.surround(buf, 2.0)
        assert not np.any(out.samples)

    def test_framewise_power_preserved(self, tone_440):
        out = basic.surround(tone_440, 1.0)
        per_frame_in = tone_440.samples[0] ** 2
        per_frame_out = out.samples[0] ** 2 + out.samples[1] ** 2
        np.testing.assert_allclose(per_frame_out, per_frame_in, atol=1e-12)

    @pytest.mark.parametrize("rotation", [0.0, -1.0, 5.1])
    def test_out_of_range_rejected(self, tone_440, rotation):
        with pytest.raises(ParameterError):
            basic.surround(tone_440, rotation)


class TestPitchShift:
    def test_up_octave(self):
        buf = sine(440.0, duration_s=1.5)
        out = basic.pitch_shift(buf, 12.0)
        assert dominant_frequency(out, 16384) == pytest.approx(880.0, abs=RATE / 16384 + 4.0)
        assert out.duration == pytest.approx(buf.duration, rel=0.02)

    def test_down_octave(self):
        buf = sine(440.0, duration_s=1.5)
        out = basic.pitch_shift(buf, -12.0)
        assert dominant_frequency(out, 16384) == pytest.approx(220.0, abs=RATE / 16384 + 2.0)
        assert out.duration == pytest.approx(buf.duration, rel=0.02)

    def test_zero_identity(self, tone_440):
        assert np.array_equal(basic.pitch_shift(tone_440, 0).samples, tone_440.samples)

    def test_out_of_range_rejected(self, tone_440):
        with pytest.raises(ParameterError):
            basic.pitch_shift(tone_440, 12.5)


class TestInjectNoise:
    @pytest.mark.parametrize("target", [6.0, 12.0, 20.0])
    def test_measured_snr(self, target):
        buf = sine(440.0, amplitude=0.4)
        out = basic.inject_noise(buf, target, seed=11)
        assert measure_snr(buf, out) == pytest.approx(target, abs=1.0)

    def test_noise_rms_ratio_is_exact(self):
        buf = sine(440.0, amplitude=0.5)
        out = basic.inject_noise(buf, 20.0, seed=5)
        noise_rms = np.sqrt(np.mean((out.samples - buf.samples) ** 2))
        signal_rms = np.sqrt(np.mean(buf.samples**2))
        assert noise_rms / signal_rms == pytest.approx(0.1, rel=1e-9)

    def test_seed_determinism(self, tone_440):
        a = basic.inject_noise(tone_440, 12.0, seed=42)
        b = basic.inject_noise(tone_440, 12.0, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_distinct_seeds_differ(self, tone_440):
        a = basic.inject_noise(tone_440, 12.0, seed=1)
        b = basic.inject_noise(tone_440, 12.0, seed=2)
        assert np.max(np.abs(a.samples - b.samples)) > 0

    def test_silent_input_rejected(self):
        with pytest.raises(DomainError):
            basic.inject_noise(AudioBuffer(np.zeros(1000), RATE), 12.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_rejected(self, tone_440, seed):
        with pytest.raises(ParameterError, match="seed"):
            basic.inject_noise(tone_440, 12.0, seed=seed)


class TestRepeatSegment:
    def test_length_arithmetic(self):
        buf = sine(440.0, duration_s=2.0)
        out = basic.repeat_segment(buf, 0.5, 1.0, count=1)
        assert out.duration == pytest.approx(2.5)

    def test_repeated_region_identical(self):
        rng = np.random.default_rng(9)
        buf = AudioBuffer(rng.uniform(-0.9, 0.9, 2 * RATE), RATE)
        out = basic.repeat_segment(buf, 0.25, 0.5, count=2)
        i0, i1 = int(0.25 * RATE), int(0.5 * RATE)
        seg = buf.samples[:, i0:i1]
        width = i1 - i0
        for k in range(3):  # original + 2 copies
            got = out.samples[:, i0 + k * width : i0 + (k + 1) * width]
            assert np.array_equal(got, seg)

    def test_outside_span_unchanged(self):
        rng = np.random.default_rng(10)
        buf = AudioBuffer(rng.uniform(-0.9, 0.9, 2 * RATE), RATE)
        out = basic.repeat_segment(buf, 0.25, 0.5, count=1)
        i1 = int(0.5 * RATE)
        width = int(0.25 * RATE)
        assert np.array_equal(out.samples[:, :i1], buf.samples[:, :i1])
        assert np.array_equal(out.samples[:, i1 + width :], buf.samples[:, i1:])

    @pytest.mark.parametrize("args", [(0.5, 0.5, 1), (0.5, 0.25, 1), (-0.1, 0.5, 1), (0.5, 3.0, 1), (0.1, 0.5, 0)])
    def test_invalid_rejected(self, tone_440, args):
        with pytest.raises(ParameterError):
            basic.repeat_segment(tone_440, *args)

    def test_growth_bounded_before_allocating(self):
        buf = sine(440.0, duration_s=0.1)
        tracemalloc.start()
        try:
            # count=10**9 would build a list of 10**9 references, then 16 TB of
            # audio; the small counts go first, so a missing bound fails on them
            for count in (101, 10**5, 10**9):
                with pytest.raises(ParameterError, match="count"):
                    basic.repeat_segment(buf, 0.0, 0.1, count=count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        out = basic.repeat_segment(buf, 0.0, 0.1, count=100)
        assert out.frames == buf.frames + int(basic.MAX_TAIL_S * RATE)

    def test_growth_bounded_by_the_frames_copied(self):
        # a 0.2-sample span rounds to one frame, so count * (end_s - start_s)
        # reads 10**11 copies as 1.25 s; the smaller count fails first
        buf = sine(440.0, duration_s=0.1)
        start_s, end_s = 0.4999999 / RATE, 0.5000001 / RATE
        for count in (int(basic.MAX_TAIL_S * RATE) + 1, 10**11):
            with pytest.raises(ParameterError, match="count"):
                basic.repeat_segment(buf, start_s, end_s, count=count)
        out = basic.repeat_segment(buf, start_s, end_s, count=int(basic.MAX_TAIL_S * RATE))
        assert out.frames == buf.frames + int(basic.MAX_TAIL_S * RATE)


class TestGain:
    def test_exact_doubling(self):
        buf = sine(440.0, amplitude=0.25)
        out = basic.gain(buf, 6.0206)
        assert rms(out)[0] / rms(buf)[0] == pytest.approx(2.0, rel=0.01)

    def test_zero_identity(self, tone_440):
        assert np.array_equal(basic.gain(tone_440, 0.0).samples, tone_440.samples)

    def test_clamp_policy(self):
        buf = AudioBuffer(np.full(100, 0.9), RATE)
        out = basic.gain(buf, 6.0)
        assert np.all(out.samples == 1.0)

    def test_out_of_range_rejected(self, tone_440):
        with pytest.raises(ParameterError):
            basic.gain(tone_440, 41.0)

    def test_argmax_invariant_without_clamping(self):
        rng = np.random.default_rng(21)
        buf = AudioBuffer(rng.uniform(-0.4, 0.4, 5000), RATE)
        out = basic.gain(buf, 6.0)
        assert np.argmax(np.abs(out.samples)) == np.argmax(np.abs(buf.samples))


class TestCrossCutting:
    @given(
        st.sampled_from(["time_stretch", "pitch_shift", "gain"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_rate_preserved_and_finite(self, kind, seed):
        rng = np.random.default_rng(seed)
        buf = AudioBuffer(rng.uniform(-0.8, 0.8, 2048), RATE)
        out = {
            "time_stretch": lambda: basic.time_stretch(buf, 1.3),
            "pitch_shift": lambda: basic.pitch_shift(buf, 3.0),
            "gain": lambda: basic.gain(buf, -3.0),
        }[kind]()
        assert out.sample_rate == RATE
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0


class TestNonFiniteParameters:
    # every float parameter of the golden table's in-range parameter sets
    CASES = [
        (relation, name)
        for relation in RELATIONS
        for name, value in relation.params.items()
        if isinstance(value, float)
    ]

    def test_every_kind_has_a_float_parameter(self):
        assert {relation.kind for relation, _ in self.CASES} == set(OPS)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize(
        "relation, name", CASES, ids=[f"{r.label}.{name}" for r, name in CASES]
    )
    def test_rejected_as_parameter_error(self, relation, name, value):
        bad = Perturbation(relation.kind, {**relation.params, name: value})
        with pytest.raises(ParameterError):
            bad.apply(sine(440.0), TRANSCRIPT)


def loop_time_stretch(x: AudioBuffer, factor: float) -> AudioBuffer:
    """time_stretch as it was before its hop loop stopped allocating,
    kept verbatim as the bit-identical reference."""
    if not 0.25 <= factor <= 4.0:
        raise ParameterError(f"stretch factor must be in [0.25, 4.0], got {factor}")
    if factor == 1.0:
        return x
    rate = x.sample_rate
    n = x.frames
    n_out = max(1, int(round(n * factor)))
    frame = int(round(basic._STRETCH_FRAME_S * rate))
    if n < 2 * frame or n_out < frame:
        resampled = basic._resample_linear(x.samples, n / n_out)
        return AudioBuffer(np.clip(resampled[:, :n_out], -1.0, 1.0), rate)

    window = np.hanning(frame)
    hop = frame // 2
    tol = int(round(basic._STRETCH_TOL_S * rate))
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
    return AudioBuffer(np.clip(out[:, :n_out], -1.0, 1.0), rate)


@st.composite
def _stretch_clips(draw):
    """Noise under a random envelope, mono or stereo, at 8, 16 or 44.1 kHz
    (where a 2205-sample frame makes three grains overlap), from under two
    frames long to 0.6 s, with silent stretches that may end the clip."""
    rate = draw(st.sampled_from([8000, 16000, 44100]))
    channels = draw(st.integers(1, 2))
    n = draw(st.integers(int(0.08 * rate), int(0.6 * rate)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    envelope = np.abs(np.sin(np.arange(n) * rng.uniform(1e-4, 1e-2)))
    samples = np.clip(0.5 * envelope * rng.standard_normal((channels, n)), -1.0, 1.0)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        samples[:, start : start + draw(st.integers(1, n))] = 0.0
    return AudioBuffer(samples, rate)


class TestStretchMatchesLoop:
    @given(x=_stretch_clips(), factor=st.floats(0.25, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_time_stretch(self, x, factor):
        got = basic.time_stretch(x, factor)
        assert got.samples.tobytes() == loop_time_stretch(x, factor).samples.tobytes()

    @given(x=_stretch_clips(), semitones=st.floats(-12.0, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_pitch_shift(self, x, semitones):
        got = basic.pitch_shift(x, semitones)
        with mock.patch.object(basic, "time_stretch", loop_time_stretch):
            want = basic.pitch_shift(x, semitones)
        assert got.samples.tobytes() == want.samples.tobytes()
