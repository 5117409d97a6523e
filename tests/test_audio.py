"""Audio core: buffer invariants, WAV round trips, and measurement oracles."""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from audiomorph.audio import (
    AudioBuffer,
    QUANTIZATION_STEP,
    content_digest,
    quantize_int16,
    read_wav,
    write_wav,
)
from audiomorph.errors import (
    DomainError,
    ParameterError,
    UnsupportedCodecError,
    WavFormatError,
)
from .conftest import sine, stereo_sine
from .oracles import dominant_frequency, measure_snr, rms, spectrum


class TestAudioBuffer:
    def test_mono_1d_promoted_to_2d(self):
        buf = AudioBuffer(np.zeros(10), 16000)
        assert buf.samples.shape == (1, 10)
        assert buf.channels == 1 and buf.frames == 10

    def test_duration(self):
        assert AudioBuffer(np.zeros(8000), 16000).duration == pytest.approx(0.5)

    def test_immutable(self):
        buf = AudioBuffer(np.zeros(4), 16000)
        with pytest.raises((ValueError, RuntimeError)):
            buf.samples[0, 0] = 1.0

    def test_source_array_mutation_does_not_leak(self):
        src = np.zeros(4)
        buf = AudioBuffer(src, 16000)
        src[0] = 0.9
        # the buffer either copied or froze the source; its values must not
        # silently drift past validation
        assert buf.samples[0, 0] in (0.0, 0.9)
        if buf.samples[0, 0] == 0.9:
            assert not buf.samples.flags.writeable

    @pytest.mark.parametrize("bad", [np.full(4, 1.5), np.full(4, -2.0), np.array([np.nan])])
    def test_rejects_out_of_range_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            AudioBuffer(bad, 16000)

    def test_rejects_three_channels(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((3, 10)), 16000)

    @pytest.mark.parametrize("rate", [0, -1, 44100.5])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), rate)


class TestWavIO:
    def test_16bit_full_scale_normalization(self, tmp_path):
        # 32767 decodes to 32767/32768, just under full scale
        path = tmp_path / "fs.wav"
        write_wav(AudioBuffer(np.array([32767 / 32768.0]), 16000), path)
        buf = read_wav(path)
        assert buf.samples[0, 0] == pytest.approx(0.99997, abs=1e-5)

    def test_round_trip_within_one_step(self, tmp_path, tone_440):
        path = tmp_path / "t.wav"
        write_wav(tone_440, path)
        back = read_wav(path)
        assert back.sample_rate == tone_440.sample_rate
        assert back.samples.shape == tone_440.samples.shape
        assert np.max(np.abs(back.samples - tone_440.samples)) <= QUANTIZATION_STEP

    def test_round_trip_stereo(self, tmp_path):
        buf = stereo_sine(300.0, 700.0, duration_s=0.25)
        path = tmp_path / "s.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert back.channels == 2
        assert np.max(np.abs(back.samples - buf.samples)) <= QUANTIZATION_STEP

    def test_positive_full_scale_clamps_to_32767(self):
        assert quantize_int16(np.array([1.0]))[0] == 32767
        assert quantize_int16(np.array([-1.0]))[0] == -32768

    def test_read_8bit(self, tmp_path):
        # unsigned 8-bit: 128 is zero, 255 is (255-128)/128
        payload = bytes([128, 255, 0])
        path = tmp_path / "u8.wav"
        path.write_bytes(_wav_blob(fmt=1, channels=1, rate=8000, bits=8, payload=payload))
        buf = read_wav(path)
        assert buf.samples[0].tolist() == pytest.approx([0.0, 127 / 128, -1.0])

    def test_read_24bit(self, tmp_path):
        # max positive 24-bit value and -2^23
        payload = b"\xff\xff\x7f" + b"\x00\x00\x80"
        path = tmp_path / "i24.wav"
        path.write_bytes(_wav_blob(fmt=1, channels=1, rate=8000, bits=24, payload=payload))
        buf = read_wav(path)
        assert buf.samples[0].tolist() == pytest.approx([(2**23 - 1) / 2**23, -1.0])

    def test_read_float32(self, tmp_path):
        payload = struct.pack("<4f", 0.5, -0.25, 1.5, -2.0)  # out-of-range floats clamp
        path = tmp_path / "f32.wav"
        path.write_bytes(_wav_blob(fmt=3, channels=1, rate=8000, bits=32, payload=payload))
        buf = read_wav(path)
        assert buf.samples[0].tolist() == pytest.approx([0.5, -0.25, 1.0, -1.0])

    def test_malformed_header_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        blob = _wav_blob(fmt=1, channels=1, rate=8000, bits=16, payload=b"\x00" * 64)
        path = tmp_path / "trunc.wav"
        path.write_bytes(blob[:-32])
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_compressed_encoding_raises_codec_error(self, tmp_path):
        # format tag 6 is A-law
        path = tmp_path / "alaw.wav"
        path.write_bytes(_wav_blob(fmt=6, channels=1, rate=8000, bits=8, payload=b"\x00" * 8))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_codec_error_is_a_format_error(self):
        assert issubclass(UnsupportedCodecError, WavFormatError)


def reference_quantize_int16(samples):
    """quantize_int16 as it was before it worked in place: the reference
    its bytes are held to."""
    scaled = np.round(np.asarray(samples, dtype=np.float64) * 32768.0)
    return np.clip(scaled, -32768, 32767).astype("<i2")


_TIES = np.array([(k + 0.5) / 32768.0 for k in (-32768, -32767, -2, -1, 0, 1, 2, 32766)])


class TestQuantizeMatchesReference:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([1.0, -1.0]),
            _TIES,
            -_TIES,
            np.array([-0.0, 0.0]),
            np.array([np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]),
            np.array([0.5 / 32768.0, -0.5 / 32768.0, 1.5 / 32768.0, -1.5 / 32768.0]),
        ],
        ids=["full-scale", "ties", "negative-ties", "signed-zero", "inside-full-scale", "half-lsb"],
    )
    def test_edge_values(self, values):
        got = quantize_int16(values)
        assert got.dtype == np.dtype("<i2")
        assert got.tobytes() == reference_quantize_int16(values).tobytes()

    def test_random_stereo_interleaved(self):
        rng = np.random.default_rng(5)
        samples = np.clip(rng.standard_normal((2, 11025)) * 0.5, -1.0, 1.0)
        # wav_bytes and content_digest quantize the transposed view
        got = quantize_int16(samples.T)
        want = reference_quantize_int16(samples.T)
        assert got.shape == want.shape == (11025, 2)
        assert got.tobytes(order="C") == want.tobytes(order="C")

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_non_float64_input(self, dtype):
        values = np.concatenate([_TIES, np.linspace(-1.0, 1.0, 1001)]).astype(dtype)
        assert quantize_int16(values).tobytes() == reference_quantize_int16(values).tobytes()

    def test_list_input(self):
        values = [0.25, -0.75, 1.0, -1.0, 0.5 / 32768.0]
        assert quantize_int16(values).tobytes() == reference_quantize_int16(values).tobytes()


def _wav_blob(fmt, channels, rate, bits, payload):
    block_align = channels * (bits // 8)
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt,
        channels,
        rate,
        rate * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    ) + payload


class TestRms:
    def test_constant_half(self):
        assert rms(AudioBuffer(np.full(1000, 0.5), 16000))[0] == pytest.approx(0.5)

    def test_unit_sine_inv_sqrt2(self):
        buf = sine(440.0, amplitude=1.0)
        assert rms(buf)[0] == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_per_channel(self):
        buf = AudioBuffer(np.stack([np.full(100, 0.5), np.zeros(100)]), 16000)
        values = rms(buf)
        assert values.shape == (2,)
        assert values[0] == pytest.approx(0.5) and values[1] == 0.0

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            rms(AudioBuffer(np.zeros((1, 0)), 16000))


class TestSpectrum:
    def test_dominant_440(self):
        # 16 kHz / 16384 bins = 0.9766 Hz resolution
        buf = sine(440.0, duration_s=1.024)
        assert dominant_frequency(buf, 16384) == pytest.approx(440.0, abs=16000 / 16384)

    def test_dominant_880(self):
        buf = sine(880.0, duration_s=1.024)
        assert dominant_frequency(buf, 16384) == pytest.approx(880.0, abs=16000 / 16384)

    def test_dc_reports_zero(self):
        buf = AudioBuffer(np.full(4096, 0.5), 16000)
        assert dominant_frequency(buf, 4096) == 0.0

    def test_resolution_and_grid(self, tone_440):
        spec = spectrum(tone_440, 1024)
        assert spec.resolution == pytest.approx(16000 / 1024)
        assert len(spec.bin_frequencies) == len(spec.magnitudes) == 513
        assert spec.bin_frequencies[1] == pytest.approx(spec.resolution)

    def test_short_buffer_raises(self):
        with pytest.raises(DomainError):
            spectrum(AudioBuffer(np.zeros(100), 16000), 1024)

    def test_non_power_of_two_raises(self, tone_440):
        with pytest.raises(ParameterError):
            spectrum(tone_440, 1000)

    def test_stereo_uses_mono_mixdown(self):
        # left-only content must still be visible in the spectrum
        n = 4096
        t = np.arange(n) / 16000
        left = 0.5 * np.sin(2 * np.pi * 1000 * t)
        buf = AudioBuffer(np.stack([left, np.zeros(n)]), 16000)
        assert dominant_frequency(buf, 4096) == pytest.approx(1000.0, abs=16000 / 4096)


class TestMeasureSnr:
    def test_identical_inputs_infinite(self, tone_440):
        assert measure_snr(tone_440, tone_440) == math.inf

    def test_known_ratio(self):
        rng = np.random.default_rng(7)
        signal = sine(440.0, amplitude=0.5)
        noise = rng.normal(0.0, 1.0, signal.frames)
        noise *= (rms(signal)[0] / np.sqrt(np.mean(noise**2))) / 10 ** (20 / 20)
        noisy = AudioBuffer(np.clip(signal.samples[0] + noise, -1, 1), signal.sample_rate)
        assert measure_snr(signal, noisy) == pytest.approx(20.0, abs=0.05)

    def test_shape_mismatch_raises(self, tone_440):
        other = sine(440.0, duration_s=0.5)
        with pytest.raises(DomainError):
            measure_snr(tone_440, other)

    def test_definition_matches_formula(self):
        signal = sine(200.0, duration_s=0.1)
        shifted = AudioBuffer(np.clip(signal.samples + 0.01, -1, 1), signal.sample_rate)
        expected = 20 * math.log10(
            np.sqrt(np.mean(signal.samples**2)) / np.sqrt(np.mean((shifted.samples - signal.samples) ** 2))
        )
        assert measure_snr(signal, shifted) == pytest.approx(expected)


class TestContentDigest:
    def test_stable_and_sensitive(self, tone_440):
        assert content_digest(tone_440) == content_digest(sine(440.0))
        assert content_digest(tone_440) != content_digest(sine(441.0))
        assert len(content_digest(tone_440)) == 64

    def test_rate_changes_digest(self):
        a = AudioBuffer(np.zeros(100), 16000)
        b = AudioBuffer(np.zeros(100), 8000)
        assert content_digest(a) != content_digest(b)

    def test_matches_file_payload(self, tmp_path, tone_440):
        # the digest keys the same PCM bytes that land in the file
        path = tmp_path / "d.wav"
        write_wav(tone_440, path)
        assert content_digest(read_wav(path)) == content_digest(tone_440)


@st.composite
def buffers(draw, max_frames=500):
    channels = draw(st.integers(1, 2))
    frames = draw(st.integers(1, max_frames))
    data = draw(
        hnp.arrays(
            np.float64,
            (channels, frames),
            elements=st.floats(-1.0, 1.0, allow_nan=False, width=64),
        )
    )
    rate = draw(st.sampled_from([8000, 16000, 44100]))
    return AudioBuffer(data, rate)


class TestProperties:
    @given(buffers())
    @settings(max_examples=50, deadline=None)
    def test_wav_round_trip_bounded_error(self, buf):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.wav")
            write_wav(buf, path)
            back = read_wav(path)
        assert back.samples.shape == buf.samples.shape
        assert np.max(np.abs(back.samples - buf.samples)) <= QUANTIZATION_STEP

    @given(buffers(), st.floats(0.1, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_rms_scales_linearly(self, buf, scale):
        scaled = AudioBuffer(buf.samples * scale, buf.sample_rate)
        assert np.allclose(rms(scaled), rms(buf) * scale, atol=1e-12)

    @given(buffers())
    @settings(max_examples=50, deadline=None)
    def test_quantize_matches_reference(self, buf):
        got = quantize_int16(buf.samples.T).tobytes(order="C")
        assert got == reference_quantize_int16(buf.samples.T).tobytes(order="C")

    @given(buffers())
    @settings(max_examples=50, deadline=None)
    def test_digest_deterministic(self, buf):
        assert content_digest(buf) == content_digest(AudioBuffer(buf.samples.copy(), buf.sample_rate))
