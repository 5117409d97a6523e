"""PCM audio representation, lossless 16-bit WAV I/O, and the content
digest that keys artifacts and fixtures.

Conventions
-----------
* Samples are double-precision reals in [-1, +1], shaped ``(channels, frames)``.
  All transforms operate on these pre-quantization values; quantization only
  happens when a buffer is written to disk.
* Out-of-range samples are hard-clamped (at write time and by gain-type
  operations), never auto-normalized: clipping is audible and must be
  deterministic.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCodecError, WavFormatError

#: Sample rate used by synthesized fixtures and the desk corpus.
DEFAULT_SAMPLE_RATE = 16000

_INT16_FULL_SCALE = 32768.0
#: One 16-bit quantization step; write/read round trips stay within it.
QUANTIZATION_STEP = 1.0 / _INT16_FULL_SCALE

# Constructor tolerance for floating-point dust from convex-combination
# arithmetic (overlap-add, interpolation); anything larger is a real
# invariant violation and is rejected.
_RANGE_SLACK = 1e-9


def clamp(samples: np.ndarray) -> np.ndarray:
    """Hard-clamp samples to [-1, +1]."""
    return np.clip(samples, -1.0, 1.0)


@dataclass(frozen=True)
class AudioBuffer:
    """Immutable uniformly-sampled PCM audio.

    ``samples`` is a read-only float64 array of shape ``(channels, frames)``
    with every value finite and in [-1, +1]; ``sample_rate`` is in Hz.
    A 1-D array is accepted and treated as mono.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        data = np.asarray(self.samples, dtype=np.float64)
        if data.ndim == 1:
            data = data[np.newaxis, :]
        if data.ndim != 2:
            raise ValueError(f"samples must be 1-D or 2-D, got {data.ndim}-D")
        if data.shape[0] not in (1, 2):
            raise ValueError(f"channel count must be 1 or 2, got {data.shape[0]}")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        if data.size and not np.all(np.isfinite(data)):
            raise ValueError("samples contain NaN or Inf")
        if data.size:
            peak = float(np.max(np.abs(data)))
            if peak > 1.0 + _RANGE_SLACK:
                raise ValueError(f"samples exceed [-1, +1] (peak {peak:.6g})")
            if peak > 1.0:
                data = np.clip(data, -1.0, 1.0)
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "samples", data)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def frames(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Length in seconds (frames / sample_rate)."""
        return self.frames / self.sample_rate

    def channel(self, index: int) -> np.ndarray:
        return self.samples[index]

    def mono_mix(self) -> np.ndarray:
        """Channel-mean mono mixdown."""
        if self.channels == 1:
            return self.samples[0]
        return self.samples.mean(axis=0)


# ---------------------------------------------------------------------------
# WAV I/O
#
# The RIFF parser is hand-rolled so malformed headers and unsupported
# encodings raise distinct error types; the stdlib wave module rejects
# float and extensible files with generic errors.
# ---------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _parse_riff_chunks(blob: bytes):
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")
    chunks = {}
    offset = 12
    while offset + 8 <= len(blob):
        cid = blob[offset : offset + 4]
        (size,) = struct.unpack_from("<I", blob, offset + 4)
        body = blob[offset + 8 : offset + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"truncated {cid!r} chunk")
        if cid not in chunks:  # first occurrence wins
            chunks[cid] = body
        offset += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def read_wav(path) -> AudioBuffer:
    """Read a PCM WAV file (8/16/24-bit integer or 32-bit float, 1-2 channels)
    into a normalized AudioBuffer.

    Raises WavFormatError for malformed files and UnsupportedCodecError for
    compressed or otherwise undecodable encodings.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    chunks = _parse_riff_chunks(blob)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise WavFormatError("missing fmt or data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise WavFormatError("fmt chunk too short")
    audio_format, channels, rate, _byte_rate, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if audio_format == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40:
            raise WavFormatError("extensible fmt chunk too short")
        audio_format = struct.unpack_from("<H", fmt, 24)[0]
    if channels not in (1, 2):
        raise UnsupportedCodecError(f"unsupported channel count {channels}")
    if rate <= 0:
        raise WavFormatError(f"invalid sample rate {rate}")

    data = chunks[b"data"]
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        raw = np.frombuffer(data[: len(data) - len(data) % (2 * channels)], dtype="<i2")
        samples = raw.astype(np.float64) / _INT16_FULL_SCALE
    elif audio_format == _WAVE_FORMAT_PCM and bits == 8:
        raw = np.frombuffer(data[: len(data) - len(data) % channels], dtype=np.uint8)
        samples = (raw.astype(np.float64) - 128.0) / 128.0
    elif audio_format == _WAVE_FORMAT_PCM and bits == 24:
        usable = len(data) - len(data) % (3 * channels)
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        raw = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        raw = np.where(raw >= 1 << 23, raw - (1 << 24), raw)
        samples = raw.astype(np.float64) / float(1 << 23)
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(data[: len(data) - len(data) % (4 * channels)], dtype="<f4")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    else:
        raise UnsupportedCodecError(
            f"unsupported encoding: format tag 0x{audio_format:04X}, {bits}-bit"
        )
    if block_align not in (0, channels * (bits // 8)):
        raise WavFormatError(f"inconsistent block alignment {block_align}")
    frames = samples.size // channels
    return AudioBuffer(samples.reshape(frames, channels).T, int(rate))


def quantize_int16(samples: np.ndarray) -> np.ndarray:
    """Quantize normalized samples to int16, clamping at full scale
    (+1.0 maps to 32767). Rounds half to even; one float64 temporary."""
    scaled = np.multiply(samples, _INT16_FULL_SCALE, dtype=np.float64)
    np.rint(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    return scaled.astype("<i2")


def wav_bytes(buffer: AudioBuffer) -> bytes:
    """The exact 16-bit PCM WAV file content for a buffer."""
    pcm = quantize_int16(buffer.samples.T)  # (frames, channels) interleaved
    payload = pcm.tobytes(order="C")
    channels = buffer.channels
    rate = buffer.sample_rate
    block_align = channels * 2
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_FORMAT_PCM,
        channels,
        rate,
        rate * block_align,
        block_align,
        16,
        b"data",
        len(payload),
    )
    return header + payload


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write a buffer as 16-bit PCM WAV; the file round-trips through
    read_wav with at most one quantization step of error."""
    with open(path, "wb") as fh:
        fh.write(wav_bytes(buffer))


def content_digest(buffer: AudioBuffer) -> str:
    """SHA-256 over the canonical PCM form (rate, channel count, and the
    16-bit quantized interleaved samples).  Stable across platforms; used
    to content-address artifacts and key fixture backends."""
    h = hashlib.sha256()
    h.update(struct.pack("<4sIH", b"PCM1", buffer.sample_rate, buffer.channels))
    h.update(quantize_int16(buffer.samples.T).tobytes(order="C"))
    return h.hexdigest()
