"""Local reference system under test: an MFCC + DTW keyword spotter.

Templates are short recordings of the toxic keywords; a clip is flagged
when some sliding window of its features is within a calibrated DTW
distance of some template. Pure after load, so campaigns can drive it
offline and deterministically.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..audio import AudioBuffer, read_wav
from ..errors import ConfigError, DomainError, ParameterError
from . import Category, ModerationBackend, TOXIC_CATEGORIES, Verdict

FRAME_S = 0.025
FRAME_HOP_S = 0.010
PRE_EMPHASIS = 0.97
FFT_SIZE = 512
MEL_FILTERS = 26
MEL_LOW_HZ = 0.0
MEL_HIGH_HZ = 8000.0
N_COEFFICIENTS = 13

_LOG_FLOOR = 1e-30


@dataclass(frozen=True)
class MfccFeatures:
    """Per-frame MFCC vectors (rows) with their hop in seconds."""

    vectors: np.ndarray
    frame_hop_s: float = FRAME_HOP_S

    def __post_init__(self):
        data = np.asarray(self.vectors, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("vectors must be 2-D (frames x coefficients)")
        object.__setattr__(self, "vectors", data)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, index):
        return self.vectors[index]


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def _mel_filterbank(rate: int) -> np.ndarray:
    """Triangular filters evaluated on the rfft bin grid."""
    high = min(MEL_HIGH_HZ, rate / 2.0)
    edges_mel = np.linspace(_hz_to_mel(MEL_LOW_HZ), _hz_to_mel(high), MEL_FILTERS + 2)
    edges = _mel_to_hz(edges_mel)
    bins = np.fft.rfftfreq(FFT_SIZE, d=1.0 / rate)
    bank = np.zeros((MEL_FILTERS, bins.size))
    for i in range(MEL_FILTERS):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (bins - left) / max(center - left, 1e-12)
        falling = (right - bins) / max(right - center, 1e-12)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II; row 0 is constant, so a uniform log-energy
    shift lands entirely in coefficient 0."""
    m = np.arange(n_in)
    matrix = np.sqrt(2.0 / n_in) * np.cos(
        np.pi * np.outer(np.arange(n_out), 2 * m + 1) / (2.0 * n_in)
    )
    matrix[0] /= math.sqrt(2.0)
    return matrix


def extract_mfcc(audio: AudioBuffer) -> MfccFeatures:
    """13 MFCCs per frame: 25 ms frames at a 10 ms hop, pre-emphasis 0.97,
    Hamming window, 512-point FFT, 26 mel filters, log, orthonormal DCT-II.
    Yields floor((frames - frame_len)/hop) + 1 vectors."""
    rate = audio.sample_rate
    frame_len = int(round(FRAME_S * rate))
    hop = int(round(FRAME_HOP_S * rate))
    mono = audio.mono_mix()
    if mono.size < frame_len:
        raise DomainError(
            f"clip has {mono.size} frames, need at least one {frame_len}-frame window"
        )
    emphasized = np.empty_like(mono)
    emphasized[0] = mono[0]
    emphasized[1:] = mono[1:] - PRE_EMPHASIS * mono[:-1]

    n_frames = (mono.size - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = emphasized[idx] * np.hamming(frame_len)
    power = np.abs(np.fft.rfft(frames, FFT_SIZE, axis=1)) ** 2
    mel_energy = power @ _mel_filterbank(rate).T
    log_mel = np.log(np.maximum(mel_energy, _LOG_FLOOR))
    coefficients = log_mel @ _dct_matrix(N_COEFFICIENTS, MEL_FILTERS).T
    return MfccFeatures(coefficients)


def _as_matrix(seq) -> np.ndarray:
    data = np.asarray(getattr(seq, "vectors", seq), dtype=np.float64)
    if data.ndim == 1:
        data = data[:, np.newaxis]
    return data


def dtw_distance(a, b) -> float:
    """Path-length-normalized dynamic time warping under Euclidean frame
    distance. Among minimum-cost monotone alignments the shortest path
    is taken; the result is symmetric and zero for identical sequences."""
    fa, fb = _as_matrix(a), _as_matrix(b)
    if fa.size == 0 or fb.size == 0:
        raise DomainError("dtw needs two nonempty sequences")
    n, m = fa.shape[0], fb.shape[0]
    diff = fa[:, np.newaxis, :] - fb[np.newaxis, :, :]
    local = np.sqrt(np.sum(diff * diff, axis=2))

    inf = math.inf
    cost = np.full((n + 1, m + 1), inf)
    length = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        row = local[i - 1]
        for j in range(1, m + 1):
            best_cost, best_len = cost[i - 1, j - 1], length[i - 1, j - 1]
            for ci, cj in ((i - 1, j), (i, j - 1)):
                c, l = cost[ci, cj], length[ci, cj]
                if c < best_cost or (c == best_cost and l < best_len):
                    best_cost, best_len = c, l
            cost[i, j] = best_cost + row[j - 1]
            length[i, j] = best_len + 1
    return float(cost[n, m] / length[n, m])


def _sweep(
    audio: AudioBuffer,
    templates: Sequence[Tuple[str, MfccFeatures]],
    window_s: float,
    hop_s: float,
) -> Tuple[float, Optional[str]]:
    """Minimum windowed DTW distance over (window, template) pairs and the
    tag of the winning template."""
    if not templates:
        raise ParameterError("need at least one template")
    features = extract_mfcc(audio)
    n = len(features)
    # a window_s-long clip must be exactly one window, so derive the frame
    # count from the extractor's own framing rather than window_s / hop
    frame_len = int(round(FRAME_S * audio.sample_rate))
    frame_hop = int(round(FRAME_HOP_S * audio.sample_rate))
    window_samples = int(round(window_s * audio.sample_rate))
    window_frames = max(1, 1 + (window_samples - frame_len) // frame_hop)
    step = max(1, int(round(hop_s / FRAME_HOP_S)))
    if window_frames > n:
        raise DomainError(
            f"window of {window_frames} feature frames exceeds clip ({n} frames)"
        )
    starts = list(range(0, n - window_frames + 1, step))
    if starts[-1] != n - window_frames:
        starts.append(n - window_frames)  # trailing window reaches the clip end

    best_distance = math.inf
    best_tag: Optional[str] = None
    for tag, template in templates:
        t_mat = _as_matrix(template)
        for start in starts:
            window = features.vectors[start : start + window_frames]
            d = dtw_distance(window, t_mat)
            if d < best_distance:
                best_distance = d
                best_tag = tag
    return best_distance, best_tag


def spot_keywords(
    audio: AudioBuffer,
    templates: Sequence[Tuple[str, MfccFeatures]],
    window_s: float,
    hop_s: float,
    threshold: float,
) -> Verdict:
    """Slide a feature window over the clip; if the smallest DTW distance
    to any template falls under the threshold, answer that template's
    toxic tag, else non_toxic. Confidence is 1 - min_distance/threshold
    clamped to [0, 1]."""
    if threshold <= 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    best_distance, best_tag = _sweep(audio, templates, window_s, hop_s)
    confidence = max(0.0, min(1.0, 1.0 - best_distance / threshold))
    if best_distance < threshold:
        return Verdict(Category.parse(best_tag), confidence)
    return Verdict(Category.NON_TOXIC, confidence)


_TEMPLATE_NAME = re.compile(r"^(?P<tag>[a-z_]+)__(?P<word>.+)\.wav$")


def load_templates(directory) -> List[Tuple[str, MfccFeatures]]:
    """Template directory: WAV files named ``<tag>__<word>.wav`` where tag
    is a toxic category. Returns (tag, features) sorted by file name."""
    toxic_names = {c.value for c in TOXIC_CATEGORIES}
    entries: List[Tuple[str, MfccFeatures]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ConfigError(f"cannot read template directory {directory}: {exc}") from exc
    for name in names:
        if not name.endswith(".wav"):
            continue
        match = _TEMPLATE_NAME.match(name)
        if not match:
            raise ConfigError(f"template {name!r} is not named <tag>__<word>.wav")
        tag = match.group("tag")
        if tag not in toxic_names:
            raise ConfigError(
                f"template {name!r} tag {tag!r} is not a toxic category"
            )
        entries.append((tag, extract_mfcc(read_wav(os.path.join(directory, name)))))
    if not entries:
        raise ConfigError(f"no templates found in {directory}")
    return entries


class KeywordSpotterBackend(ModerationBackend):
    """Backend wrapper over spot_keywords; ignores transcript hints."""

    def __init__(
        self,
        templates: Sequence[Tuple[str, MfccFeatures]],
        threshold: float,
        window_s: float = 0.4,
        hop_s: float = 0.1,
        name: str = "keyword_spotter",
    ):
        if not templates:
            raise ConfigError("keyword spotter needs at least one template")
        self.name = name
        self._templates = list(templates)
        self._threshold = float(threshold)
        self._window_s = float(window_s)
        self._hop_s = float(hop_s)

    def moderate(self, audio: AudioBuffer) -> Verdict:
        return spot_keywords(
            audio, self._templates, self._window_s, self._hop_s, self._threshold
        )


def min_template_distance(
    audio: AudioBuffer,
    templates: Sequence[Tuple[str, MfccFeatures]],
    window_s: float,
    hop_s: float,
) -> float:
    """Smallest windowed DTW distance to any template (calibration probe)."""
    return _sweep(audio, templates, window_s, hop_s)[0]


def calibrate_threshold(
    labeled_clips: Sequence[Tuple[AudioBuffer, bool]],
    templates: Sequence[Tuple[str, MfccFeatures]],
    window_s: float = 0.4,
    hop_s: float = 0.1,
) -> Tuple[float, float]:
    """Fit the detection threshold from (clip, is_toxic) pairs: evaluate
    candidate thresholds at midpoints between observed distances and keep
    the lowest one maximizing accuracy. Returns (threshold, accuracy)."""
    if not labeled_clips:
        raise DomainError("calibration needs at least one labeled clip")
    distances = [
        (min_template_distance(clip, templates, window_s, hop_s), bool(toxic))
        for clip, toxic in labeled_clips
    ]
    values = sorted({d for d, _ in distances})
    candidates = [values[0] / 2.0]
    candidates += [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    candidates.append(values[-1] * 1.5 + 1e-9)

    def accuracy(threshold: float) -> float:
        hits = sum(
            1 for d, toxic in distances if (d < threshold) == toxic
        )
        return hits / len(distances)

    best = max(candidates, key=lambda th: (accuracy(th), -th))
    return best, accuracy(best)
