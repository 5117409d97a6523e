"""Local reference system under test: an MFCC + DTW keyword spotter.

Templates are short recordings of the toxic keywords; a clip is flagged
when some sliding window of its features is within a calibrated DTW
distance of some template. Pure after load, so campaigns can drive it
offline and deterministically.

The sweep over (template, window) pairs is batched, across clips too:
``_sweep_many`` concatenates the clips' feature rows and makes one
``dtw_distance`` call per group of equal-length templates, which
computes each (clip frame, template frame) distance once, however many
overlapping windows share that frame, and then fills the DP tables of many
pairs at once, one anti-diagonal at a time. Every answer comes from this
one sweep: the backend's ``moderate_many`` and ``calibrate_threshold``
sweep all their clips at once, and ``moderate`` sweeps its one clip, whose
answer has the same bits either way. Two tie-break rules fix the
answer exactly: inside the DP, among minimum-cost alignments the shortest
path wins; across pairs, the first in (template, start) order wins, so a
later pair must be strictly closer to replace it.

A frame distance sums its squared coefficient differences in an order
written into this module (``_pairwise_sum``, the order numpy's ``np.sum``
used when the desk outputs were recorded), so the distances, and the
confidences they become, do not rest on numpy's reduction order.
"""

from __future__ import annotations

import functools
import math
import os
import re
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
# dtw_distance's temporaries stay this small (unless one pair needs more),
# however many windows and clips a sweep has: the wavefront runs over blocks
# of at most _BLOCK_CELLS DP cells (1 MB of gathered distances), and frame
# distances are formed from difference arrays of at most _DIFF_VALUES
# values (0.5 MB) unless one frame against every template frame needs more
_BLOCK_CELLS = 1 << 17
_DIFF_VALUES = 1 << 16


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


# extract_mfcc's matrices and window depend only on the rate, so they are
# built once per rate (a few rates at most; the bound only caps odd corpora)
# and shared read-only
@functools.lru_cache(maxsize=16)
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
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=16)
def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II; row 0 is constant, so a uniform log-energy
    shift lands entirely in coefficient 0."""
    m = np.arange(n_in)
    matrix = np.sqrt(2.0 / n_in) * np.cos(
        np.pi * np.outer(np.arange(n_out), 2 * m + 1) / (2.0 * n_in)
    )
    matrix[0] /= math.sqrt(2.0)
    matrix.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=16)
def _hamming(frame_len: int) -> np.ndarray:
    window = np.hamming(frame_len)
    window.flags.writeable = False
    return window


def extract_mfcc(audio: AudioBuffer) -> np.ndarray:
    """13 MFCCs per frame: 25 ms frames at a 10 ms hop, pre-emphasis 0.97,
    Hamming window, 512-point FFT, 26 mel filters, log, orthonormal DCT-II.
    Returns a read-only float64 array of floor((frames - frame_len)/hop) + 1
    rows, one per feature frame, and 13 columns."""
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

    frames = sliding_window_view(emphasized, frame_len)[::hop] * _hamming(frame_len)
    power = np.abs(np.fft.rfft(frames, FFT_SIZE, axis=1)) ** 2
    mel_energy = power @ _mel_filterbank(rate).T
    log_mel = np.log(np.maximum(mel_energy, _LOG_FLOOR))
    coefficients = log_mel @ _dct_matrix(N_COEFFICIENTS, MEL_FILTERS).T
    coefficients.flags.writeable = False
    return coefficients


def dtw_distance(a, b, *, windows=None):
    """Path-length-normalized dynamic time warping under Euclidean frame
    distance, of windows of one sequence against others. Among minimum-cost
    monotone alignments the shortest path is taken; the result is symmetric
    and zero for identical sequences.

    ``a`` is one ``(frames, d)`` sequence and ``b`` is ``(..., m, d)``.
    ``windows`` is an integer array of frame indices of ``a`` shaped
    ``(..., n)``; each row of it picks the ``(n, d)`` window of ``a`` that
    is compared, and it defaults to one window holding all of ``a``. The
    batch axes of ``windows`` and ``b`` broadcast, and the result has the
    broadcast batch shape; with no batch axes it is a float. The distance
    between a frame of ``a`` and a frame of ``b`` is computed once, however
    many (overlapping) windows hold that frame.
    """
    fa, fb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if fa.ndim != 2 or fb.ndim < 2:
        raise ParameterError("dtw needs a (frames, d) sequence and (..., m, d) ones")
    if fa.shape[-1] != fb.shape[-1]:
        raise ParameterError(
            f"dtw sequences differ in coefficient count: {fa.shape[-1]} and {fb.shape[-1]}"
        )
    rows = np.arange(len(fa)) if windows is None else np.asarray(windows)
    if rows.ndim == 0 or rows.dtype.kind not in "iu":
        raise ParameterError("dtw windows must be an integer (..., n) index array")
    if fa.size == 0 or fb.size == 0 or rows.size == 0:
        raise DomainError("dtw needs two nonempty sequences")
    if rows.min() < 0 or rows.max() >= len(fa):
        raise ParameterError(f"dtw window indices must lie in [0, {len(fa)})")
    n, m = rows.shape[-1], fb.shape[-2]
    batch = np.broadcast_shapes(rows.shape[:-1], fb.shape[:-2])
    # table[t, f, j]: frame f of a against frame j of the t-th sequence of b
    templates = fb.reshape(-1, m, fb.shape[-1])
    table = _local_distances(fa, templates)
    which = np.arange(len(templates)).reshape(fb.shape[:-2])
    which = np.broadcast_to(which, batch).reshape(-1, 1)
    rows = np.broadcast_to(rows, batch + (n,)).reshape(-1, n)

    pairs = math.prod(batch)
    block = max(1, _BLOCK_CELLS // (n * m))
    result = np.empty(pairs)
    for start in range(0, pairs, block):
        stop = min(start + block, pairs)
        # (n, pairs, m): frame i of every pair's window against the template
        result[start:stop] = _wavefront(table[which[start:stop].T, rows[start:stop].T])
    result = result.reshape(batch)
    return float(result) if not batch else result


def _local_distances(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Euclidean distance of every frame pair: ``(t, n, m)`` for ``(n, d)``
    against ``(t, m, d)``, formed a few frames of ``fa`` at a time. The
    squared coefficient differences are summed by ``_pairwise_sum``."""
    n, (t, m, d) = fa.shape[0], fb.shape
    rows = max(1, _DIFF_VALUES // (t * m * d))  # frames of fa per difference array
    # coefficient-major, so each coefficient's differences are one array
    fa_by_coefficient = fa.T[:, np.newaxis, :, np.newaxis]
    fb_by_coefficient = fb.transpose(2, 0, 1)[:, :, np.newaxis, :]
    squares = np.empty((d, t, min(rows, n), m))  # reused: saves page faults
    local = np.empty((t, n, m))
    for first in range(0, n, rows):
        last = min(first + rows, n)
        part = squares[:, :, : last - first]
        np.subtract(fa_by_coefficient[:, :, first:last], fb_by_coefficient, out=part)
        np.multiply(part, part, out=part)
        np.sqrt(_pairwise_sum(part), out=local[:, first:last])
    return local


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of ``terms`` over axis 0, added in place in numpy's pairwise
    order: fewer than 8 terms in sequence; up to 128 terms as 8 running
    partial sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    tail one term at a time; more than 128 as the sum of two halves, the
    first a multiple of 8 long. Returns ``terms[0]``, which holds the sum.
    The order is written here, not left to ``np.sum``, so the spotter's
    distances do not depend on how a numpy release reduces."""
    n = len(terms)
    if n > 128:
        half = n // 2
        half -= half % 8
        total = _pairwise_sum(terms[:half])
        total += _pairwise_sum(terms[half:])
        return total
    if n < 8:
        # numpy starts from 0.0; starting from the first term differs only
        # for a -0.0 there, which a square never is
        for term in terms[1:]:
            terms[0] += term
        return terms[0]
    blocks = n - n % 8
    for i in range(8, blocks, 8):
        terms[:8] += terms[i : i + 8]
    terms[0:8:2] += terms[1:8:2]
    terms[0:8:4] += terms[2:8:4]
    terms[0] += terms[4]
    for term in terms[blocks:]:
        terms[0] += term
    return terms[0]


# _wavefront's per-diagonal indices depend only on the pair shape (n, m):
# a few shapes per template set (the bound only caps odd callers)
@functools.lru_cache(maxsize=64)
def _schedule(n: int, m: int) -> Tuple[tuple, ...]:
    """For each anti-diagonal k = 3 .. n + m of the (n + 1) x (m + 1) DP
    table, whose cells i = lo..hi it computes: the indices into
    ``diagonals`` of their diagonal, up and left neighbours and of the
    cells themselves, and into ``steps`` of their local distances."""
    plan = []
    for k in range(3, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        plan.append((
            ((k - 2) % 3, slice(lo - 1, hi)),
            ((k - 1) % 3, slice(lo - 1, hi)),
            ((k - 1) % 3, slice(lo, hi + 1)),
            (k % 3, slice(lo, hi + 1)),
            (k - 2, slice(lo - 1, hi)),
        ))
    return tuple(plan)


def _wavefront(local: np.ndarray) -> np.ndarray:
    """DTW of each pair from its local distances, ``local[i, p, j]`` for
    frame i against frame j of pair p, one anti-diagonal at a time,
    vectorised over the pairs and over the cells of each anti-diagonal."""
    n, pairs, m = local.shape
    # steps[d, i] is local[i, :, d - i], the distances entering the cells
    # of anti-diagonal i + j = d: a strided view, not a copy, read only
    # where d - i lies in [0, m), as the schedule's slices keep it
    row, pair, column = local.strides
    steps = as_strided(
        local, shape=(n + m - 1, n, pairs), strides=(column, row - column, pair), writeable=False
    )
    # numpy orders complex numbers lexicographically, so a cell held as
    # cost + 1j * path_length makes np.minimum pick the cheapest neighbour
    # and, at equal cost, the shorter path; entering a cell adds its local
    # distance to the real part and 1 to the imaginary part, the complex
    # addition of distance + 1j without building it

    # diagonals[k % 3, i] is cell (i, k - i) of the (n + 1) x (m + 1) table,
    # since a cell reads only anti-diagonals k - 1 and k - 2. Row 0 and
    # column 0 are the unreachable border: on diagonal k they sit at index 0
    # and index k, where no cell of an earlier diagonal was computed, so they
    # keep their first value. Cell (1, 1) opens every path: its own
    # distance, length 1.
    diagonals = np.full((3, n + 1, pairs), complex(math.inf, 0.0))
    diagonals[2, 1] = local[0, :, 0] + 1j
    for diagonal, up, left, cells, entered in _schedule(n, m):
        # neighbours of the cells: diagonal, up, then left
        best = diagonals[cells]
        np.minimum(diagonals[diagonal], diagonals[up], out=best)
        np.minimum(best, diagonals[left], out=best)
        np.add(best.real, steps[entered], out=best.real)
        best.imag += 1.0
    end = diagonals[(n + m) % 3, n]
    return end.real / end.imag


def _windows(audio: AudioBuffer, frames: int, window_s: float, hop_s: float) -> np.ndarray:
    """Feature frame indices of the clip's sliding windows, one row per
    start: every hop_s, plus a trailing window that reaches the clip end."""
    # a window_s-long clip must be exactly one window, so derive the frame
    # count from the extractor's own framing rather than window_s / hop
    frame_len = int(round(FRAME_S * audio.sample_rate))
    frame_hop = int(round(FRAME_HOP_S * audio.sample_rate))
    window_samples = int(round(window_s * audio.sample_rate))
    window_frames = max(1, 1 + (window_samples - frame_len) // frame_hop)
    step = max(1, int(round(hop_s / FRAME_HOP_S)))
    if window_frames > frames:
        raise DomainError(
            f"window of {window_frames} feature frames exceeds clip ({frames} frames)"
        )
    starts = list(range(0, frames - window_frames + 1, step))
    if starts[-1] != frames - window_frames:
        starts.append(frames - window_frames)
    return np.add.outer(starts, np.arange(window_frames))


def _sweep_many(
    clips: Sequence[AudioBuffer], templates: Sequence[Tuple[str, np.ndarray]], window_s, hop_s
) -> List[Tuple[float, Optional[str]]]:
    """For each clip, the minimum windowed DTW distance over (template,
    window) pairs and the tag of the winning template; the first pair in
    (template, start) order wins a tie. The windows overlap, and each group
    of equal-length templates shares one table of frame distances.

    The clips are swept in one batch: their feature rows are concatenated,
    each clip's windows offset by its first row, so one ``dtw_distance``
    call per template length covers the pairs of every clip (clips at
    different sample rates, whose windows differ in length, are swept one
    by one). A clip whose features or windows fail raises as it would
    alone, the first such clip first."""
    if not templates:
        raise ParameterError("need at least one template")
    features, windows, first = [], [], 0
    for clip in clips:
        rows = extract_mfcc(clip)
        windows.append(first + _windows(clip, len(rows), window_s, hop_s))
        features.append(rows)
        first += len(rows)
    if len({w.shape[1] for w in windows}) != 1:  # sample rates differ
        return [_sweep_many([clip], templates, window_s, hop_s)[0] for clip in clips]
    batch, rows = np.concatenate(features), np.concatenate(windows)
    lengths = [len(template) for _, template in templates]
    distances = np.empty((len(templates), len(rows)))
    for frames in set(lengths):
        group = [i for i, length in enumerate(lengths) if length == frames]
        stacked = np.stack([templates[i][1] for i in group])[:, np.newaxis]
        distances[group] = dtw_distance(batch, stacked, windows=rows)
    results, lo = [], 0
    for starts in map(len, windows):
        part = distances[:, lo : lo + starts]
        best = np.argmin(part)  # first minimum in (template, start) order
        results.append((float(part.flat[best]), templates[best // starts][0]))
        lo += starts
    return results


def _verdict(distance: float, tag: Optional[str], threshold: float) -> Verdict:
    confidence = max(0.0, min(1.0, 1.0 - distance / threshold))
    if distance < threshold:
        return Verdict(Category.parse(tag), confidence)
    return Verdict(Category.NON_TOXIC, confidence)


_TEMPLATE_NAME = re.compile(r"^(?P<tag>[a-z_]+)__(?P<word>.+)\.wav$")


def load_templates(directory) -> List[Tuple[str, np.ndarray]]:
    """Template directory: WAV files named ``<tag>__<word>.wav`` where tag
    is a toxic category. Returns (tag, MFCC array) pairs sorted by file
    name."""
    toxic_names = {c.value for c in TOXIC_CATEGORIES}
    entries: List[Tuple[str, np.ndarray]] = []
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


def check_settings(**settings: float) -> None:
    """A ConfigError naming the first of the given spotter settings
    (``threshold``, ``window_s``, ``hop_s``) that is not finite and > 0."""
    for field, value in settings.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(
                f"keyword spotter {field} must be finite and > 0, got {value!r}",
                field=field,
            )


class KeywordSpotterBackend(ModerationBackend):
    """The spotter over the templates of ``templates_dir`` (see
    load_templates): a clip whose smallest windowed DTW distance to a
    template falls under ``threshold`` gets that template's toxic tag, else
    non_toxic, with confidence 1 - distance/threshold clamped to [0, 1].
    ``threshold``, ``window_s`` and ``hop_s`` are checked by check_settings."""

    def __init__(
        self,
        templates_dir,
        threshold: float,
        window_s: float = 0.4,
        hop_s: float = 0.1,
        name: str = "keyword_spotter",
    ):
        check_settings(threshold=threshold, window_s=window_s, hop_s=hop_s)
        self.name = name
        self._templates = load_templates(templates_dir)
        self._threshold = float(threshold)
        self._window_s = float(window_s)
        self._hop_s = float(hop_s)

    def moderate(self, audio: AudioBuffer, digest: str) -> Verdict:
        return self.moderate_many([audio], [digest])[0]

    def moderate_many(self, clips, digests) -> List[Verdict]:
        """The clips' verdicts, from one sweep over every clip."""
        sweeps = _sweep_many(clips, self._templates, self._window_s, self._hop_s)
        return [_verdict(distance, tag, self._threshold) for distance, tag in sweeps]


def calibrate_threshold(
    labeled_clips: Sequence[Tuple[AudioBuffer, bool]],
    templates: Sequence[Tuple[str, np.ndarray]],
    window_s: float = 0.4,
    hop_s: float = 0.1,
) -> Tuple[float, float]:
    """Fit the detection threshold from (clip, is_toxic) pairs: evaluate
    candidate thresholds at midpoints between observed distances and keep
    the lowest one maximizing accuracy. Returns (threshold, accuracy).
    ``window_s`` and ``hop_s`` are checked as a backend config's are."""
    check_settings(window_s=window_s, hop_s=hop_s)
    if not labeled_clips:
        raise DomainError("calibration needs at least one labeled clip")
    sweeps = _sweep_many([clip for clip, _ in labeled_clips], templates, window_s, hop_s)
    distances = [(d, bool(toxic)) for (d, _), (_, toxic) in zip(sweeps, labeled_clips)]
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
