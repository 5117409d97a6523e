"""Linguistic-form perturbation: benign discontinuity (stops and
repetitions) before target words, applied to the aligned audio of a seed
whose word-level transcript it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..audio import AudioBuffer
from ..errors import ConfigError, DomainError, ParameterError
from .basic import MAX_TAIL_S

LANGUAGES = ("EN", "ZH")


@dataclass(frozen=True)
class Transcript:
    """Ordered word list, optionally time-aligned to a paired recording.

    ``alignment`` holds one (start_s, end_s) per token; spans must be
    monotone and non-overlapping.
    """

    tokens: Tuple[str, ...]
    language: str = "EN"
    alignment: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.language not in LANGUAGES:
            raise ParameterError(f"language must be one of {LANGUAGES}, got {self.language!r}")
        if self.alignment is not None:
            spans = tuple((float(s), float(e)) for s, e in self.alignment)
            if len(spans) != len(self.tokens):
                raise DomainError(
                    f"alignment has {len(spans)} spans for {len(self.tokens)} tokens"
                )
            prev_end = 0.0
            for i, (start, end) in enumerate(spans):
                if start < prev_end or end < start:
                    raise DomainError(f"alignment span {i} is not monotone non-overlapping")
                prev_end = end
            object.__setattr__(self, "alignment", spans)

    def __len__(self) -> int:
        return len(self.tokens)


def _discontinuity_sites(
    tokens: Sequence[str], targets: Iterable[str], repeats: int
) -> List[int]:
    """The discontinuity op's site rule: indices of the tokens directly
    preceding a target (case-insensitive), once ``repeats`` and ``targets``
    are checked."""
    if not (isinstance(repeats, (int, np.integer)) and repeats >= 1):
        raise ParameterError(f"repeats must be an integer >= 1, got {repeats}")
    if isinstance(targets, str):
        raise ParameterError(f"targets must be a list of words, not the string {targets!r}")
    target_set = {w.lower() for w in targets}
    return [i for i in range(len(tokens) - 1) if tokens[i + 1].lower() in target_set]


def transcript_fault(transcript: Optional[Transcript], duration: float) -> Optional[str]:
    """Why the discontinuity op cannot use ``transcript`` on a clip of
    ``duration`` seconds, as a phrase completing "clips ...", or None."""
    if transcript is None:
        return "without one"
    if transcript.alignment is None:
        return "with an unaligned one"
    if transcript.alignment and transcript.alignment[-1][1] > duration + 1e-9:
        return "whose alignment ends past their audio"
    return None


def benign_discontinuity_audio(
    x: AudioBuffer,
    transcript: Optional[Transcript],
    targets: Iterable[str],
    gap_s: float,
    repeats: int,
) -> AudioBuffer:
    """Each token preceding a target has its aligned span duplicated
    ``repeats`` times, with gap_s of silence after every occurrence; the
    target itself is kept. Duration grows by (repeats-1)*span +
    repeats*gap_s per site, exact to one frame, and at most 10 s over all
    sites (``MAX_TAIL_S``). The transcript must pass ``transcript_fault``."""
    fault = transcript_fault(transcript, x.duration)
    if fault:
        raise DomainError(f"audio discontinuity needs an aligned transcript, not clips {fault}")
    sites = _discontinuity_sites(transcript.tokens, targets, repeats)
    if not (math.isfinite(gap_s) and gap_s >= 0):
        raise ParameterError(f"gap must be finite and >= 0 s, got {gap_s}")
    alignment = transcript.alignment
    rate = x.sample_rate
    gap_frames = int(round(gap_s * rate))
    spans = [(int(round(alignment[i][0] * rate)), int(round(alignment[i][1] * rate)))
             for i in sites]
    growth = sum((int(repeats) - 1) * (end - start) + int(repeats) * gap_frames
                 for start, end in spans)
    if growth > MAX_TAIL_S * rate:
        raise ParameterError(
            f"repeats={repeats} and gap_s={gap_s} add {growth / rate:.3f} s over "
            f"{len(sites)} sites, more than {MAX_TAIL_S} s"
        )

    # one piece per site, however many repeats: an empty span and gap
    # add no frames but would otherwise add 2 * repeats pieces
    pieces: List[np.ndarray] = []
    cursor = 0
    for start, end in spans:
        pieces.append(x.samples[:, cursor:start])
        stutter = np.pad(x.samples[:, start:end], ((0, 0), (0, gap_frames)))
        pieces.append(np.tile(stutter, repeats))
        cursor = end
    pieces.append(x.samples[:, cursor:])
    return AudioBuffer(np.concatenate(pieces, axis=1), rate)


def load_transcript(path) -> Transcript:
    """Transcript file: one token per line, ``token<TAB>start_s<TAB>end_s``
    with the time columns optional (all lines aligned or none)."""
    tokens: List[str] = []
    spans: List[Tuple[float, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                tokens.append(parts[0].strip())
            elif len(parts) == 3:
                tokens.append(parts[0].strip())
                try:
                    spans.append((float(parts[1]), float(parts[2])))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad time column") from exc
            else:
                raise ConfigError(f"{path}:{lineno}: expected 1 or 3 columns")
    if spans and len(spans) != len(tokens):
        raise ConfigError(f"{path}: mixed aligned and unaligned lines")
    return Transcript(tuple(tokens), alignment=tuple(spans) if spans else None)
