"""Linguistic-form perturbations: homophone substitution and benign
discontinuity (stops/repetitions), plus TF-IDF keyword selection for
choosing which words to attack.

Text-level ops emit perturbed transcripts for an external TTS step;
the audio-level discontinuity op edits aligned audio directly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..audio import AudioBuffer
from ..errors import ConfigError, DomainError, ParameterError

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


@dataclass(frozen=True)
class HomophoneLexicon:
    """Map from a toxic word to ranked phonetically-similar replacements.

    Entries are (rank, candidate) pairs; smaller rank is preferred and
    equal ranks are explicit ties. Keys are lowercase.
    """

    entries: Dict[str, Tuple[Tuple[int, str], ...]]
    language: str = "EN"

    def __post_init__(self):
        if self.language not in LANGUAGES:
            raise ParameterError(f"language must be one of {LANGUAGES}, got {self.language!r}")
        normalized = {}
        for word, candidates in self.entries.items():
            key = word.lower()
            ranked = tuple((int(rank), str(cand)) for rank, cand in candidates)
            if not ranked:
                raise ParameterError(f"lexicon entry {key!r} has no candidates")
            for _, cand in ranked:
                if cand.lower() == key:
                    raise ParameterError(f"lexicon entry {key!r} maps to itself")
            normalized[key] = ranked
        object.__setattr__(self, "entries", normalized)

    def top_candidates(self, word: str) -> Tuple[str, ...]:
        """Candidates sharing the best (lowest) rank for ``word``."""
        ranked = self.entries.get(word.lower())
        if not ranked:
            return ()
        best = min(rank for rank, _ in ranked)
        return tuple(cand for rank, cand in ranked if rank == best)


#: starter English entries; real campaigns extend these from a lexicon file
DEFAULT_EN_ENTRIES = {
    "fuck": ((1, "folk"),),
    "shit": ((1, "sheet"),),
    "dick": ((1, "deck"),),
}


def default_lexicon() -> HomophoneLexicon:
    return HomophoneLexicon(dict(DEFAULT_EN_ENTRIES), "EN")


@dataclass(frozen=True)
class KeywordScore:
    token: str
    tf_idf: float
    document_frequency: int

    def __post_init__(self):
        if self.tf_idf < 0:
            raise DomainError("tf-idf scores are nonnegative")


def select_keywords(
    corpus: Sequence[Transcript],
    stopwords: Iterable[str],
    k: int,
) -> List[KeywordScore]:
    """Top-k tokens by TF-IDF across the corpus.

    Tokens are lowercased; stopwords are dropped before counting.
    Score of a token is its best tf*idf over documents, with raw term
    frequency and idf = ln((1+N)/(1+df)) + 1. Ties break lexicographically.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if not corpus:
        raise DomainError("keyword selection needs a nonempty corpus")
    stop = {w.lower() for w in stopwords}
    documents = [
        [tok.lower() for tok in t.tokens if tok.lower() not in stop] for t in corpus
    ]
    n_docs = len(documents)
    df = Counter()
    for doc in documents:
        df.update(set(doc))
    best: Dict[str, float] = {}
    for doc in documents:
        tf = Counter(doc)
        for token, count in tf.items():
            idf = math.log((1 + n_docs) / (1 + df[token])) + 1.0
            score = count * idf
            if score > best.get(token, -1.0):
                best[token] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return [KeywordScore(tok, score, df[tok]) for tok, score in ranked[:k]]


@dataclass(frozen=True)
class SubstitutionResult:
    transcript: Transcript
    #: target word (lowercase) -> number of occurrences replaced
    replaced: Dict[str, int] = field(default_factory=dict)
    #: target word (lowercase) -> occurrences seen with no lexicon entry
    no_entry: Dict[str, int] = field(default_factory=dict)


def _match_case(template: str, word: str) -> str:
    if template.isupper():
        return word.upper()
    if template[:1].isupper():
        return word.capitalize()
    return word


def homophone_substitute(
    t: Transcript,
    lexicon: HomophoneLexicon,
    targets: Iterable[str],
    seed: int,
) -> SubstitutionResult:
    """Replace each target token that has a lexicon entry with its
    top-ranked candidate; rank ties are resolved by a seeded random
    choice. Alignment spans carry over unchanged."""
    if lexicon.language != t.language:
        raise DomainError(
            f"lexicon language {lexicon.language} does not match transcript {t.language}"
        )
    target_set = {w.lower() for w in targets}
    rng = np.random.default_rng(seed)
    out: List[str] = []
    replaced: Counter = Counter()
    no_entry: Counter = Counter()
    for token in t.tokens:
        low = token.lower()
        if low not in target_set:
            out.append(token)
            continue
        candidates = lexicon.top_candidates(low)
        if not candidates:
            no_entry[low] += 1
            out.append(token)
            continue
        pick = candidates[int(rng.integers(len(candidates)))]
        out.append(_match_case(token, pick))
        replaced[low] += 1
    result = Transcript(tuple(out), t.language, t.alignment)
    return SubstitutionResult(result, dict(replaced), dict(no_entry))


def benign_discontinuity_text(
    t: Transcript,
    targets: Iterable[str],
    stop_marker: str,
    repeats: int,
) -> Transcript:
    """Before every target token, repeat its preceding token ``repeats``
    times with ``stop_marker`` after each occurrence; the target itself
    is preserved. Grows the token count by (repeats-1) + repeats markers
    per matched site. Alignment is dropped (timing no longer applies)."""
    if not (isinstance(repeats, (int, np.integer)) and repeats >= 1):
        raise ParameterError(f"repeats must be an integer >= 1, got {repeats}")
    target_set = {w.lower() for w in targets}
    out: List[str] = []
    for i, token in enumerate(t.tokens):
        follows = t.tokens[i + 1].lower() if i + 1 < len(t.tokens) else None
        if follows is not None and follows in target_set:
            for _ in range(repeats):
                out.append(token)
                out.append(stop_marker)
        else:
            out.append(token)
    return Transcript(tuple(out), t.language, None)


def benign_discontinuity_audio(
    x: AudioBuffer,
    transcript: Transcript,
    targets: Iterable[str],
    gap_s: float,
    repeats: int,
) -> AudioBuffer:
    """Audio-level sibling of the text op: each token preceding a target
    has its aligned span duplicated ``repeats`` times, with gap_s of
    silence after every occurrence. Duration grows by
    (repeats-1)*span + repeats*gap_s per site, exact to one frame."""
    if not (isinstance(repeats, (int, np.integer)) and repeats >= 1):
        raise ParameterError(f"repeats must be an integer >= 1, got {repeats}")
    if gap_s < 0:
        raise ParameterError(f"gap must be >= 0 s, got {gap_s}")
    tokens, alignment = transcript.tokens, transcript.alignment
    if alignment is None:
        raise DomainError("audio discontinuity needs a time-aligned transcript")
    if alignment and alignment[-1][1] > x.duration + 1e-9:
        raise DomainError("alignment extends past the end of the audio")
    target_set = {w.lower() for w in targets}
    rate = x.sample_rate
    gap_frames = int(round(gap_s * rate))
    silence = np.zeros((x.channels, gap_frames))

    pieces: List[np.ndarray] = []
    cursor = 0
    for i in range(len(tokens)):
        follows = tokens[i + 1].lower() if i + 1 < len(tokens) else None
        if follows is None or follows not in target_set:
            continue
        start = int(round(alignment[i][0] * rate))
        end = int(round(alignment[i][1] * rate))
        pieces.append(x.samples[:, cursor:start])
        span = x.samples[:, start:end]
        for _ in range(repeats):
            pieces.append(span)
            pieces.append(silence)
        cursor = end
    pieces.append(x.samples[:, cursor:])
    return AudioBuffer(np.concatenate(pieces, axis=1), rate)


def render_text(t: Transcript) -> str:
    """Join tokens for display or TTS; punctuation-led tokens (stop
    markers) attach to the preceding word."""
    parts: List[str] = []
    for token in t.tokens:
        if parts and token and not token[0].isalnum():
            parts[-1] += token
        else:
            parts.append(token)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_lexicon(path, language: str = "EN") -> HomophoneLexicon:
    """Lexicon file: one entry per line, ``word<TAB>cand1,cand2,...``;
    candidates are ranked by position. Blank lines and # comments skipped."""
    entries: Dict[str, Tuple[Tuple[int, str], ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected word<TAB>candidates")
            word, cand_field = parts
            candidates = [c.strip() for c in cand_field.split(",") if c.strip()]
            if not candidates:
                raise ConfigError(f"{path}:{lineno}: no candidates for {word!r}")
            entries[word] = tuple((rank, cand) for rank, cand in enumerate(candidates, 1))
    return HomophoneLexicon(entries, language)


def load_transcript(path, language: str = "EN") -> Transcript:
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
    return Transcript(tuple(tokens), language, tuple(spans) if spans else None)


def load_stopwords(path) -> set:
    """Stopword file: one word per line."""
    with open(path, encoding="utf-8") as fh:
        return {line.strip().lower() for line in fh if line.strip()}
