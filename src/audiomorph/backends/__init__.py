"""Moderation backends: a uniform verdict interface over remote HTTP
moderation APIs, recorded fixtures, and a local keyword-spotter reference
system under test.
"""

from __future__ import annotations

import enum
import inspect
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, List, Optional

from ..audio import AudioBuffer
from ..errors import CASE_ERRORS, ConfigError, read_params


class Category(str, enum.Enum):
    INSULT = "insult"
    PORN = "porn"
    SPAM = "spam"
    NON_TOXIC = "non_toxic"

    @classmethod
    def parse(cls, value) -> "Category":
        try:
            # a member must pass as itself: its str() is "Category.X" on Python 3.11+
            return cls(value)
        except ValueError:
            raise ConfigError(
                f"unknown category {value!r}; expected one of "
                f"{[c.value for c in cls]}",
                field="category",
            ) from None


TOXIC_CATEGORIES = (Category.INSULT, Category.PORN, Category.SPAM)


@dataclass(frozen=True)
class Verdict:
    """Single moderation outcome: exactly one category and an optional
    confidence in [0, 1]."""

    category: Category
    confidence: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.category, Category):
            object.__setattr__(self, "category", Category.parse(self.category))
        c = self.confidence
        if c is not None and not (isinstance(c, numbers.Real) and 0.0 <= c <= 1.0):
            raise ValueError(f"confidence must be a number in [0, 1], got {c!r}")

    @property
    def is_toxic(self) -> bool:
        return self.category is not Category.NON_TOXIC


class ModerationBackend:
    """Interface every backend implements. ``moderate`` is total: it returns
    exactly one Verdict or raises one of the typed backend errors
    (unavailable / missing fixture / mapping). ``digest`` is
    ``content_digest(audio)``, computed once by the caller.

    ``moderate_many`` answers a list of clips, one answer per clip in
    order, None for a clip left unanswered; a campaign asks each backend
    once per job this way. The default calls ``moderate`` per clip, so a
    typed backend error leaves only that clip unanswered; a backend that
    can answer many clips at once (the keyword spotter) overrides it. A
    campaign always hands a backend the clip; a replay asks no backend."""

    name: str = "backend"

    def moderate(self, audio: AudioBuffer, digest: str) -> Verdict:
        raise NotImplementedError

    def moderate_many(self, clips, digests) -> List[Optional[Verdict]]:
        answers: List[Optional[Verdict]] = []
        for clip, digest in zip(clips, digests):
            try:
                answers.append(self.moderate(clip, digest))
            except CASE_ERRORS:
                answers.append(None)
        return answers


def _constructors():
    """kind -> the callable that builds it; imported late because each
    backend module imports this one."""
    from .fixture import FixtureBackend
    from .http import HttpBackend
    from .spotter import KeywordSpotterBackend

    return {
        "fixture": FixtureBackend.from_file,
        "keyword_spotter": KeywordSpotterBackend,
        "http": HttpBackend,
    }


def build_backend(config: Mapping[str, Any]) -> ModerationBackend:
    """Construct a backend from a declarative config mapping.

    ``kind`` ({http, fixture, keyword_spotter}) picks the constructor, and
    every other key is one of its parameters (``name`` defaults to the
    kind), checked by ``read_params``: values are never converted, so
    ``2.7``, ``true`` or ``"3"`` is no ``int`` but a ConfigError naming the key.
    """
    if "kind" not in config:
        raise ConfigError("backend config missing 'kind'", field="kind")
    kind = config["kind"]
    constructors = _constructors()
    if not (isinstance(kind, str) and kind in constructors):
        raise ConfigError(f"unknown backend kind {kind!r}", field="kind")
    constructor = constructors[kind]
    kwargs = {key: value for key, value in config.items() if key != "kind"}
    params = inspect.signature(constructor, eval_str=True).parameters.values()
    read_params(params, kwargs, f"{kind} backend")
    return constructor(**kwargs)


__all__ = [
    "Category",
    "TOXIC_CATEGORIES",
    "Verdict",
    "ModerationBackend",
    "build_backend",
]
