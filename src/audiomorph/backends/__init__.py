"""Moderation backends: a uniform verdict interface over remote HTTP
moderation APIs, recorded fixtures, and a local keyword-spotter reference
system under test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..audio import AudioBuffer
from ..errors import ConfigError, reject_unknown_keys


class Category(str, enum.Enum):
    INSULT = "insult"
    PORN = "porn"
    SPAM = "spam"
    NON_TOXIC = "non_toxic"

    @classmethod
    def parse(cls, value) -> "Category":
        try:
            return cls(str(value))
        except ValueError:
            raise ConfigError(
                f"unknown category {value!r}; expected one of "
                f"{[c.value for c in cls]}",
                field="category",
            ) from None


TOXIC_CATEGORIES = (Category.INSULT, Category.PORN, Category.SPAM)


@dataclass(frozen=True)
class Verdict:
    """Single moderation outcome: exactly one category, an optional
    confidence in [0, 1], and the opaque provider payload for audit."""

    category: Category
    confidence: Optional[float] = None
    raw: Any = None

    def __post_init__(self):
        if not isinstance(self.category, Category):
            object.__setattr__(self, "category", Category.parse(self.category))
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def is_toxic(self) -> bool:
        return self.category is not Category.NON_TOXIC


class ModerationBackend:
    """Interface every backend implements. ``moderate`` is total: it
    returns exactly one Verdict or raises one of the typed backend
    errors (unavailable / missing fixture / mapping)."""

    name: str = "backend"

    def moderate(self, audio: AudioBuffer) -> Verdict:
        raise NotImplementedError


def _require(options: Mapping[str, Any], field: str, kind: str):
    if field not in options:
        raise ConfigError(f"{kind} backend config missing {field!r}", field=field)
    return options[field]


_COMMON_KEYS = ("kind", "name")
_KIND_KEYS = {
    "fixture": ("path",),
    "keyword_spotter": ("templates_dir", "threshold", "window_s", "hop_s"),
    "http": (
        "endpoint",
        "response_mapping",
        "method",
        "headers",
        "body",
        "audio_encoding",
        "rate_limit_per_s",
        "max_attempts",
        "backoff_s",
        "timeout_s",
    ),
}


def build_backend(config: Mapping[str, Any]) -> ModerationBackend:
    """Construct a backend from a declarative config mapping.

    Common fields: ``kind`` ({http, fixture, keyword_spotter}) and an
    optional ``name`` (defaults to the kind). Remaining fields are
    kind-specific; see each backend class. A key the kind does not read
    is a ConfigError naming it.
    """
    from . import fixture as fixture_mod
    from . import http as http_mod
    from . import spotter as spotter_mod

    if "kind" not in config:
        raise ConfigError("backend config missing 'kind'", field="kind")
    kind = config["kind"]
    if not (isinstance(kind, str) and kind in _KIND_KEYS):
        raise ConfigError(f"unknown backend kind {kind!r}", field="kind")
    reject_unknown_keys(config, _COMMON_KEYS + _KIND_KEYS[kind], f"{kind} backend")
    name = config.get("name", kind)
    if kind == "fixture":
        path = _require(config, "path", kind)
        return fixture_mod.FixtureBackend.from_file(path, name=name)
    if kind == "keyword_spotter":
        templates_dir = _require(config, "templates_dir", kind)
        return spotter_mod.KeywordSpotterBackend(
            templates=spotter_mod.load_templates(templates_dir),
            threshold=float(_require(config, "threshold", kind)),
            window_s=float(config.get("window_s", 0.4)),
            hop_s=float(config.get("hop_s", 0.1)),
            name=name,
        )
    return http_mod.HttpBackend.from_config(config, name=name)


__all__ = [
    "Category",
    "TOXIC_CATEGORIES",
    "Verdict",
    "ModerationBackend",
    "build_backend",
]
