"""Replay backend: verdicts recorded as a JSON map keyed by the content
digest of the canonical PCM bytes. Bit-deterministic across runs and
platforms; powers campaign replay and hermetic tests.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping

from ..audio import AudioBuffer, content_digest
from ..errors import ConfigError, MissingFixtureError
from . import Category, ModerationBackend, Verdict


class FixtureBackend(ModerationBackend):
    def __init__(self, verdicts: Mapping[str, Verdict], name: str = "fixture"):
        self.name = name
        self._verdicts: Dict[str, Verdict] = dict(verdicts)

    @classmethod
    def from_file(cls, path, name: str = "fixture") -> "FixtureBackend":
        """Fixture file: JSON object mapping hex digest to
        {"category": ..., "confidence": optional}."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fixture file {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"fixture file {path} must hold a JSON object")
        verdicts = {}
        for digest, entry in payload.items():
            if not isinstance(entry, dict) or "category" not in entry:
                raise ConfigError(
                    f"fixture entry {digest} needs a 'category'", field="category"
                )
            verdicts[digest] = Verdict(
                Category.parse(entry["category"]),
                entry.get("confidence"),
                raw=entry,
            )
        return cls(verdicts, name=name)

    def moderate(self, audio: AudioBuffer) -> Verdict:
        digest = content_digest(audio)
        try:
            return self._verdicts[digest]
        except KeyError:
            raise MissingFixtureError(
                f"backend {self.name!r} has no fixture for digest {digest}"
            ) from None

    def __len__(self) -> int:
        return len(self._verdicts)


def save_fixtures(path, verdicts: Mapping[str, Verdict]) -> None:
    """Write a fixture file consumable by FixtureBackend.from_file."""
    payload = {}
    for digest, verdict in verdicts.items():
        entry = {"category": verdict.category.value}
        if verdict.confidence is not None:
            entry["confidence"] = verdict.confidence
        payload[digest] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
