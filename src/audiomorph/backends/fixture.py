"""Fixture backend: verdicts recorded as a verdict table, a JSON map keyed by
the content digest of the canonical PCM bytes. A fixture file holds one
table, and a campaign manifest one per backend, which replay answers from.
Bit-deterministic across runs and platforms; serves `kind: "fixture"`
configs and hermetic tests.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..audio import AudioBuffer, content_digest  # unused; perfbench/tracing.py patches it here
from ..errors import ConfigError, MissingFixtureError, read_json_object, write_json
from . import Category, ModerationBackend, Verdict


def verdicts_from_json(table, where: str) -> Dict[str, Optional[Verdict]]:
    """Read a verdict table: digest -> {"category": ..., "confidence":
    optional, in [0, 1]}, or null for a pair recorded as unanswered. A
    malformed table or entry is a ConfigError; ``where`` names the table."""
    if not isinstance(table, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    verdicts: Dict[str, Optional[Verdict]] = {}
    for digest, entry in table.items():
        if entry is None:
            verdicts[digest] = None
            continue
        if not isinstance(entry, dict) or "category" not in entry:
            raise ConfigError(
                f"{where} entry {digest} needs a 'category'", field="category"
            )
        try:
            verdicts[digest] = Verdict(Category.parse(entry["category"]), entry.get("confidence"))
        except ValueError as exc:  # the confidence; a bad category is a ConfigError
            raise ConfigError(f"{where} entry {digest}: {exc}", field="confidence") from None
    return verdicts


def verdicts_to_json(verdicts: Mapping[str, Optional[Verdict]]) -> Dict[str, Optional[dict]]:
    """The verdict table ``verdicts_from_json`` reads back."""
    return {
        digest: None
        if verdict is None
        else {"category": verdict.category.value, "confidence": verdict.confidence}
        for digest, verdict in verdicts.items()
    }


class FixtureBackend(ModerationBackend):
    def __init__(self, verdicts: Mapping[str, Optional[Verdict]], name: str = "fixture"):
        self.name = name
        self._verdicts: Dict[str, Optional[Verdict]] = dict(verdicts)

    @classmethod
    def from_file(cls, path, name: str = "fixture") -> "FixtureBackend":
        """Fixture file: one verdict table."""
        payload = read_json_object(path, "fixture file")
        return cls(verdicts_from_json(payload, f"fixture file {path}"), name=name)

    def moderate(self, audio: AudioBuffer, digest: str) -> Verdict:
        verdict = self._verdicts.get(digest)
        if verdict is None:
            what = "recorded no answer" if digest in self._verdicts else "has no fixture"
            raise MissingFixtureError(f"backend {self.name!r} {what} for digest {digest}")
        return verdict


def save_fixtures(path, verdicts: Mapping[str, Optional[Verdict]]) -> None:
    """Write a fixture file consumable by FixtureBackend.from_file."""
    write_json(verdicts_to_json(verdicts), path)
