"""Toxicity-preserving perturbations and their registry.

A perturbation is described by a ``kind`` (registry key) plus a flat,
JSON-serializable parameter mapping, so campaign manifests can reproduce
any artifact from its descriptor alone. Ops with a ``transcript``
parameter (audio discontinuity) also take the seed's aligned transcript.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..audio import AudioBuffer
from ..errors import DomainError, ParameterError
from . import basic, compound, linguistic

PerturbationFn = Callable[..., AudioBuffer]

#: kind -> audio-in/audio-out transform. Kinds are stable identifiers used
#: by the CLI (kebab-case accepted) and campaign configs.
OPS: Dict[str, PerturbationFn] = {
    "time_stretch": basic.time_stretch,
    "time_shift": basic.time_shift,
    "pan": basic.pan,
    "surround": basic.surround,
    "pitch_shift": basic.pitch_shift,
    "inject_noise": basic.inject_noise,
    "repeat_segment": basic.repeat_segment,
    "gain": basic.gain,
    "compress": compound.compress,
    "ring_mod": compound.ring_modulate,
    "bass_boost": compound.bass_boost,
    "tremolo": compound.tremolo,
    "distort": compound.distort,
    "echo": compound.echo,
    "reverb": compound.reverb,
    "discontinuity": linguistic.benign_discontinuity_audio,
}


def normalize_kind(name: str) -> str:
    return name.strip().lower().replace("-", "_")


@dataclass(frozen=True)
class Perturbation:
    """Reproducible descriptor: registry kind plus parameters (seeds
    included in ``params`` where an op takes one)."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        kind = normalize_kind(self.kind)
        if kind not in OPS:
            raise ParameterError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", dict(self.params))
        # parameter names fail here, at config load; values fail on apply
        placeholders = {"transcript": None} if self.needs_transcript else {}
        try:
            inspect.signature(OPS[kind]).bind(None, **placeholders, **self.params)
        except TypeError as exc:
            raise ParameterError(f"{kind}: {exc}") from exc

    @property
    def needs_transcript(self) -> bool:
        return "transcript" in inspect.signature(OPS[self.kind]).parameters

    def apply(
        self, audio: AudioBuffer, transcript: Optional[linguistic.Transcript] = None
    ) -> AudioBuffer:
        """Run the op; the transcript goes only to ops that take one."""
        params = dict(self.params)
        if self.needs_transcript:
            if transcript is None:
                raise DomainError(f"{self.kind} requires a seed transcript")
            params["transcript"] = transcript
        try:
            return OPS[self.kind](audio, **params)
        except TypeError as exc:
            # a parameter value of the wrong type surfaces as TypeError
            raise ParameterError(f"{self.kind}: {exc}") from exc

    def describe(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @property
    def label(self) -> str:
        """Human/report identifier, stable for a given descriptor; a kind
        without parameters reads ``kind()``."""
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}({inner})"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Perturbation":
        if "kind" not in payload:
            raise ParameterError("perturbation descriptor needs a 'kind'")
        return cls(payload["kind"], payload.get("params", {}))


__all__ = ["OPS", "Perturbation", "PerturbationFn", "normalize_kind", "basic", "compound"]
