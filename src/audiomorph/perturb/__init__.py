"""Toxicity-preserving perturbations and their registry.

A perturbation is described by a ``kind`` (registry key) plus a flat,
JSON-serializable parameter mapping, so campaign manifests can reproduce
any artifact from its descriptor alone. Ops with a ``transcript``
parameter (audio discontinuity) also take the seed's aligned transcript.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..audio import AudioBuffer
from ..errors import DomainError, ParameterError, read_params, reject_unknown_keys
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


@functools.lru_cache(maxsize=None)
def _signature(kind: str) -> inspect.Signature:
    # read once per kind; eval_str, as the op modules postpone annotations
    return inspect.signature(OPS[kind], eval_str=True)


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
        if not isinstance(self.params, Mapping):
            raise ParameterError(f"{kind}: 'params' must be an object, got {self.params!r}")
        object.__setattr__(self, "params", dict(self.params))
        # every value fails here, at config load, not on the first case; the
        # clip (x) and the seed's transcript are the op's inputs, not parameters
        params = [p for p in _signature(kind).parameters.values() if p.name != "transcript"]
        read_params(params[1:], self.params, f"relation {kind!r}")

    @property
    def needs_transcript(self) -> bool:
        return "transcript" in _signature(self.kind).parameters

    def apply(
        self, audio: AudioBuffer, transcript: Optional[linguistic.Transcript] = None
    ) -> AudioBuffer:
        """Run the op; the transcript goes only to ops that take one."""
        params = dict(self.params)
        if self.needs_transcript:
            if transcript is None:
                raise DomainError(f"{self.kind} requires a seed transcript")
            params["transcript"] = transcript
        return OPS[self.kind](audio, **params)

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
        """The relation of a ``{"kind", "params"}`` descriptor; any other key
        is a ConfigError naming it."""
        if not isinstance(payload, Mapping) or "kind" not in payload:
            raise ParameterError("perturbation descriptor must be an object with a 'kind'")
        reject_unknown_keys(payload, ("kind", "params"), f"relation {payload['kind']!r}")
        return cls(payload["kind"], payload.get("params", {}))


__all__ = ["OPS", "Perturbation", "PerturbationFn", "normalize_kind", "basic", "compound"]
