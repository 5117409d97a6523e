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
from ..errors import ConfigError, read_params, reject_unknown_keys
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
def _signature(op: Callable) -> inspect.Signature:
    # read once per op; eval_str, as the op modules postpone annotations
    return inspect.signature(op, eval_str=True)


@dataclass(frozen=True)
class Perturbation:
    """Reproducible descriptor: registry kind plus parameters (seeds
    included in ``params`` where an op takes one)."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # every value fails here, at config load, not on the first case
        kind, params = self.kind, self.params
        if not (isinstance(kind, str) and normalize_kind(kind) in OPS):
            raise ConfigError(f"unknown relation kind {kind!r}", field="kind")
        kind = normalize_kind(kind)
        if not isinstance(params, Mapping):
            raise ConfigError(f"relation {kind!r}: 'params' must be an object, got {params!r}",
                              field="params")
        # the op's parameters after the clip; its transcript is an input
        parameters = list(_signature(OPS[kind]).parameters.values())[1:]
        read_params([p for p in parameters if p.name != "transcript"], params,
                    f"relation {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", dict(params))

    @property
    def needs_transcript(self) -> bool:
        return "transcript" in _signature(OPS[self.kind]).parameters

    def apply(
        self, audio: AudioBuffer, transcript: Optional[linguistic.Transcript] = None
    ) -> AudioBuffer:
        """Run the op; the transcript goes only to ops that take one."""
        params = dict(self.params)
        if self.needs_transcript:
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
    def from_dict(cls, payload: Any) -> "Perturbation":
        """The relation of a ``{"kind", "params"}`` descriptor; params default
        to ``{}``. A payload that is not an object with a ``kind``, or any
        other key, is a ConfigError naming the key."""
        if not isinstance(payload, Mapping) or "kind" not in payload:
            raise ConfigError(
                f"relation descriptor must be an object with a 'kind', got {payload!r}",
                field="kind",
            )
        reject_unknown_keys(payload, ("kind", "params"), f"relation {payload['kind']!r}")
        return cls(payload["kind"], payload.get("params", {}))


__all__ = ["OPS", "Perturbation", "PerturbationFn", "normalize_kind", "basic", "compound"]
