"""Exception types shared across the package, the JSON file reader and
writer that every recorded format goes through, and the key and value
checks that config readers share."""

import inspect
import json
import numbers
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import Union, get_args, get_origin


class AudiomorphError(Exception):
    """Base class for all package-specific errors."""


class WavFormatError(AudiomorphError):
    """Raised for a malformed or truncated RIFF/WAVE header or payload."""


class UnsupportedCodecError(WavFormatError):
    """Raised for well-formed WAV files whose encoding we do not decode."""


class ParameterError(AudiomorphError, ValueError):
    """Raised when an operation parameter is outside its documented range."""


class DomainError(AudiomorphError, ValueError):
    """Raised when an input is outside an operation's domain (e.g. silent
    audio where an SNR is required, or a clip shorter than one frame)."""


class ConfigError(AudiomorphError):
    """Raised for invalid campaign/backend configuration documents.

    ``field`` names the offending entry so CLI errors can point at it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; an unreadable file, invalid
    JSON or a value that is not an object is a ConfigError naming ``what``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return payload


def write_json(obj, path) -> None:
    """Write ``obj`` as JSON indented by 2 with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def reject_unknown_keys(entry: Mapping, known: Sequence[str], where: str) -> None:
    """Raise a ConfigError naming every key of ``entry`` not in ``known``;
    ``field`` is the first of them, sorted."""
    unknown = sorted(str(key) for key in entry if key not in known)
    if unknown:
        raise ConfigError(
            f"{where} has unknown keys {', '.join(map(repr, unknown))}"
            f" (known: {', '.join(known)})",
            field=unknown[0],
        )


def _is_a(value, annotation) -> bool:
    """Whether ``value``, as given, is of type ``annotation`` (or it is unannotated)."""
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation is inspect.Parameter.empty:
        return True
    if origin is Union:  # Optional[X] too
        return any(_is_a(value, member) for member in args)
    if isinstance(value, bool) and annotation in (int, float):  # bool is an int to isinstance
        return False
    if origin is Iterable:  # a list or tuple of X, never a bare string
        return isinstance(value, (list, tuple)) and all(_is_a(v, args[0]) for v in value)
    expected = {float: numbers.Real, int: numbers.Integral}.get(annotation, origin or annotation)
    return isinstance(value, expected)


def read_params(params: Iterable[inspect.Parameter], entry: Mapping, where: str) -> None:
    """Check ``entry`` against a signature's ``params``: an unknown key, a missing
    required parameter or a value not of its annotation, checked as given and
    never converted, is a ConfigError naming the key. A default always passes."""
    params = {p.name: p for p in params}
    reject_unknown_keys(entry, tuple(params), where)
    for name, p in params.items():
        value = entry.get(name, p.default)
        if value is p.empty:
            raise ConfigError(f"{where} is missing {name!r}", field=name)
        if not (value is p.default or _is_a(value, p.annotation)):
            expected = inspect.formatannotation(p.annotation)
            raise ConfigError(f"{where} {name} must be {expected}, got {value!r}", field=name)


class BackendUnavailableError(AudiomorphError):
    """Raised when a backend cannot produce a verdict (network failure
    after all retries, unreachable service).  Campaigns record the case
    as unanswered and continue."""


class MissingFixtureError(AudiomorphError):
    """Raised when a fixture backend has no entry for a content digest."""


class ResponseMappingError(AudiomorphError):
    """Raised when a provider response cannot be mapped onto a verdict."""


# a backend failure of these kinds leaves one clip unanswered; any other is a bug
CASE_ERRORS = (BackendUnavailableError, MissingFixtureError, ResponseMappingError)


class CampaignError(AudiomorphError):
    """Raised when a campaign cannot proceed at all (every backend down,
    artifact directory unwritable)."""
