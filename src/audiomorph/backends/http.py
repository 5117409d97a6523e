"""Generic HTTP adapter for remote moderation APIs.

Vendors differ wildly, so the request and response are described by a
declarative template instead of per-vendor code:

* ``endpoint``, ``method``, ``headers``: strings may reference
  environment variables as ``${env:NAME}``; secrets never live in the
  config file itself.
* ``body``: JSON template; string values may use the placeholders
  ``${audio_base64}``, ``${sample_rate}``, ``${duration_s}`` and
  ``${digest}``, the content digest the caller passes to ``moderate``.
  With ``audio_encoding: multipart`` the WAV bytes go as a file part
  instead and ``body`` supplies the form fields.
* ``response_mapping``: ``path`` is a dotted route into the JSON reply
  (list indices allowed); ``categories`` maps provider labels onto
  verdict categories; optional ``confidence_path`` likewise.

Failures after the retry budget surface as BackendUnavailableError so
campaigns can record the case as unanswered and continue.
"""

from __future__ import annotations

import base64
import math
import os
import re
import time
from typing import Any, Mapping, Optional

import requests

from ..audio import AudioBuffer, wav_bytes
from ..audio import content_digest  # unused; perfbench/tracing.py patches it here
from ..errors import BackendUnavailableError, ConfigError, ResponseMappingError
from . import Category, ModerationBackend, Verdict
from .ratelimit import RateLimiter

_ENV_PATTERN = re.compile(r"\$\{env:([A-Za-z_][A-Za-z0-9_]*)\}")
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


def _substitute_env(value: str) -> str:
    def repl(match):
        name = match.group(1)
        if name not in os.environ:
            raise ConfigError(f"environment variable {name} is not set", field=name)
        return os.environ[name]

    return _ENV_PATTERN.sub(repl, value)


def _substitute(value: Any, context: Mapping[str, str]) -> Any:
    if isinstance(value, str):
        out = _substitute_env(value)
        for key, rep in context.items():
            out = out.replace("${" + key + "}", rep)
        return out
    if isinstance(value, dict):
        return {k: _substitute(v, context) for k, v in value.items()}
    if isinstance(value, list):
        return [_substitute(v, context) for v in value]
    return value


def _walk_path(payload: Any, path: str) -> Any:
    current = payload
    for part in path.split("."):
        if isinstance(current, list):
            try:
                current = current[int(part)]
            except (ValueError, IndexError) as exc:
                raise ResponseMappingError(
                    f"response path {path!r}: cannot index list with {part!r}"
                ) from exc
        elif isinstance(current, dict) and part in current:
            current = current[part]
        else:
            raise ResponseMappingError(f"response path {path!r}: {part!r} not found")
    return current


class HttpBackend(ModerationBackend):
    def __init__(
        self,
        endpoint: str,
        response_mapping: Mapping[str, Any],
        method: str = "POST",
        headers: Optional[Mapping[str, str]] = None,
        body: Optional[Mapping[str, Any]] = None,
        audio_encoding: str = "base64",
        rate_limit_per_s: float = 5.0,
        max_attempts: int = 3,
        backoff_s: float = 0.5,
        timeout_s: float = 30.0,
        name: str = "http",
    ):
        if "path" not in response_mapping or "categories" not in response_mapping:
            raise ConfigError(
                "response_mapping needs 'path' and 'categories'", field="response_mapping"
            )
        if audio_encoding not in ("base64", "multipart"):
            raise ConfigError(
                f"audio_encoding must be base64 or multipart, got {audio_encoding!r}",
                field="audio_encoding",
            )
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1", field="max_attempts")
        if not rate_limit_per_s > 0:  # NaN fails this too
            raise ConfigError(
                f"rate_limit_per_s must be > 0, got {rate_limit_per_s!r}", field="rate_limit_per_s"
            )
        if not (math.isfinite(backoff_s) and backoff_s >= 0):
            raise ConfigError(
                f"backoff_s must be finite and >= 0, got {backoff_s!r}", field="backoff_s"
            )
        if not (math.isfinite(timeout_s) and timeout_s > 0):
            raise ConfigError(
                f"timeout_s must be finite and > 0, got {timeout_s!r}", field="timeout_s"
            )
        self.name = name
        self._endpoint = endpoint
        self._method = method.upper()
        self._headers = dict(headers or {})
        self._body = dict(body or {})
        self._audio_encoding = audio_encoding
        self._mapping = dict(response_mapping)
        self._categories = {
            str(k): Category.parse(v) for k, v in response_mapping["categories"].items()
        }
        self._limiter = RateLimiter(rate_limit_per_s)
        self._max_attempts = int(max_attempts)
        self._backoff_s = float(backoff_s)
        self._timeout_s = float(timeout_s)
        self._session = requests.Session()

    def moderate(self, audio: AudioBuffer, digest: str) -> Verdict:
        blob = wav_bytes(audio)
        context = {
            "audio_base64": base64.b64encode(blob).decode("ascii"),
            "sample_rate": str(audio.sample_rate),
            "digest": digest,
            "duration_s": f"{audio.duration:.6f}",
        }
        url = _substitute(self._endpoint, context)
        headers = _substitute(self._headers, context)
        body = _substitute(self._body, context)

        if self._audio_encoding == "multipart":
            request = requests.Request(
                self._method,
                url,
                headers=headers,
                data=body,
                files={"file": ("clip.wav", blob, "audio/wav")},
            )
        else:
            request = requests.Request(self._method, url, headers=headers, json=body)

        last_error: Optional[str] = None
        for attempt in range(1, self._max_attempts + 1):
            try:
                # everything but the send happens before admission, so the
                # limiter's spacing reaches the wire with the least delay
                prepared = self._session.prepare_request(request)
                settings = self._session.merge_environment_settings(
                    prepared.url, {}, None, None, None
                )
                self._limiter.acquire()
                response = self._session.send(prepared, timeout=self._timeout_s, **settings)
            except requests.RequestException as exc:
                last_error = str(exc)
                response = None
            if response is not None:
                if response.status_code < 400:
                    return self._map_response(response)
                last_error = f"HTTP {response.status_code}"
                if response.status_code not in _RETRYABLE_STATUS:
                    break
            if attempt < self._max_attempts:
                time.sleep(self._backoff_s * 2 ** (attempt - 1))
        raise BackendUnavailableError(
            f"backend {self.name!r} gave no answer after {self._max_attempts} "
            f"attempt(s): {last_error}"
        )

    def _map_response(self, response) -> Verdict:
        try:
            payload = response.json()
        except ValueError as exc:
            raise ResponseMappingError(f"response is not JSON: {exc}") from exc
        label = _walk_path(payload, self._mapping["path"])
        key = str(label)
        if key not in self._categories:
            raise ResponseMappingError(
                f"provider label {label!r} has no category mapping"
            )
        confidence = None
        confidence_path = self._mapping.get("confidence_path")
        if confidence_path:
            value = _walk_path(payload, confidence_path)
            try:
                confidence = float(value)
            except (TypeError, ValueError) as exc:
                raise ResponseMappingError(
                    f"confidence at {confidence_path!r} is not numeric: {value!r}"
                ) from exc
        return Verdict(self._categories[key], confidence)
