"""Backends: verdict types, fixtures, rate limiting, the HTTP adapter
against a local mock server, and the MFCC+DTW spotter."""

import base64
import itertools
import json
import math
import threading
import time

import numpy as np
import pytest

from audiomorph.audio import AudioBuffer, content_digest
from audiomorph.backends import (
    Category,
    ModerationBackend,
    Verdict,
    build_backend,
)
from audiomorph.backends.fixture import FixtureBackend, save_fixtures
from audiomorph.backends.http import HttpBackend
from audiomorph.backends.ratelimit import RateLimiter
from audiomorph.backends import spotter
from audiomorph.errors import (
    BackendUnavailableError,
    ConfigError,
    DomainError,
    MissingFixtureError,
    ParameterError,
    ResponseMappingError,
)
from audiomorph.perturb import basic
from .conftest import sine
from .mockserver import MockModerationServer

RATE = 16000


class TestVerdict:
    def test_category_parse(self):
        assert Category.parse("porn") is Category.PORN
        with pytest.raises(ConfigError):
            Category.parse("bogus")

    def test_confidence_range(self):
        assert Verdict(Category.SPAM, 0.5).confidence == 0.5
        with pytest.raises(ValueError):
            Verdict(Category.SPAM, 1.5)

    def test_toxicity(self):
        assert Verdict(Category.INSULT).is_toxic
        assert not Verdict(Category.NON_TOXIC).is_toxic

    def test_string_category_coerced(self):
        assert Verdict("spam").category is Category.SPAM


class TestFixtureBackend:
    def test_round_trip_lookup(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {content_digest(tone_440): Verdict(Category.PORN, 0.9)})
        backend = FixtureBackend.from_file(path, name="fx")
        verdict = backend.moderate(tone_440)
        assert verdict.category is Category.PORN
        assert verdict.confidence == 0.9

    def test_missing_digest(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {})
        with pytest.raises(MissingFixtureError):
            FixtureBackend.from_file(path).moderate(tone_440)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "fx.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            FixtureBackend.from_file(path)

    def test_unknown_category(self, tmp_path):
        path = tmp_path / "fx.json"
        path.write_text(json.dumps({"ab": {"category": "nope"}}), encoding="utf-8")
        with pytest.raises(ConfigError):
            FixtureBackend.from_file(path)

    def test_deterministic_across_instances(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {content_digest(tone_440): Verdict(Category.SPAM)})
        a = FixtureBackend.from_file(path).moderate(tone_440)
        b = FixtureBackend.from_file(path).moderate(tone_440)
        assert a.category is b.category


class TestRateLimiter:
    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            RateLimiter(0)

    def test_concurrent_grants_never_exceed_rate(self):
        limiter = RateLimiter(200.0)
        stamps = []
        lock = threading.Lock()

        def worker():
            for _ in range(10):
                limiter.acquire()
                with lock:
                    stamps.append(time.monotonic())

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stamps.sort()
        assert len(stamps) == 50
        # slots are spaced 5 ms; allow scheduler jitter on the sleeping side
        interval = 1.0 / 200.0
        for i in range(len(stamps) - 10):
            assert stamps[i + 10] - stamps[i] >= 10 * interval - 0.02


def _mapping(**overrides):
    base = {
        "path": "result.label",
        "categories": {"ok": "non_toxic", "abuse": "insult", "adult": "porn", "ad": "spam"},
        "confidence_path": "result.score",
    }
    base.update(overrides)
    return base


def _backend(server, **kwargs):
    defaults = dict(
        endpoint=server.url,
        response_mapping=_mapping(),
        rate_limit_per_s=500.0,
        max_attempts=3,
        backoff_s=0.01,
        timeout_s=5.0,
    )
    defaults.update(kwargs)
    return HttpBackend(**defaults)


class TestHttpBackend:
    def test_maps_label_and_confidence(self, tone_440):
        plan = lambda i, body: (200, {"result": {"label": "abuse", "score": 0.87}})
        with MockModerationServer(plan) as server:
            verdict = _backend(server).moderate(tone_440)
        assert verdict.category is Category.INSULT
        assert verdict.confidence == pytest.approx(0.87)
        assert verdict.raw == {"result": {"label": "abuse", "score": 0.87}}

    def test_body_placeholders_filled(self, tone_440):
        with MockModerationServer() as server:
            backend = _backend(
                server,
                body={"clip": "${audio_base64}", "rate": "${sample_rate}", "id": "${digest}"},
            )
            backend.moderate(tone_440)
            _, _, _, body = server.requests[0]
        sent = json.loads(body)
        assert sent["rate"] == str(RATE)
        assert sent["id"] == content_digest(tone_440)
        decoded = base64.b64decode(sent["clip"])
        assert decoded[:4] == b"RIFF"

    def test_env_secret_substitution(self, tone_440, monkeypatch):
        monkeypatch.setenv("FAKE_MOD_KEY", "sk-123")
        with MockModerationServer() as server:
            backend = _backend(server, headers={"Authorization": "Bearer ${env:FAKE_MOD_KEY}"})
            backend.moderate(tone_440)
            _, _, headers, _ = server.requests[0]
        assert headers["Authorization"] == "Bearer sk-123"

    def test_missing_env_var_is_config_error(self, tone_440, monkeypatch):
        monkeypatch.delenv("NO_SUCH_SECRET_VAR", raising=False)
        with MockModerationServer() as server:
            backend = _backend(server, headers={"X-Key": "${env:NO_SUCH_SECRET_VAR}"})
            with pytest.raises(ConfigError) as err:
                backend.moderate(tone_440)
        assert err.value.field == "NO_SUCH_SECRET_VAR"

    def test_retries_then_succeeds(self, tone_440):
        responses = iter([(500, {}), (200, {"result": {"label": "ok", "score": 0.1}})])
        with MockModerationServer(lambda i, b: next(responses)) as server:
            verdict = _backend(server).moderate(tone_440)
            assert len(server.requests) == 2
        assert verdict.category is Category.NON_TOXIC

    def test_exhausted_retries_unavailable(self, tone_440):
        with MockModerationServer(lambda i, b: (503, {})) as server:
            with pytest.raises(BackendUnavailableError):
                _backend(server, max_attempts=2).moderate(tone_440)
            assert len(server.requests) == 2

    def test_permanent_4xx_not_retried(self, tone_440):
        with MockModerationServer(lambda i, b: (404, {})) as server:
            with pytest.raises(BackendUnavailableError):
                _backend(server).moderate(tone_440)
            assert len(server.requests) == 1

    def test_connection_refused_unavailable(self, tone_440):
        backend = HttpBackend(
            endpoint="http://127.0.0.1:9/never",
            response_mapping=_mapping(),
            max_attempts=2,
            backoff_s=0.01,
            rate_limit_per_s=500.0,
            timeout_s=0.5,
        )
        with pytest.raises(BackendUnavailableError):
            backend.moderate(tone_440)

    def test_unmapped_label(self, tone_440):
        with MockModerationServer(lambda i, b: (200, {"result": {"label": "weird", "score": 0}})) as server:
            with pytest.raises(ResponseMappingError):
                _backend(server).moderate(tone_440)

    def test_missing_path(self, tone_440):
        with MockModerationServer(lambda i, b: (200, {"other": 1})) as server:
            with pytest.raises(ResponseMappingError):
                _backend(server).moderate(tone_440)

    def test_non_json_response(self, tone_440):
        with MockModerationServer(lambda i, b: (200, b"<html>")) as server:
            with pytest.raises(ResponseMappingError):
                _backend(server).moderate(tone_440)

    def test_multipart_upload(self, tone_440):
        with MockModerationServer() as server:
            backend = _backend(server, audio_encoding="multipart", body={"kind": "audio"})
            backend.moderate(tone_440)
            _, _, headers, body = server.requests[0]
        assert headers["Content-Type"].startswith("multipart/form-data")
        assert b'filename="clip.wav"' in body
        assert b"RIFF" in body

    def test_list_index_path(self, tone_440):
        plan = lambda i, b: (200, {"results": [{"label": "adult", "score": 0.6}]})
        with MockModerationServer(plan) as server:
            backend = _backend(server, response_mapping=_mapping(
                path="results.0.label", confidence_path="results.0.score"
            ))
            verdict = backend.moderate(tone_440)
        assert verdict.category is Category.PORN

    def test_no_confidence_path(self, tone_440):
        plan = lambda i, b: (200, {"result": {"label": "ok"}})
        with MockModerationServer(plan) as server:
            backend = _backend(server, response_mapping=_mapping(confidence_path=None))
            assert backend.moderate(tone_440).confidence is None


class TestExtractMfcc:
    def test_frame_count(self):
        buf = sine(440.0, duration_s=1.0)
        features = spotter.extract_mfcc(buf)
        assert len(features) == 98
        assert features.vectors.shape == (98, 13)

    def test_bitwise_deterministic(self, tone_440):
        a = spotter.extract_mfcc(tone_440)
        b = spotter.extract_mfcc(tone_440)
        assert np.array_equal(a.vectors, b.vectors)

    def test_gain_moves_only_coefficient_zero(self):
        buf = sine(300.0, amplitude=0.05, duration_s=0.5)
        louder = basic.gain(buf, 6.0)
        fa = spotter.extract_mfcc(buf).vectors
        fb = spotter.extract_mfcc(louder).vectors
        assert np.max(np.abs(fa[:, 1:] - fb[:, 1:])) < 1e-3
        assert np.min(np.abs(fa[:, 0] - fb[:, 0])) > 0.1

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            spotter.extract_mfcc(AudioBuffer(np.zeros(100), RATE))


def oracle_dtw(a, b):
    """Exhaustive DTW over every monotone path, lexicographic (cost, length)."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T if np.asarray(a).ndim == 1 else np.asarray(a)
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T if np.asarray(b).ndim == 1 else np.asarray(b)
    n, m = len(a), len(b)

    def dist(i, j):
        return float(np.linalg.norm(np.atleast_1d(a[i]) - np.atleast_1d(b[j])))

    best = [math.inf, math.inf]  # cost, length

    def walk(i, j, cost, length):
        cost += dist(i, j)
        length += 1
        if (i, j) == (n - 1, m - 1):
            if cost < best[0] - 1e-15 or (abs(cost - best[0]) <= 1e-15 and length < best[1]):
                best[0], best[1] = cost, length
            return
        if i + 1 < n:
            walk(i + 1, j, cost, length)
        if j + 1 < m:
            walk(i, j + 1, cost, length)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost, length)

    walk(0, 0, 0.0, 0)
    return best[0] / best[1]


class TestDtw:
    def test_identity_zero(self):
        seq = np.random.default_rng(0).normal(size=(10, 13))
        assert spotter.dtw_distance(seq, seq) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(8, 13)), rng.normal(size=(5, 13))
        assert spotter.dtw_distance(a, b) == pytest.approx(spotter.dtw_distance(b, a))

    def test_canonical_example(self):
        assert spotter.dtw_distance([0.0, 0.0, 1.0], [0.0, 1.0]) == 0.0
        assert oracle_dtw([0.0, 0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for n, m in itertools.product([1, 2, 3, 4], repeat=2):
            a = rng.normal(size=(n, 2))
            b = rng.normal(size=(m, 2))
            assert spotter.dtw_distance(a, b) == pytest.approx(oracle_dtw(a, b))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            spotter.dtw_distance(np.zeros((0, 13)), np.zeros((3, 13)))


class TestSpotKeywords:
    def _template(self, freq=500.0):
        return spotter.extract_mfcc(sine(freq, duration_s=0.4, amplitude=0.5))

    def test_clip_that_is_a_template(self):
        clip = sine(500.0, duration_s=0.4, amplitude=0.5)
        verdict = spotter.spot_keywords(
            clip, [("insult", self._template())], 0.4, 0.1, threshold=10.0
        )
        assert verdict.category is Category.INSULT
        assert verdict.confidence == 1.0  # distance exactly 0

    def test_window_longer_than_clip(self):
        clip = sine(500.0, duration_s=0.1)
        with pytest.raises(DomainError):
            spotter.spot_keywords(clip, [("insult", self._template())], 0.4, 0.1, 10.0)

    def test_no_templates(self, tone_440):
        with pytest.raises(ParameterError):
            spotter.spot_keywords(tone_440, [], 0.4, 0.1, 10.0)

    def test_distant_clip_non_toxic(self):
        clip = sine(3000.0, duration_s=0.6, amplitude=0.5)
        template = self._template(500.0)
        d = spotter.min_template_distance(clip, [("insult", template)], 0.4, 0.1)
        verdict = spotter.spot_keywords(clip, [("insult", template)], 0.4, 0.1, d / 2)
        assert verdict.category is Category.NON_TOXIC
        assert verdict.confidence == 0.0

    def test_embedded_template_found_mid_clip(self):
        word = sine(500.0, duration_s=0.4, amplitude=0.5)
        lead = sine(2000.0, duration_s=0.5, amplitude=0.3)
        tail = sine(2600.0, duration_s=0.5, amplitude=0.3)
        clip = AudioBuffer(
            np.concatenate([lead.samples, word.samples, tail.samples], axis=1), RATE
        )
        template = self._template(500.0)
        d_hit = spotter.min_template_distance(clip, [("porn", template)], 0.4, 0.1)
        d_miss = spotter.min_template_distance(lead, [("porn", template)], 0.4, 0.1)
        assert d_hit < d_miss
        verdict = spotter.spot_keywords(
            clip, [("porn", template)], 0.4, 0.1, threshold=(d_hit + d_miss) / 2
        )
        assert verdict.category is Category.PORN


class TestTemplatesAndCalibration:
    def test_load_templates_parses_names(self, tmp_path):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "insult__bark.wav")
        write_wav(sine(700.0, duration_s=0.4), tmp_path / "spam__jingle.wav")
        entries = spotter.load_templates(tmp_path)
        assert [tag for tag, _ in entries] == ["insult", "spam"]

    def test_bad_template_name(self, tmp_path):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "nounderscore.wav")
        with pytest.raises(ConfigError):
            spotter.load_templates(tmp_path)

    def test_non_toxic_tag_rejected(self, tmp_path):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "non_toxic__word.wav")
        with pytest.raises(ConfigError):
            spotter.load_templates(tmp_path)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            spotter.load_templates(tmp_path)

    def test_calibration_separates_classes(self):
        template = spotter.extract_mfcc(sine(500.0, duration_s=0.4, amplitude=0.5))
        templates = [("insult", template)]
        toxic = [sine(500.0, duration_s=0.4, amplitude=a) for a in (0.5, 0.4)]
        benign = [sine(3000.0, duration_s=0.4, amplitude=a) for a in (0.5, 0.4)]
        clips = [(c, True) for c in toxic] + [(c, False) for c in benign]
        threshold, accuracy = spotter.calibrate_threshold(clips, templates)
        assert accuracy == 1.0
        for clip, is_toxic in clips:
            d = spotter.min_template_distance(clip, templates, 0.4, 0.1)
            assert (d < threshold) == is_toxic


class TestBuildBackend:
    def test_fixture_kind(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {content_digest(tone_440): Verdict(Category.SPAM)})
        backend = build_backend({"kind": "fixture", "path": str(path), "name": "fx1"})
        assert backend.name == "fx1"
        assert backend.moderate(tone_440).category is Category.SPAM

    def test_spotter_kind(self, tmp_path):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "insult__bark.wav")
        backend = build_backend(
            {"kind": "keyword_spotter", "templates_dir": str(tmp_path), "threshold": 5.0}
        )
        assert isinstance(backend, ModerationBackend)

    def test_http_kind(self):
        backend = build_backend(
            {"kind": "http", "endpoint": "http://x/y", "response_mapping": _mapping()}
        )
        assert backend.name == "http"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            build_backend({"kind": "telepathy"})
        assert err.value.field == "kind"

    def test_missing_field_named(self):
        with pytest.raises(ConfigError) as err:
            build_backend({"kind": "fixture"})
        assert err.value.field == "path"
