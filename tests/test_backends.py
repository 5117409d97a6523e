"""Backends: verdict types, fixtures, rate limiting, the HTTP adapter
against a local mock server, and the MFCC+DTW spotter."""

import base64
import inspect
import itertools
import json
import math
import re
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from audiomorph import deskcorpus
from audiomorph.audio import AudioBuffer, content_digest
from audiomorph.backends import (
    Category,
    ModerationBackend,
    Verdict,
    build_backend,
)
from audiomorph.backends.fixture import FixtureBackend, save_fixtures
from audiomorph.backends.http import HttpBackend
from audiomorph import backends
from audiomorph.backends import ratelimit
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
from .oracles import pairwise_sum

RATE = 16000


class TestVerdict:
    def test_category_parse(self):
        assert Category.parse("porn") is Category.PORN
        assert Category.parse(Category.PORN) is Category.PORN
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
        verdict = backend.moderate(tone_440, content_digest(tone_440))
        assert verdict.category is Category.PORN
        assert verdict.confidence == 0.9

    def test_missing_digest(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {})
        with pytest.raises(MissingFixtureError):
            FixtureBackend.from_file(path).moderate(tone_440, content_digest(tone_440))

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

    @pytest.mark.parametrize("confidence", ["abc", 2, -0.1, math.nan, [0.5]])
    def test_bad_confidence(self, tmp_path, confidence):
        path = tmp_path / "fx.json"
        entry = {"category": "spam", "confidence": confidence}
        path.write_text(json.dumps({"ab": entry}), encoding="utf-8")
        with pytest.raises(ConfigError, match="confidence") as err:
            FixtureBackend.from_file(path)
        assert err.value.field == "confidence"

    def test_lookup_uses_the_digest_it_is_handed(self, tone_440):
        # the clip is never hashed: another clip with tone_440's digest gets
        # tone_440's recorded verdict
        backend = FixtureBackend({content_digest(tone_440): Verdict(Category.PORN, 0.9)})
        other = sine(880.0)
        assert backend.moderate(other, content_digest(tone_440)) == Verdict(Category.PORN, 0.9)

    def test_deterministic_across_instances(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {content_digest(tone_440): Verdict(Category.SPAM)})
        a = FixtureBackend.from_file(path).moderate(tone_440, content_digest(tone_440))
        b = FixtureBackend.from_file(path).moderate(tone_440, content_digest(tone_440))
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

    def test_late_wake_pushes_back_the_next_grant(self, monkeypatch):
        class Clock:
            """Virtual time; the first sleep overshoots by 15 ms."""

            def __init__(self):
                self.now = 100.0
                self.late = [0.015]

            def monotonic(self):
                return self.now

            def sleep(self, seconds):
                self.now += seconds + (self.late.pop() if self.late else 0.0)

        clock = Clock()
        monkeypatch.setattr(ratelimit, "time", clock)
        limiter = RateLimiter(200.0)
        grants = []
        for _ in range(4):
            limiter.acquire()
            grants.append(clock.now)
        # without the push-back, the grant after the late one would come
        # at once, 0 ms after it
        gaps = np.diff(grants)
        assert np.all(gaps >= 0.005 - 1e-12), gaps


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
            verdict = _backend(server).moderate(tone_440, content_digest(tone_440))
        assert verdict.category is Category.INSULT
        assert verdict.confidence == pytest.approx(0.87)

    def test_body_placeholders_filled(self, tone_440):
        with MockModerationServer() as server:
            backend = _backend(
                server,
                body={"clip": "${audio_base64}", "rate": "${sample_rate}", "id": "${digest}"},
            )
            backend.moderate(tone_440, content_digest(tone_440))
            _, _, _, body = server.requests[0]
        sent = json.loads(body)
        assert sent["rate"] == str(RATE)
        assert sent["id"] == content_digest(tone_440)
        decoded = base64.b64decode(sent["clip"])
        assert decoded[:4] == b"RIFF"

    def test_digest_placeholder_is_the_callers(self, tone_440):
        passed = "0123456789abcdef" * 4
        with MockModerationServer() as server:
            _backend(server, body={"id": "${digest}"}).moderate(tone_440, passed)
            _, _, _, body = server.requests[0]
        assert json.loads(body)["id"] == passed != content_digest(tone_440)

    def test_env_secret_substitution(self, tone_440, monkeypatch):
        monkeypatch.setenv("FAKE_MOD_KEY", "sk-123")
        with MockModerationServer() as server:
            backend = _backend(server, headers={"Authorization": "Bearer ${env:FAKE_MOD_KEY}"})
            backend.moderate(tone_440, content_digest(tone_440))
            _, _, headers, _ = server.requests[0]
        assert headers["Authorization"] == "Bearer sk-123"

    def test_missing_env_var_is_config_error(self, tone_440, monkeypatch):
        monkeypatch.delenv("NO_SUCH_SECRET_VAR", raising=False)
        with MockModerationServer() as server:
            backend = _backend(server, headers={"X-Key": "${env:NO_SUCH_SECRET_VAR}"})
            with pytest.raises(ConfigError) as err:
                backend.moderate(tone_440, content_digest(tone_440))
        assert err.value.field == "NO_SUCH_SECRET_VAR"

    def test_retries_then_succeeds(self, tone_440):
        responses = iter([(500, {}), (200, {"result": {"label": "ok", "score": 0.1}})])
        with MockModerationServer(lambda i, b: next(responses)) as server:
            verdict = _backend(server).moderate(tone_440, content_digest(tone_440))
            assert len(server.requests) == 2
        assert verdict.category is Category.NON_TOXIC

    def test_exhausted_retries_unavailable(self, tone_440):
        with MockModerationServer(lambda i, b: (503, {})) as server:
            with pytest.raises(BackendUnavailableError):
                _backend(server, max_attempts=2).moderate(tone_440, content_digest(tone_440))
            assert len(server.requests) == 2

    def test_permanent_4xx_not_retried(self, tone_440):
        with MockModerationServer(lambda i, b: (404, {})) as server:
            with pytest.raises(BackendUnavailableError):
                _backend(server).moderate(tone_440, content_digest(tone_440))
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
            backend.moderate(tone_440, content_digest(tone_440))

    def test_unmapped_label(self, tone_440):
        with MockModerationServer(lambda i, b: (200, {"result": {"label": "weird", "score": 0}})) as server:
            with pytest.raises(ResponseMappingError):
                _backend(server).moderate(tone_440, content_digest(tone_440))

    def test_missing_path(self, tone_440):
        with MockModerationServer(lambda i, b: (200, {"other": 1})) as server:
            with pytest.raises(ResponseMappingError):
                _backend(server).moderate(tone_440, content_digest(tone_440))

    def test_non_json_response(self, tone_440):
        with MockModerationServer(lambda i, b: (200, b"<html>")) as server:
            with pytest.raises(ResponseMappingError):
                _backend(server).moderate(tone_440, content_digest(tone_440))

    def test_multipart_upload(self, tone_440):
        with MockModerationServer() as server:
            backend = _backend(server, audio_encoding="multipart", body={"kind": "audio"})
            backend.moderate(tone_440, content_digest(tone_440))
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
            verdict = backend.moderate(tone_440, content_digest(tone_440))
        assert verdict.category is Category.PORN

    def test_no_confidence_path(self, tone_440):
        plan = lambda i, b: (200, {"result": {"label": "ok"}})
        with MockModerationServer(plan) as server:
            backend = _backend(server, response_mapping=_mapping(confidence_path=None))
            assert backend.moderate(tone_440, content_digest(tone_440)).confidence is None


class TestExtractMfcc:
    def test_frame_count(self):
        buf = sine(440.0, duration_s=1.0)
        features = spotter.extract_mfcc(buf)
        assert features.shape == (98, 13) and features.dtype == np.float64
        assert not features.flags.writeable

    def test_bitwise_deterministic(self, tone_440):
        a = spotter.extract_mfcc(tone_440)
        b = spotter.extract_mfcc(tone_440)
        assert np.array_equal(a, b)

    def test_gain_moves_only_coefficient_zero(self):
        buf = sine(300.0, amplitude=0.05, duration_s=0.5)
        louder = basic.gain(buf, 6.0)
        fa = spotter.extract_mfcc(buf)
        fb = spotter.extract_mfcc(louder)
        assert np.max(np.abs(fa[:, 1:] - fb[:, 1:])) < 1e-3
        assert np.min(np.abs(fa[:, 0] - fb[:, 0])) > 0.1

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            spotter.extract_mfcc(AudioBuffer(np.zeros(100), RATE))

    @pytest.mark.parametrize("rate", [8000, RATE, 44100])
    def test_matrices_cached_read_only_and_unchanged(self, rate):
        bank = spotter._mel_filterbank(rate)
        dct = spotter._dct_matrix(spotter.N_COEFFICIENTS, spotter.MEL_FILTERS)
        assert spotter._mel_filterbank(rate) is bank
        assert not bank.flags.writeable and not dct.flags.writeable
        # the cached matrices equal freshly built ones, so features do too
        fresh_bank = spotter._mel_filterbank.__wrapped__(rate)
        fresh_dct = spotter._dct_matrix.__wrapped__(spotter.N_COEFFICIENTS, spotter.MEL_FILTERS)
        assert bank.tobytes() == fresh_bank.tobytes()
        assert dct.tobytes() == fresh_dct.tobytes()
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        frame_len = int(round(spotter.FRAME_S * rate))
        window = spotter._hamming(frame_len)
        assert spotter._hamming(frame_len) is window
        assert not window.flags.writeable
        assert window.tobytes() == np.hamming(frame_len).tobytes()
        with pytest.raises(ValueError):
            window[0] = 1.0


def oracle_dtw(a, b):
    """Exhaustive DTW over every monotone path, lexicographic (cost, length)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n, m = len(a), len(b)

    def dist(i, j):
        return float(np.linalg.norm(a[i] - b[j]))

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


def loop_dtw(a, b):
    """The spotter's DP one cell at a time, the reference for the batched
    wavefront: start from the diagonal neighbour, then try up, then left,
    and take a neighbour only at strictly lower cost, or at equal cost with
    a shorter path."""
    fa, fb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    n, m = fa.shape[0], fb.shape[0]
    diff = fa[:, np.newaxis, :] - fb[np.newaxis, :, :]
    local = np.sqrt(np.sum(diff * diff, axis=2))

    cost = np.full((n + 1, m + 1), math.inf)
    length = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        row = local[i - 1]
        for j in range(1, m + 1):
            best_cost, best_len = cost[i - 1, j - 1], length[i - 1, j - 1]
            for ci, cj in ((i - 1, j), (i, j - 1)):
                c, l = cost[ci, cj], length[ci, cj]
                if c < best_cost or (c == best_cost and l < best_len):
                    best_cost, best_len = c, l
            cost[i, j] = best_cost + row[j - 1]
            length[i, j] = best_len + 1
    return float(cost[n, m] / length[n, m])


def loop_sweep(features, templates, window_frames, starts):
    """The spotter's winner rule one pair at a time: strict < over
    (template, start) order."""
    best_distance, best_tag = math.inf, None
    for tag, template in templates:
        for start in starts:
            d = loop_dtw(features[start : start + window_frames], template)
            if d < best_distance:
                best_distance, best_tag = d, tag
    return best_distance, best_tag


@st.composite
def dtw_windows(draw):
    """(a, b, windows): a of shape (frames, d), b of shape (*batch_b, m, d),
    and windows, frame indices of a shaped (*batch_w, n) with broadcastable
    batches. The windows step over a as a sweep's do (overlapping when the
    step is shorter than n), end with a trailing window off the step grid
    when the step does not divide, and repeat some windows; or they hold
    arbitrary frame indices; or they are None, the default of one window
    holding all of a."""
    frames = draw(st.integers(1, 10))
    n, m, d = draw(st.integers(1, frames)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    step = draw(st.integers(1, n + 1))
    starts = list(range(0, frames - n + 1, step))
    if starts[-1] != frames - n:
        starts.append(frames - n)
    starts += draw(st.lists(st.sampled_from(starts), max_size=2))
    windows = np.add.outer(starts, np.arange(n))
    if draw(st.booleans()):
        windows = draw(hnp.arrays(np.intp, windows.shape, elements=st.integers(0, frames - 1)))
    if draw(st.booleans()):
        windows = windows[0]  # one window: the batch is b's alone
    if draw(st.integers(0, 3)) == 0:
        windows = None
    batch_w = () if windows is None else windows.shape[:-1]
    batch_b = draw(st.sampled_from([(), (draw(st.integers(1, 3)), 1), batch_w]))
    if draw(st.booleans()):
        elements = st.integers(-2, 2).map(float)
    else:
        elements = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    a = draw(hnp.arrays(np.float64, (frames, d), elements=elements))
    b = draw(hnp.arrays(np.float64, batch_b + (m, d), elements=elements))
    return a, b, windows


class TestDtw:
    @given(
        dtw_windows(),
        st.sampled_from([1, 40, spotter._BLOCK_CELLS]),
        st.sampled_from([1, 40, spotter._DIFF_VALUES]),
    )
    @settings(max_examples=150, deadline=None)
    def test_windowed_equals_gathered_and_loop_reference(self, case, block_cells, diff_values):
        # every window shares one frame distance table; small limits split
        # the table, its gathers and the wavefront into pieces
        a, b, windows = case
        with (
            mock.patch.object(spotter, "_BLOCK_CELLS", block_cells),
            mock.patch.object(spotter, "_DIFF_VALUES", diff_values),
        ):
            got = spotter.dtw_distance(a, b, windows=windows)
        if windows is None:
            windows = np.arange(len(a))
        batch = np.broadcast_shapes(windows.shape[:-1], b.shape[:-2])
        if not batch:
            assert isinstance(got, float)
            assert got == loop_dtw(a[windows], b)
            return
        assert got.shape == batch
        windows = np.broadcast_to(windows, batch + windows.shape[-1:])
        b = np.broadcast_to(b, batch + b.shape[-2:])
        for index in np.ndindex(batch):
            assert got[index] == loop_dtw(a[windows[index]], b[index])

    @pytest.mark.parametrize(
        "a, windows, error",
        [
            (np.zeros(5), [[0, 1]], ParameterError),  # a sequence of scalars
            (np.zeros((5, 2)), [[0.0, 1.0]], ParameterError),
            (np.zeros((5, 2)), 0, ParameterError),
            (np.zeros((5, 2)), np.zeros((1, 0), dtype=int), DomainError),
            (np.zeros((0, 2)), [[0, 1]], DomainError),
            (np.zeros((5, 1)), [[0, 1]], ParameterError),  # b's frames have 2 coefficients
            (np.zeros((5, 2)), [-1, 0], ParameterError),  # would wrap to the last frame
            (np.zeros((5, 2)), [4, 5], ParameterError),
            (np.zeros((5, 2)), [[0, 1], [2, 7]], ParameterError),
        ],
    )
    def test_windowed_rejects_bad_inputs(self, a, windows, error):
        with pytest.raises(error):
            spotter.dtw_distance(a, np.zeros((3, 2)), windows=windows)

    def test_one_dimensional_b_rejected(self):
        with pytest.raises(ParameterError):
            spotter.dtw_distance(np.zeros((5, 2)), np.zeros(3), windows=[[0, 1]])

    def test_identity_zero(self):
        seq = np.random.default_rng(0).normal(size=(10, 13))
        assert spotter.dtw_distance(seq, seq) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(8, 13)), rng.normal(size=(5, 13))
        assert spotter.dtw_distance(a, b) == pytest.approx(spotter.dtw_distance(b, a))

    def test_canonical_example(self):
        a, b = [[0.0], [0.0], [1.0]], [[0.0], [1.0]]
        assert spotter.dtw_distance(a, b) == 0.0
        assert oracle_dtw(a, b) == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for n, m in itertools.product([1, 2, 3, 4], repeat=2):
            a = rng.normal(size=(n, 2))
            b = rng.normal(size=(m, 2))
            assert spotter.dtw_distance(a, b) == pytest.approx(oracle_dtw(a, b))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            spotter.dtw_distance(np.zeros((0, 13)), np.zeros((3, 13)))

    @given(
        st.integers(1, 300),
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(1, 3),
        st.sampled_from([1, 40, 1000]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_local_distances_sum_in_pairwise_order(self, d, n, t, m, diff_values, data):
        # every branch of the summation order: d < 8, 8 <= d <= 128 with and
        # without a tail, and d > 128 split in halves; the table is formed in
        # row chunks of a few frames
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        fa = data.draw(hnp.arrays(np.float64, (n, d), elements=elements))
        fb = data.draw(hnp.arrays(np.float64, (t, m, d), elements=elements))
        with mock.patch.object(spotter, "_DIFF_VALUES", diff_values):
            got = spotter._local_distances(fa, fb)
        assert got.shape == (t, n, m)
        for k, i, j in np.ndindex(t, n, m):
            squares = [(x - y) * (x - y) for x, y in zip(fa[i].tolist(), fb[k, j].tolist())]
            assert got[k, i, j] == math.sqrt(pairwise_sum(squares))


class TestSweep:
    """``_sweep_many`` of one clip, and the verdict ``_verdict`` makes of it:
    the path of every spotter answer."""

    def _template(self, freq=500.0):
        return spotter.extract_mfcc(sine(freq, duration_s=0.4, amplitude=0.5))

    def test_clip_that_is_a_template(self):
        clip = sine(500.0, duration_s=0.4, amplitude=0.5)
        [sweep] = spotter._sweep_many([clip], [("insult", self._template())], 0.4, 0.1)
        verdict = spotter._verdict(*sweep, threshold=10.0)
        assert verdict.category is Category.INSULT
        assert verdict.confidence == 1.0  # distance exactly 0

    def test_window_longer_than_clip(self):
        clip = sine(500.0, duration_s=0.1)
        with pytest.raises(DomainError):
            spotter._sweep_many([clip], [("insult", self._template())], 0.4, 0.1)

    def test_no_templates(self, tone_440):
        with pytest.raises(ParameterError):
            spotter._sweep_many([tone_440], [], 0.4, 0.1)

    def test_distant_clip_non_toxic(self):
        clip = sine(3000.0, duration_s=0.6, amplitude=0.5)
        template = self._template(500.0)
        [(d, tag)] = spotter._sweep_many([clip], [("insult", template)], 0.4, 0.1)
        verdict = spotter._verdict(d, tag, threshold=d / 2)
        assert verdict.category is Category.NON_TOXIC
        assert verdict.confidence == 0.0

    def test_sweep_matches_loop_reference(self):
        # templates of two lengths: the sweep batches each length on its own
        # but must rank every (template, start) pair as the loop does
        word = sine(500.0, duration_s=0.4, amplitude=0.5)
        clip = AudioBuffer(
            np.concatenate(
                [sine(2000.0, duration_s=0.3).samples, word.samples,
                 sine(2600.0, duration_s=0.3).samples], axis=1,
            ),
            RATE,
        )
        templates = [
            ("spam", self._template(900.0)),
            ("insult", spotter.extract_mfcc(sine(2000.0, duration_s=0.3))),
            ("porn", self._template(500.0)),
        ]
        features = spotter.extract_mfcc(clip)
        assert len(features) == 98  # 38-frame windows start at 0, 10, ..., 60
        expected = loop_sweep(features, templates, 38, range(0, 61, 10))
        assert spotter._sweep_many([clip], templates, 0.4, 0.1) == [expected]

    def test_multi_second_sweep_matches_loop_reference(self):
        # three desk seeds and a quarter second more: 323 feature frames, so
        # 30 overlapping 38-frame windows step by 10 and the trailing one
        # starts off that grid, at 285; the 0.3 s template has 28 frames
        seeds = deskcorpus.synth_seeds(103)
        samples = np.concatenate([clip.samples for _, _, clip in seeds[:4]], axis=1)
        clip = AudioBuffer(samples[:, : int(3.25 * RATE)], RATE)
        words = deskcorpus.synth_templates()
        templates = [
            (filename.split("__")[0], spotter.extract_mfcc(buf))
            for filename, buf in sorted(words.items())
        ]
        cut = words["porn__moan.wav"].samples[:, : int(0.3 * RATE)]
        templates.insert(1, ("porn", spotter.extract_mfcc(AudioBuffer(cut, RATE))))
        assert sorted({len(t) for _, t in templates}) == [28, 38]
        features = spotter.extract_mfcc(clip)
        assert len(features) == 323
        starts = [*range(0, 281, 10), 285]
        expected = loop_sweep(features, templates, 38, starts)
        assert spotter._sweep_many([clip], templates, 0.4, 0.1) == [expected]

    def test_sweep_tie_breaks(self):
        template = self._template(500.0)
        clip = sine(500.0, duration_s=1.0, amplitude=0.5)
        first = spotter._sweep_many([clip], [("insult", template), ("spam", template)], 0.4, 0.1)[0]
        assert first[1] == "insult"
        assert spotter._sweep_many(
            [clip], [("spam", template), ("insult", template)], 0.4, 0.1
        ) == [(first[0], "spam")]
        # silence: every window is the same, and the sweep reports the
        # distance of the one at start 0
        silence = AudioBuffer(np.zeros(RATE), RATE)
        features = spotter.extract_mfcc(silence)
        assert spotter._sweep_many([silence], [("porn", template)], 0.4, 0.1) == [
            (loop_dtw(features[:38], template), "porn")
        ]

    def test_embedded_template_found_mid_clip(self):
        word = sine(500.0, duration_s=0.4, amplitude=0.5)
        lead = sine(2000.0, duration_s=0.5, amplitude=0.3)
        tail = sine(2600.0, duration_s=0.5, amplitude=0.3)
        clip = AudioBuffer(
            np.concatenate([lead.samples, word.samples, tail.samples], axis=1), RATE
        )
        template = self._template(500.0)
        [hit, miss] = spotter._sweep_many([clip, lead], [("porn", template)], 0.4, 0.1)
        assert hit[0] < miss[0]
        verdict = spotter._verdict(*hit, threshold=(hit[0] + miss[0]) / 2)
        assert verdict.category is Category.PORN


@pytest.fixture(scope="module")
def two_length_spotter(tmp_path_factory):
    """A spotter over a 0.4 s and a 0.3 s template (38 and 28 frames)."""
    from audiomorph.audio import write_wav

    directory = tmp_path_factory.mktemp("templates")
    write_wav(sine(500.0, duration_s=0.4), directory / "insult__low.wav")
    write_wav(sine(1200.0, duration_s=0.3), directory / "spam__high.wav")
    return spotter.KeywordSpotterBackend(directory, threshold=12.0)


def _noisy_sine(freq, duration_s, seed):
    tone = sine(freq, duration_s=duration_s, amplitude=0.4).samples
    noise = np.random.default_rng(seed).normal(0.0, 0.05, tone.shape)
    return AudioBuffer(tone + noise, RATE)


class TestModerateMany:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.4, 0.45, 0.6, 0.73]),
                st.sampled_from([500.0, 800.0, 1200.0, 3000.0]),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 40, spotter._BLOCK_CELLS]),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_clip_by_clip(self, two_length_spotter, specs, block_cells):
        # clips of mixed lengths share one sweep; small blocks split its
        # wavefront across clip boundaries
        backend = two_length_spotter
        clips = [_noisy_sine(freq, duration_s, seed) for duration_s, freq, seed in specs]
        digests = [content_digest(clip) for clip in clips]
        with mock.patch.object(spotter, "_BLOCK_CELLS", block_cells):
            batched = backend.moderate_many(clips, digests)
            sweeps = spotter._sweep_many(clips, backend._templates, 0.4, 0.1)
        alone = [backend.moderate(clip, digest) for clip, digest in zip(clips, digests)]
        assert [(v.category, v.confidence) for v in batched] == [
            (v.category, v.confidence) for v in alone
        ]
        for clip, sweep in zip(clips, sweeps):
            features = spotter.extract_mfcc(clip)
            # 38-frame windows every 10 frames, plus one reaching the end
            starts = list(range(0, len(features) - 37, 10))
            if starts[-1] != len(features) - 38:
                starts.append(len(features) - 38)
            assert sweep == loop_sweep(features, backend._templates, 38, starts)

    @pytest.mark.parametrize(
        "short",
        [sine(500.0, duration_s=0.2), sine(500.0, duration_s=0.01)],
        ids=["shorter than a window", "shorter than a frame"],
    )
    def test_short_clip_in_a_batch_raises_as_alone(self, two_length_spotter, short):
        clip = _noisy_sine(500.0, 0.6, 0)
        with pytest.raises(DomainError) as alone:
            two_length_spotter.moderate(short, "")
        with pytest.raises(DomainError) as batched:
            two_length_spotter.moderate_many([clip, short, clip], ["", "", ""])
        assert (type(batched.value), str(batched.value)) == (type(alone.value), str(alone.value))

    def test_clips_whose_windows_differ_in_length_swept_alone(self):
        # 5 s windows are 498 frames at 16 kHz and 499 at 22.05 kHz (a
        # 220-sample hop): such clips cannot share one dtw_distance call
        template = [("insult", spotter.extract_mfcc(sine(500.0, duration_s=5.0)))]
        clips = [sine(500.0, duration_s=5.2), sine(520.0, duration_s=5.2, rate=22050)]
        frames = [len(spotter.extract_mfcc(clip)) for clip in clips]
        lengths = {spotter._windows(c, n, 5.0, 1.0).shape[1] for c, n in zip(clips, frames)}
        assert lengths == {498, 499}
        alone = [spotter._sweep_many([clip], template, 5.0, 1.0)[0] for clip in clips]
        assert spotter._sweep_many(clips, template, 5.0, 1.0) == alone

    def test_default_leaves_only_the_failing_clip_unanswered(self, tone_440):
        class Picky(ModerationBackend):
            def moderate(self, audio, digest):
                if digest == "bad":
                    raise BackendUnavailableError("down")
                return Verdict(Category.SPAM, 0.5)

        answers = Picky().moderate_many([tone_440] * 3, ["a", "bad", "c"])
        assert answers == [Verdict(Category.SPAM, 0.5), None, Verdict(Category.SPAM, 0.5)]


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
        sweeps = spotter._sweep_many([clip for clip, _ in clips], templates, 0.4, 0.1)
        assert [d < threshold for d, _ in sweeps] == [is_toxic for _, is_toxic in clips]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["window_s", "hop_s"])
    def test_calibration_checks_window_and_hop_as_a_config_does(self, field, value):
        clips = [(sine(500.0, duration_s=0.4), True)]
        templates = [("insult", spotter.extract_mfcc(sine(500.0, duration_s=0.4)))]
        with pytest.raises(ConfigError, match=field) as err:
            spotter.calibrate_threshold(clips, templates, **{field: value})
        assert err.value.field == field


class TestBuildBackend:
    def test_fixture_kind(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {content_digest(tone_440): Verdict(Category.SPAM)})
        backend = build_backend({"kind": "fixture", "path": str(path), "name": "fx1"})
        assert backend.name == "fx1"
        assert backend.moderate(tone_440, content_digest(tone_440)).category is Category.SPAM

    def test_spotter_kind(self, tmp_path):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "insult__bark.wav")
        backend = build_backend(
            {"kind": "keyword_spotter", "templates_dir": str(tmp_path), "threshold": 5.0}
        )
        assert isinstance(backend, ModerationBackend)

    @pytest.mark.parametrize(
        "field, value",
        [("threshold", -1.0), ("threshold", math.nan), ("window_s", 0.0),
         ("hop_s", -0.5), ("hop_s", math.inf)],
    )
    def test_spotter_rejects_nonpositive_or_nonfinite(self, tmp_path, field, value):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "insult__bark.wav")
        config = {"kind": "keyword_spotter", "templates_dir": str(tmp_path), "threshold": 5.0}
        with pytest.raises(ConfigError, match=field) as err:
            build_backend({**config, field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [("backoff_s", -0.5), ("backoff_s", math.nan), ("backoff_s", math.inf),
         ("timeout_s", 0.0), ("timeout_s", -1.0), ("timeout_s", math.inf)],
    )
    def test_http_rejects_bad_backoff_or_timeout(self, field, value):
        config = {"kind": "http", "endpoint": "http://x/y", "response_mapping": _mapping()}
        with pytest.raises(ConfigError, match=field) as err:
            build_backend({**config, field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"kind": "keyword_spotter", "templates_dir": ".", "threshold": "abc"},
             "threshold"),
            ({"kind": "http", "endpoint": "http://x/y", "response_mapping": _mapping(),
              "max_attempts": "three"}, "max_attempts"),
            # true is a JSON bool, not the number 1
            ({"kind": "keyword_spotter", "templates_dir": ".", "threshold": True},
             "threshold"),
        ],
    )
    def test_unconvertible_value_named(self, config, field):
        with pytest.raises(ConfigError, match=field) as err:
            build_backend(config)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [("method", 5), ("headers", "x"), ("body", [1]), ("endpoint", 3), ("name", 5),
         ("rate_limit_per_s", 0), ("rate_limit_per_s", -1.0), ("rate_limit_per_s", math.nan),
         # checked as given: 2.7 would otherwise run as 2 attempts, true as 1,
         # and "400" as 400 requests/s
         ("max_attempts", 2.7), ("max_attempts", True), ("rate_limit_per_s", "400")],
    )
    def test_http_rejects_wrong_type_or_rate(self, field, value):
        config = {"kind": "http", "endpoint": "http://x/y", "response_mapping": _mapping()}
        with pytest.raises(ConfigError, match=field) as err:
            build_backend({**config, field: value})
        assert err.value.field == field

    def test_http_accepts_null_headers_and_body(self):
        # null is their default, as when the keys are left out
        backend = build_backend(
            {"kind": "http", "endpoint": "http://x/y", "response_mapping": _mapping(),
             "headers": None, "body": None}
        )
        assert backend._headers == {} and backend._body == {}

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

    def test_fixture_rejects_unknown_keys(self, tmp_path, tone_440):
        path = tmp_path / "fx.json"
        save_fixtures(path, {content_digest(tone_440): Verdict(Category.SPAM)})
        with pytest.raises(ConfigError, match="'paht'") as err:
            build_backend({"kind": "fixture", "path": str(path), "paht": "x"})
        assert err.value.field == "paht"

    def test_spotter_rejects_unknown_keys(self, tmp_path):
        from audiomorph.audio import write_wav

        write_wav(sine(500.0, duration_s=0.4), tmp_path / "insult__bark.wav")
        config = {"kind": "keyword_spotter", "templates_dir": str(tmp_path), "threshold": 5.0}
        # "hop" would otherwise leave hop_s at its default 0.1
        with pytest.raises(ConfigError, match="'hop', 'window'") as err:
            build_backend({**config, "window": 0.3, "hop": 0.2})
        assert err.value.field == "hop"

    def test_http_rejects_unknown_keys(self):
        # "rate_limit" would otherwise leave the limiter at 5 requests/s
        with pytest.raises(ConfigError, match="'rate_limit'") as err:
            build_backend(
                {
                    "kind": "http",
                    "endpoint": "http://x/y",
                    "response_mapping": _mapping(),
                    "rate_limit": 1.0,
                }
            )
        assert err.value.field == "rate_limit"

    def test_http_accepts_every_documented_key(self):
        backend = build_backend(
            {
                "kind": "http",
                "name": "api",
                "endpoint": "http://x/y",
                "response_mapping": _mapping(),
                "method": "PUT",
                "headers": {"Authorization": "t"},
                "body": {"audio": "${audio_base64}"},
                "audio_encoding": "multipart",
                "rate_limit_per_s": 1.0,
                "max_attempts": 2,
                "backoff_s": 0.1,
                "timeout_s": 5.0,
            }
        )
        assert backend.name == "api"
        assert backend._limiter._interval == 1.0


def _readme_backend_keys():
    """kind -> (keys, required keys), read from the list under README's
    "Campaign config": ``- `kind`: `a`, `b` (required); `c`, ...``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Campaign config", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"- `(\w+)`: (.*)", line)
        if match:
            keys = match.group(2)
            rows[match.group(1)] = (
                re.findall(r"`(\w+)`", keys),
                re.findall(r"`(\w+)`", keys.split("(required)")[0]),
            )
    return rows


def test_readme_backend_keys_match_constructors():
    rows = _readme_backend_keys()
    constructors = backends._constructors()
    assert set(rows) == set(constructors)
    for kind, constructor in constructors.items():
        params = inspect.signature(constructor).parameters
        required = [n for n, p in params.items() if p.default is inspect.Parameter.empty]
        assert rows[kind] == (list(params), required), f"README lists {rows[kind]} for {kind}"
