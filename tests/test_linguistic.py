"""The audio discontinuity relation: its site rule, duration arithmetic
and growth bound, and the transcript file format it reads."""

import tracemalloc

import numpy as np
import pytest

from audiomorph.audio import AudioBuffer
from audiomorph.errors import ConfigError, DomainError, ParameterError
from audiomorph.perturb import linguistic as lng

RATE = 16000


def T(*tokens, alignment=None, language="EN"):
    return lng.Transcript(tuple(tokens), language, alignment)


def save_transcript(t, path):
    """Write ``t`` in the format load_transcript reads."""
    if t.alignment is None:
        lines = list(t.tokens)
    else:
        lines = [f"{token}\t{start}\t{end}" for token, (start, end) in zip(t.tokens, t.alignment)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestDiscontinuityAudio:
    def _fixture(self):
        rng = np.random.default_rng(5)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 2 * RATE), RATE)
        t = T(
            "son", "of", "a", "bitch",
            alignment=((0.0, 0.4), (0.5, 0.8), (0.9, 1.3), (1.4, 1.9)),
        )
        return audio, t

    def test_duration_arithmetic_exact(self):
        audio, t = self._fixture()
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, gap_s=0.5, repeats=2)
        span = int(round(1.3 * RATE)) - int(round(0.9 * RATE))
        gap = int(round(0.5 * RATE))
        assert out.frames == audio.frames + (2 - 1) * span + 2 * gap

    def test_empty_targets_bit_identical(self):
        audio, t = self._fixture()
        out = lng.benign_discontinuity_audio(audio, t, set(), gap_s=0.5, repeats=2)
        assert np.array_equal(out.samples, audio.samples)

    def test_inserted_silence_is_silent(self):
        audio, t = self._fixture()
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, gap_s=0.5, repeats=2)
        start = int(round(0.9 * RATE))
        span = int(round(1.3 * RATE)) - start
        gap = int(round(0.5 * RATE))
        first_gap = out.samples[:, start + span : start + span + gap]
        assert not np.any(first_gap)
        # both copies carry the source span verbatim
        copy2 = out.samples[:, start + span + gap : start + 2 * span + gap]
        assert np.array_equal(copy2, audio.samples[:, start : start + span])

    def test_repeats_below_one_rejected(self):
        audio, t = self._fixture()
        with pytest.raises(ParameterError, match="repeats"):
            lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, 0)

    def test_targets_match_case_insensitively(self):
        audio, t = self._fixture()
        expected = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, 2)
        assert expected.frames > audio.frames
        shouted = T("SON", "Of", "A", "BITCH", alignment=t.alignment)
        for transcript, targets in [(t, {"BiTcH"}), (shouted, {"bitch"})]:
            out = lng.benign_discontinuity_audio(audio, transcript, targets, 0.5, 2)
            assert np.array_equal(out.samples, expected.samples)

    def test_target_preceding_a_target_is_stuttered_and_kept(self):
        # the first "bitch" both is a target and precedes one, so its span
        # gains a copy; neither occurrence is dropped or altered
        rng = np.random.default_rng(6)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, RATE), RATE)
        t = T("a", "bitch", "bitch", alignment=((0.0, 0.2), (0.3, 0.5), (0.6, 0.9)))
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.0, 2)
        x = audio.samples
        a, bitch = x[:, :3200], x[:, 4800:8000]
        expected = np.concatenate([a, a, x[:, 3200:4800], bitch, bitch, x[:, 8000:]], axis=1)
        assert np.array_equal(out.samples, expected)

    def test_string_targets_rejected(self):
        # a bare string would be read character by character, so no token
        # matches and the op would return its input unchanged
        audio, t = self._fixture()
        with pytest.raises(ParameterError, match="targets"):
            lng.benign_discontinuity_audio(audio, t, "bitch", 0.5, 2)

    def test_missing_alignment_rejected(self):
        audio, _ = self._fixture()
        with pytest.raises(DomainError):
            lng.benign_discontinuity_audio(audio, T("a", "bitch"), {"bitch"}, 0.5, 2)

    def test_alignment_past_audio_rejected(self):
        audio, _ = self._fixture()
        t = T("a", "bitch", alignment=((0.0, 1.0), (1.5, 2.5)))
        with pytest.raises(DomainError):
            lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, 2)

    def test_growth_bounded_before_allocating(self):
        audio, t = self._fixture()
        # the 0.4 s span of "a" and its gaps, summed over the one site; the
        # small values go first, so a missing bound fails before 10**9 repeats
        for gap_s, repeats in [(0.0, 27), (5.0, 2), (1e9, 1), (0.0, 10**9)]:
            with pytest.raises(ParameterError, match=r"repeats=.* and gap_s="):
                lng.benign_discontinuity_audio(audio, t, {"bitch"}, gap_s, repeats)
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.0, 26)
        assert out.frames == audio.frames + 25 * int(round(0.4 * RATE))

    def test_growth_summed_over_sites(self):
        audio, t = self._fixture()
        # three sites of 0.4 + 0.3 + 0.4 s; 1.1 s per extra repeat
        lng.benign_discontinuity_audio(audio, t, {"of", "a", "bitch"}, 0.0, 10)
        with pytest.raises(ParameterError, match="3 sites"):
            lng.benign_discontinuity_audio(audio, t, {"of", "a", "bitch"}, 0.0, 11)

    def test_growth_bounded_by_the_frames_copied(self):
        audio, _ = self._fixture()
        # the span of "a" lasts 0.2 samples and rounds to one frame
        t = T("a", "bitch", alignment=((0.4999999 / RATE, 0.5000001 / RATE), (0.6, 1.0)))
        with pytest.raises(ParameterError, match="repeats="):
            lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.0, 10**6)

    def test_target_as_first_token_has_no_site(self):
        # a site is the token before a target; the first token has none
        audio, _ = self._fixture()
        t = T("bitch", "of", "a", alignment=((0.0, 0.4), (0.5, 0.8), (0.9, 1.3)))
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, 2)
        assert np.array_equal(out.samples, audio.samples)

    def test_two_sites_each_stuttered(self):
        rng = np.random.default_rng(7)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, RATE), RATE)
        t = T("you", "bitch", "a", "bitch",
              alignment=((0.0, 0.1), (0.2, 0.4), (0.5, 0.6), (0.7, 0.9)))
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.05, 2)
        x = audio.samples
        gap = np.zeros((1, 800))
        you, a = x[:, :1600], x[:, 8000:9600]
        expected = np.concatenate(
            [you, gap, you, gap, x[:, 1600:8000], a, gap, a, gap, x[:, 9600:]], axis=1
        )
        assert np.array_equal(out.samples, expected)

    def test_single_repeat_adds_only_the_gap(self):
        audio, t = self._fixture()
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, 1)
        end, gap = int(round(1.3 * RATE)), int(round(0.5 * RATE))
        assert out.frames == audio.frames + gap
        assert np.array_equal(out.samples[:, :end], audio.samples[:, :end])
        assert not np.any(out.samples[:, end : end + gap])
        assert np.array_equal(out.samples[:, end + gap :], audio.samples[:, end:])

    def test_numpy_integer_repeats_accepted(self):
        audio, t = self._fixture()
        expected = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, 3)
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.5, np.int64(3))
        assert np.array_equal(out.samples, expected.samples)

    @pytest.mark.parametrize("gap_s", [-0.5, -1e-9])
    def test_negative_gap_rejected(self, gap_s):
        audio, t = self._fixture()
        with pytest.raises(ParameterError, match="gap"):
            lng.benign_discontinuity_audio(audio, t, {"bitch"}, gap_s, 2)

    def test_stereo_channels_stuttered_alike(self):
        rng = np.random.default_rng(8)
        left, right = rng.uniform(-0.5, 0.5, (2, 2 * RATE))
        _, t = self._fixture()
        out = lng.benign_discontinuity_audio(
            AudioBuffer(np.stack([left, right]), RATE), t, {"bitch"}, 0.5, 2
        )
        for channel, samples in enumerate((left, right)):
            mono = lng.benign_discontinuity_audio(AudioBuffer(samples, RATE), t, {"bitch"}, 0.5, 2)
            assert np.array_equal(out.samples[channel], mono.samples[0])

    def test_alignment_ending_at_the_audio_end_accepted(self):
        audio, _ = self._fixture()
        t = T("a", "bitch", alignment=((0.0, 1.0), (1.5, 2.0)))
        out = lng.benign_discontinuity_audio(audio, t, {"bitch"}, 0.0, 2)
        assert out.frames == audio.frames + RATE

    def test_empty_transcript_identity(self):
        audio, _ = self._fixture()
        out = lng.benign_discontinuity_audio(audio, T(alignment=()), {"bitch"}, 0.5, 2)
        assert np.array_equal(out.samples, audio.samples)

    def test_empty_stutter_adds_no_pieces(self):
        audio, _ = self._fixture()
        # a zero-length span with no gap adds no frames however often it
        # repeats, and a gap after no site is never allocated
        t = T("a", "bitch", alignment=((0.5, 0.5), (0.6, 1.0)))
        calls = [({"bitch"}, 0.0, 10**6), ({"bitch"}, 0.0, 10**9), (set(), 1e9, 1)]
        tracemalloc.start()
        try:
            # the peak is checked after each call, so a per-repeat piece
            # list fails at 10**6 before 10**9 asks for 16 GB of it
            for targets, gap_s, repeats in calls:
                out = lng.benign_discontinuity_audio(audio, t, targets, gap_s, repeats)
                assert np.array_equal(out.samples, audio.samples)
                assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestFileFormats:
    def test_transcript_with_alignment(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("son\t0.0\t0.4\nbitch\t0.5\t0.9\n", encoding="utf-8")
        t = lng.load_transcript(path)
        assert t.tokens == ("son", "bitch")
        assert t.alignment == ((0.0, 0.4), (0.5, 0.9))

    def test_transcript_plain(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("son\nbitch\n", encoding="utf-8")
        t = lng.load_transcript(path)
        assert t.tokens == ("son", "bitch") and t.alignment is None

    @pytest.mark.parametrize(
        "t",
        [
            T("son", "of", "a", "bitch",
              alignment=((0.0, 0.1), (0.1, 0.25), (0.3, 1 / 3), (0.4, 0.9))),
            T("son", "of", "a", "bitch"),
        ],
        ids=["aligned", "unaligned"],
    )
    def test_transcript_save_load_round_trip(self, tmp_path, t):
        path = tmp_path / "t.tsv"
        save_transcript(t, path)
        assert lng.load_transcript(path) == t

    def test_transcript_mixed_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("son\t0.0\t0.4\nbitch\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            lng.load_transcript(path)

    def test_transcript_rejects_overlapping_alignment(self):
        with pytest.raises(DomainError):
            T("a", "b", alignment=((0.0, 1.0), (0.5, 1.5)))

    def test_transcript_bad_time_column(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("son\t0.0\t0.4\nbitch\t0.5\tlate\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"t\.tsv:2: bad time column"):
            lng.load_transcript(path)

    @pytest.mark.parametrize("line", ["son\t0.0", "son\t0.0\t0.4\t0.5"], ids=["2", "4"])
    def test_transcript_column_count_rejected(self, tmp_path, line):
        path = tmp_path / "t.tsv"
        path.write_text(f"of\t0.0\t0.1\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":2: expected 1 or 3 columns"):
            lng.load_transcript(path)

    def test_transcript_blank_lines_skipped_and_tokens_stripped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(" son \t0.0\t0.4\n\n  \nbitch\t0.5\t0.9\n", encoding="utf-8")
        t = lng.load_transcript(path)
        assert t.tokens == ("son", "bitch")
        assert t.alignment == ((0.0, 0.4), (0.5, 0.9))

    def test_transcript_language_carried(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("son\n", encoding="utf-8")
        assert lng.load_transcript(path).language == "EN"

    def test_transcript_unknown_language_rejected(self):
        with pytest.raises(ParameterError, match="language"):
            T("son", language="FR")

    def test_transcript_span_count_must_match_tokens(self):
        with pytest.raises(DomainError, match="2 spans for 3 tokens"):
            T("a", "b", "c", alignment=((0.0, 0.1), (0.2, 0.3)))

    def test_transcript_rejects_span_ending_before_it_starts(self):
        with pytest.raises(DomainError, match="span 1"):
            T("a", "b", alignment=((0.0, 0.1), (0.5, 0.4)))

    def test_transcript_accepts_touching_spans(self):
        t = T("a", "b", alignment=((0, 0.5), (0.5, 1)))
        assert t.alignment == ((0.0, 0.5), (0.5, 1.0))
        assert all(isinstance(v, float) for span in t.alignment for v in span)

    def test_transcript_tokens_stored_as_tuple(self):
        t = lng.Transcript(["son", "of"])
        assert t.tokens == ("son", "of") and len(t) == 2
        assert t == lng.Transcript(("son", "of"))
