"""Linguistic perturbations: TF-IDF against a brute-force oracle,
substitution semantics, and discontinuity arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomorph.audio import AudioBuffer
from audiomorph.errors import ConfigError, DomainError, ParameterError
from audiomorph.perturb import linguistic as lng

RATE = 16000


def T(*tokens, alignment=None, language="EN"):
    return lng.Transcript(tuple(tokens), language, alignment)


def oracle_tfidf(documents, stopwords, k):
    """Independent brute-force ranking with the same formula."""
    docs = [[w.lower() for w in d if w.lower() not in stopwords] for d in documents]
    n = len(docs)
    vocab = sorted({w for d in docs for w in d})
    df = {w: sum(1 for d in docs if w in d) for w in vocab}
    scores = {}
    for w in vocab:
        idf = math.log((1 + n) / (1 + df[w])) + 1.0
        scores[w] = max(d.count(w) * idf for d in docs)
    ordered = sorted(vocab, key=lambda w: (-scores[w], w))
    return [(w, scores[w]) for w in ordered[:k]]


class TestSelectKeywords:
    def test_tie_breaks_lexicographically(self):
        out = lng.select_keywords([T("red", "dog"), T("red", "cat")], set(), 1)
        assert out[0].token == "cat"
        assert out[0].tf_idf == pytest.approx(math.log(3 / 2) + 1)

    def test_everywhere_token_has_lowest_idf(self):
        corpus = [T("the", "dog"), T("the", "cat"), T("the", "fox")]
        out = lng.select_keywords(corpus, set(), 10)
        by_token = {s.token: s for s in out}
        assert by_token["the"].document_frequency == 3
        assert all(by_token["the"].tf_idf <= s.tf_idf for s in out)

    def test_stopwords_never_appear(self):
        corpus = [T("the", "dog", "barks"), T("the", "cat")]
        out = lng.select_keywords(corpus, {"the"}, 10)
        assert "the" not in [s.token for s in out]

    def test_document_order_invariance(self):
        docs = [T("a", "b", "c"), T("b", "c"), T("c", "d", "d")]
        fwd = lng.select_keywords(docs, set(), 10)
        rev = lng.select_keywords(list(reversed(docs)), set(), 10)
        assert [(s.token, s.tf_idf) for s in fwd] == [(s.token, s.tf_idf) for s in rev]

    def test_k_truncation_and_overrun(self):
        corpus = [T("a", "b"), T("c")]
        assert len(lng.select_keywords(corpus, set(), 2)) == 2
        assert len(lng.select_keywords(corpus, set(), 50)) == 3

    def test_errors(self):
        with pytest.raises(DomainError):
            lng.select_keywords([], set(), 5)
        with pytest.raises(ParameterError):
            lng.select_keywords([T("a")], set(), 0)

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=30),
            min_size=1,
            max_size=6,
        ),
        st.sets(st.sampled_from("abcdefg"), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, docs, stopwords):
        corpus = [T(*doc) for doc in docs]
        got = lng.select_keywords(corpus, stopwords, 20)
        want = oracle_tfidf(docs, stopwords, 20)
        assert [(s.token, pytest.approx(s.tf_idf)) for s in got] == [
            (w, pytest.approx(v)) for w, v in want
        ]


class TestHomophoneSubstitute:
    def test_folk_for_fuck(self):
        result = lng.homophone_substitute(
            T("fuck", "you"), lng.default_lexicon(), {"fuck"}, seed=0
        )
        assert result.transcript.tokens == ("folk", "you")
        assert result.replaced == {"fuck": 1}

    def test_empty_targets_identity(self):
        t = T("fuck", "you")
        result = lng.homophone_substitute(t, lng.default_lexicon(), set(), seed=0)
        assert result.transcript.tokens == t.tokens
        assert result.replaced == {} and result.no_entry == {}

    def test_no_entry_passthrough_tallied(self):
        result = lng.homophone_substitute(
            T("damn", "you"), lng.default_lexicon(), {"damn"}, seed=0
        )
        assert result.transcript.tokens == ("damn", "you")
        assert result.no_entry == {"damn": 1}

    def test_rank_tie_deterministic(self):
        lexicon = lng.HomophoneLexicon({"bass": ((1, "base"), (1, "bays"))})
        first = lng.homophone_substitute(T("bass"), lexicon, {"bass"}, seed=7)
        for _ in range(5):
            again = lng.homophone_substitute(T("bass"), lexicon, {"bass"}, seed=7)
            assert again.transcript.tokens == first.transcript.tokens
        picks = {
            lng.homophone_substitute(T("bass"), lexicon, {"bass"}, seed=s).transcript.tokens[0]
            for s in range(40)
        }
        assert picks == {"base", "bays"}  # both sides of the tie reachable

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            lng.homophone_substitute(T("fuck"), lng.default_lexicon(), {"fuck"}, seed=-1)

    def test_lower_rank_wins(self):
        lexicon = lng.HomophoneLexicon({"fuck": ((2, "fog"), (1, "folk"))})
        result = lng.homophone_substitute(T("fuck"), lexicon, {"fuck"}, seed=0)
        assert result.transcript.tokens == ("folk",)

    def test_alignment_carried_over(self):
        spans = ((0.0, 0.4), (0.5, 0.8))
        result = lng.homophone_substitute(
            T("fuck", "you", alignment=spans), lng.default_lexicon(), {"fuck"}, seed=0
        )
        assert result.transcript.alignment == spans

    def test_case_preserved(self):
        result = lng.homophone_substitute(
            T("Fuck", "you"), lng.default_lexicon(), {"fuck"}, seed=0
        )
        assert result.transcript.tokens[0] == "Folk"

    def test_language_mismatch(self):
        with pytest.raises(DomainError):
            lng.homophone_substitute(
                T("x", language="ZH"), lng.default_lexicon(), {"x"}, seed=0
            )

    def test_lexicon_rejects_self_mapping(self):
        with pytest.raises(ParameterError):
            lng.HomophoneLexicon({"word": ((1, "word"),)})


class TestDiscontinuityText:
    def test_canonical_pattern(self):
        out = lng.benign_discontinuity_text(
            T("son", "of", "a", "bitch"), {"bitch"}, "...", repeats=3
        )
        assert out.tokens == ("son", "of", "a", "...", "a", "...", "a", "...", "bitch")
        assert lng.render_text(out) == "son of a... a... a... bitch"

    def test_two_site_pattern(self):
        out = lng.benign_discontinuity_text(
            T("son", "of", "a", "bitch"), {"of", "bitch"}, "...", repeats=3
        )
        assert lng.render_text(out) == "son... son... son... of a... a... a... bitch"

    def test_empty_targets_identity(self):
        t = T("son", "of", "a", "bitch")
        out = lng.benign_discontinuity_text(t, set(), "...", repeats=3)
        assert out.tokens == t.tokens

    def test_repeats_below_one_rejected(self):
        with pytest.raises(ParameterError):
            lng.benign_discontinuity_text(T("a", "b"), {"b"}, "...", repeats=0)

    @given(
        st.lists(st.sampled_from(["son", "of", "a", "bitch", "you"]), min_size=1, max_size=12),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_token_growth_formula(self, tokens, repeats):
        t = T(*tokens)
        targets = {"bitch"}
        sites = sum(
            1
            for i in range(len(tokens) - 1)
            if tokens[i + 1].lower() in targets
        )
        out = lng.benign_discontinuity_text(t, targets, "...", repeats=repeats)
        growth_per_site = (repeats - 1) + repeats  # extra copies + markers
        assert len(out.tokens) == len(tokens) + sites * growth_per_site

    def test_string_targets_rejected(self):
        with pytest.raises(ParameterError, match="targets"):
            lng.benign_discontinuity_text(T("a", "bitch"), "bitch", "...", repeats=2)

    def test_target_never_removed(self):
        # the first "bitch" both is a target and precedes one, so it gains
        # an extra copy; no occurrence is ever dropped or altered
        out = lng.benign_discontinuity_text(
            T("a", "bitch", "bitch"), {"bitch"}, "...", repeats=2
        )
        assert out.tokens.count("bitch") == 3
        assert out.tokens[-1] == "bitch"


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
    def test_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\nfuck\tfolk,fog\nshit\tsheet\n", encoding="utf-8")
        lex = lng.load_lexicon(path)
        assert lex.entries["fuck"] == ((1, "folk"), (2, "fog"))
        assert lex.top_candidates("fuck") == ("folk",)

    def test_lexicon_bad_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("justaword\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            lng.load_lexicon(path)

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
        lng.save_transcript(t, path)
        assert lng.load_transcript(path) == t

    def test_transcript_mixed_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("son\t0.0\t0.4\nbitch\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            lng.load_transcript(path)

    def test_stopwords(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\na\n\nof\n", encoding="utf-8")
        assert lng.load_stopwords(path) == {"the", "a", "of"}

    def test_transcript_rejects_overlapping_alignment(self):
        with pytest.raises(DomainError):
            T("a", "b", alignment=((0.0, 1.0), (0.5, 1.5)))
