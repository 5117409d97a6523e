"""Release gate: every guarantee the package makes, checked end to end at
its stated tolerance. One test per criterion; each prints a single verdict
line so a log scan shows exactly what held.

Run with `pytest tests/test_acceptance.py -v` (or -s for the verdict
lines inline).
"""

import ast
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from audiomorph import deskcorpus
from audiomorph.audio import (
    AudioBuffer,
    content_digest,
    dominant_frequency,
    measure_snr,
    read_wav,
    rms,
    spectrum,
    write_wav,
)
from audiomorph.backends import Category, ModerationBackend, Verdict
from audiomorph.backends.http import HttpBackend
from audiomorph.campaign import (
    CampaignConfig,
    SeedSpec,
    filter_seeds,
    load_seed,
    replay_campaign,
    run_campaign,
)
from audiomorph.perturb import Perturbation, basic, compound
from audiomorph.perturb.linguistic import (
    Transcript,
    benign_discontinuity_audio,
    benign_discontinuity_text,
    default_lexicon,
    homophone_substitute,
    render_text,
    select_keywords,
)
from .conftest import envelope_period_s, sine
from .mockserver import MockModerationServer

RATE = 16000


def _verdict(number: int, label: str) -> None:
    print(f"PASS  [{number}] {label}")


class DigestBackend(ModerationBackend):
    """Deterministic mock: answers by content digest, non_toxic otherwise."""

    def __init__(self, name, script):
        self.name = name
        self.script = dict(script)

    def moderate(self, audio):
        return Verdict(self.script.get(content_digest(audio), Category.NON_TOXIC), 0.9)


# --- 1: EFR exactness --------------------------------------------------------


def test_criterion_1_efr_exact_for_randomized_cells(tmp_path):
    max_n = 40
    seeds, perturbed_digest = [], {}
    for i in range(max_n):
        path = tmp_path / f"seed{i}.wav"
        write_wav(sine(250.0 + 10.0 * i, duration_s=0.05, amplitude=0.4), path)
        seeds.append(SeedSpec(seed_id=f"s{i}", path=path, category="insult"))
        loaded = read_wav(path)
        perturbed_digest[f"s{i}"] = content_digest(basic.gain(loaded, 6.0206))
    seed_digest = {s.seed_id: content_digest(read_wav(s.path)) for s in seeds}

    rng = np.random.default_rng(20240817)
    started = time.monotonic()
    for trial in range(50):
        n = int(rng.integers(1, max_n + 1))
        k = int(rng.integers(0, n + 1))
        chosen = seeds[:n]
        missed = set(rng.choice(n, size=k, replace=False).tolist())
        script = {}
        for j, spec in enumerate(chosen):
            script[seed_digest[spec.seed_id]] = Category.INSULT
            if j not in missed:
                script[perturbed_digest[spec.seed_id]] = Category.INSULT
        config = CampaignConfig(
            seeds=tuple(chosen),
            mrs=(Perturbation("gain", {"db": 6.0206}),),
            backend_configs=({"kind": "fixture", "path": "unused"},),
            output_dir=tmp_path / "out",
            workers=4,
        )
        report = run_campaign(config, backends=[DigestBackend("mock", script)])
        (cell,) = report.cells
        assert cell.generated == n and cell.unanswered == 0
        assert cell.misclassified == k
        assert cell.efr == 100.0 * k / n  # full precision, no tolerance
        payload = json.loads(report.report_json.read_text())
        assert payload["cells"][0]["efr"] == 100.0 * k / n
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"50 randomized campaigns took {elapsed:.2f}s"
    _verdict(1, f"EFR exact on 50 randomized (k, n) cells in {elapsed:.2f}s")


# --- 2: seed-filter protocol -------------------------------------------------


def test_criterion_2_seed_filter_matches_exclusion_rule(tmp_path):
    matrix = {
        # seed -> (backend-a label, backend-b label)
        "both_hit": (Category.INSULT, Category.INSULT),
        "one_hit": (Category.NON_TOXIC, Category.PORN),
        "wrong_toxic": (Category.SPAM, Category.NON_TOXIC),  # still toxic to a
        "all_clear": (Category.NON_TOXIC, Category.NON_TOXIC),
    }
    categories = {"both_hit": "insult", "one_hit": "porn",
                  "wrong_toxic": "insult", "all_clear": "spam"}
    loaded, script_a, script_b = [], {}, {}
    for i, (seed_id, (label_a, label_b)) in enumerate(sorted(matrix.items())):
        path = tmp_path / f"{seed_id}.wav"
        write_wav(sine(300.0 + 40.0 * i, duration_s=0.1, amplitude=0.4), path)
        loaded.append(load_seed(
            SeedSpec(seed_id=seed_id, path=path, category=categories[seed_id])
        ))
        script_a[loaded[-1].digest] = label_a
        script_b[loaded[-1].digest] = label_b

    retained, report = filter_seeds(
        loaded, [DigestBackend("a", script_a), DigestBackend("b", script_b)]
    )
    got = sorted(s.spec.seed_id for s in retained)
    # the rule: excluded exactly when every backend answered non_toxic
    expected = sorted(
        seed_id for seed_id, labels in matrix.items()
        if any(l is not Category.NON_TOXIC for l in labels)
    )
    assert got == expected == ["both_hit", "one_hit", "wrong_toxic"]
    assert report["excluded"] == 1
    _verdict(2, "seed filter drops exactly the all-non-toxic seeds")


# --- 3: transform oracle suite ----------------------------------------------


def _top_two_peaks(buffer, fft_size):
    spec = spectrum(buffer, fft_size)
    mags = spec.magnitudes.copy()
    first = int(np.argmax(mags))
    lo, hi = max(0, first - 3), first + 4
    mags[lo:hi] = 0.0
    second = int(np.argmax(mags))
    return sorted((spec.bin_frequencies[first], spec.bin_frequencies[second]))


def test_criterion_3_transform_oracle_suite():
    started = time.monotonic()
    tone = sine(440.0, duration_s=2.5, amplitude=0.5)

    for factor in (0.5, 1.0, 2.0):
        stretched = basic.time_stretch(tone, factor)
        assert stretched.duration == pytest.approx(2.5 * factor, rel=0.02)
        assert dominant_frequency(stretched, 16384) == pytest.approx(440.0, abs=5.0)

    two_s = sine(440.0, duration_s=2.0, amplitude=0.5)
    resolution = RATE / 16384
    for semitones, want in ((12.0, 880.0), (-12.0, 220.0)):
        shifted = basic.pitch_shift(two_s, semitones)
        assert shifted.duration == pytest.approx(2.0, rel=0.02)
        assert abs(dominant_frequency(shifted, 16384) - want) <= resolution

    quiet = sine(440.0, duration_s=1.0, amplitude=0.25)
    boosted = basic.gain(quiet, 6.0206)
    assert rms(boosted)[0] / rms(quiet)[0] == pytest.approx(2.0, rel=0.01)

    loud = sine(440.0, duration_s=1.0, amplitude=0.5)
    for target in (6.0, 12.0, 20.0):
        noisy = basic.inject_noise(loud, target, seed=99)
        assert abs(measure_snr(loud, noisy) - target) <= 1.0
        again = basic.inject_noise(loud, target, seed=99)
        assert content_digest(again) == content_digest(noisy)

    hard_left = basic.pan(loud, -1.0)
    assert rms(hard_left)[1] < 1e-9
    in_power = float(np.mean(loud.mono_mix() ** 2))
    for position in np.linspace(-1.0, 1.0, 9):
        panned = basic.pan(loud, float(position))
        out_power = float(sum(np.mean(panned.channel(c) ** 2) for c in range(2)))
        assert abs(10.0 * math.log10(out_power / in_power)) <= 0.5

    ring_tone = sine(440.0, duration_s=1.024, amplitude=0.5)
    peaks = _top_two_peaks(compound.ring_modulate(ring_tone, 30.0), 16384)
    assert abs(peaks[0] - 410.0) <= resolution
    assert abs(peaks[1] - 470.0) <= resolution

    full_scale = sine(440.0, duration_s=1.5, amplitude=1.0)
    squeezed = compound.compress(full_scale, threshold_db=-20.0, ratio=4.0)
    steady = squeezed.samples[:, -RATE // 4 :]
    peak_dbfs = 20.0 * math.log10(float(np.max(np.abs(steady))))
    assert abs(peak_dbfs - (-15.0)) <= 1.0

    impulse_samples = np.zeros(RATE)
    impulse_samples[0] = 1.0
    impulse = AudioBuffer(impulse_samples, RATE)
    echoed = compound.echo(impulse, delay_s=0.25, decay=0.5, taps=2)
    delay_frames = RATE // 4
    assert abs(echoed.channel(0)[0] - 1.0) <= 1e-6
    assert abs(echoed.channel(0)[delay_frames] - 0.5) <= 1e-6
    assert abs(echoed.channel(0)[2 * delay_frames] - 0.25) <= 1e-6

    dry = sine(440.0, duration_s=0.5, amplitude=0.5)
    wet = compound.reverb(dry, intensity=0.0, duration_s=0.2, seed=3)
    assert np.max(np.abs(wet.samples[:, : dry.frames] - dry.samples)) < 1e-12
    assert wet.frames == dry.frames + int(round(0.2 * RATE))  # n + len(h) - 1

    # constant carrier exposes the modulation envelope directly
    carrier = AudioBuffer(np.full(2 * RATE, 0.5), RATE)
    wobbled = compound.tremolo(carrier, 4.0, 0.9)
    period = envelope_period_s(wobbled.channel(0), RATE, max_lag_s=0.4)
    assert period == pytest.approx(0.25, rel=0.05)
    toned = compound.tremolo(sine(440.0, duration_s=2.0, amplitude=0.5), 4.0, 0.9)
    assert float(np.max(np.abs(toned.samples))) <= 0.5 + 1e-12

    unit = sine(440.0, duration_s=1.024, amplitude=1.0)
    crunched = compound.distort(unit, clip_threshold=0.5, drive=0.0)
    assert float(np.max(np.abs(crunched.samples))) == 0.5
    spec = spectrum(crunched, 16384)
    floor = float(np.median(spec.magnitudes))
    third = float(spec.magnitudes[int(round(1320.0 / resolution))])
    assert 20.0 * math.log10(third / floor) >= 20.0

    high = sine(4000.0, duration_s=1.0, amplitude=0.25)
    low = sine(50.0, duration_s=1.0, amplitude=0.25)
    warm_high = compound.bass_boost(high, cutoff_hz=200.0, gain_db=6.0)
    skip = RATE // 10  # past the filter warmup
    ratio_high = float(
        np.sqrt(np.mean(warm_high.channel(0)[skip:] ** 2))
        / np.sqrt(np.mean(high.channel(0)[skip:] ** 2))
    )
    assert abs(20.0 * math.log10(ratio_high)) <= 1.0
    warm_low = compound.bass_boost(low, cutoff_hz=200.0, gain_db=6.0)
    ratio_low = float(
        np.sqrt(np.mean(warm_low.channel(0)[skip:] ** 2))
        / np.sqrt(np.mean(low.channel(0)[skip:] ** 2))
    )
    assert ratio_low == pytest.approx(1.0 + 10.0 ** (6.0 / 20.0), rel=0.10)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _verdict(3, f"13 transform oracles at stated tolerances in {elapsed:.1f}s")


# --- 4: composition boundary -------------------------------------------------


def test_criterion_4_compound_builds_only_on_core_and_basic():
    import audiomorph.perturb.compound as compound_module

    tree = ast.parse(Path(compound_module.__file__).read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add((node.level, node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module or "")
        elif isinstance(node, ast.Import):
            absolute.update(a.name for a in node.names)
    assert relative <= {(2, "audio"), (2, "errors"), (1, "basic")}, relative
    assert all(
        name.split(".")[0] in {"numpy", "math", "__future__"}
        or name.split(".")[0] in sys.stdlib_module_names
        for name in absolute
    )
    assert not any(name.startswith("audiomorph") for name in absolute)
    _verdict(4, "compound relations import only audio core, basic ops, errors")


# --- 5: keyword scoring vs brute force ---------------------------------------


def _oracle_tfidf(docs):
    vocab = sorted({tok for doc in docs for tok in doc})
    n = len(docs)
    scores = {}
    for token in vocab:
        df = sum(token in doc for doc in docs)
        idf = math.log((1 + n) / (1 + df)) + 1.0
        scores[token] = max(doc.count(token) * idf for doc in docs)
    return sorted(vocab, key=lambda t: (-scores[t], t))


def test_criterion_5_tfidf_matches_brute_force():
    rng = np.random.default_rng(501)
    vocabulary = list("abcdefg")
    for _ in range(5):
        docs = [
            [vocabulary[int(i)] for i in rng.integers(0, len(vocabulary),
                                                      int(rng.integers(1, 31)))]
            for _ in range(int(rng.integers(1, 7)))
        ]
        corpus = [Transcript(tuple(doc)) for doc in docs]
        got = [s.token for s in select_keywords(corpus, set(), k=100)]
        assert got == _oracle_tfidf(docs)
    _verdict(5, "TF-IDF ordering matches brute force on 5 random corpora")


# --- 6: linguistic relations verbatim ----------------------------------------


def test_criterion_6_linguistic_pairs_verbatim():
    swapped = homophone_substitute(
        Transcript(("fuck", "you")), default_lexicon(), ["fuck"], seed=0
    )
    assert render_text(swapped.transcript) == "folk you"

    stuttered = benign_discontinuity_text(
        Transcript(("son", "of", "a", "bitch")), ["bitch"],
        stop_marker="...", repeats=3,
    )
    assert render_text(stuttered) == "son of a... a... a... bitch"

    spans = ((0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.9))
    aligned = Transcript(("son", "of", "a", "bitch"), alignment=spans)
    clip = sine(220.0, duration_s=1.0, amplitude=0.4)
    grown = benign_discontinuity_audio(clip, aligned, ["bitch"], gap_s=0.15, repeats=3)
    span_frames = int(round(0.6 * RATE)) - int(round(0.4 * RATE))
    gap_frames = int(round(0.15 * RATE))
    expected = clip.frames + 2 * span_frames + 3 * gap_frames
    assert abs(grown.frames - expected) <= 1  # exact to one frame
    _verdict(6, "homophone and discontinuity pairs reproduce verbatim")


# --- 7 & 8: offline campaign and replay ---------------------------------------


@pytest.fixture(scope="module")
def offline_campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    started = time.monotonic()
    config_path = deskcorpus.build_corpus(root)
    report = run_campaign(CampaignConfig.from_file(config_path))
    return report, time.monotonic() - started


def test_criterion_7_offline_campaign(offline_campaign):
    report, elapsed = offline_campaign
    assert elapsed < 300.0, f"campaign took {elapsed:.0f}s"
    assert report.cells, "campaign produced no cells"
    for cell in report.cells:
        correct = cell.generated - cell.unanswered - cell.misclassified
        assert correct >= 0
        assert cell.generated == cell.misclassified + correct + cell.unanswered
    assert any(cell.efr is not None and cell.efr > 0 for cell in report.cells)
    identity = [c for c in report.cells if c.mr == "gain(db=0.0)"]
    assert identity and all(c.efr == 0.0 for c in identity)
    _verdict(7, f"offline campaign in {elapsed:.1f}s; accounting holds in "
                f"{len(report.cells)} cells; errors found; identity clean")


def test_criterion_8_replay_byte_identical(offline_campaign, tmp_path):
    report, _ = offline_campaign
    replayed = replay_campaign(report.manifest, tmp_path / "replay")
    assert replayed.report_json.read_bytes() == report.report_json.read_bytes()
    assert replayed.report_csv.read_bytes() == report.report_csv.read_bytes()
    _verdict(8, "replay from manifest reproduces the report byte for byte")


# --- 9: rate limiting ---------------------------------------------------------


def test_criterion_9_rate_limit_never_exceeded():
    limit = 50.0
    interval = 1.0 / limit
    plan = lambda i, body: (200, {"result": {"label": "ok", "score": 0.5}})
    clip = sine(440.0, duration_s=0.05, amplitude=0.3)
    with MockModerationServer(plan) as server:
        backend = HttpBackend(
            endpoint=server.url,
            response_mapping={
                "path": "result.label",
                "categories": {"ok": "non_toxic"},
            },
            rate_limit_per_s=limit,
            max_attempts=1,
            timeout_s=10.0,
        )

        def worker(count):
            for _ in range(count):
                backend.moderate(clip)

        # warm the connection pool so audited receipt times are not skewed
        # by TCP setup on the first request of each thread
        warmup = [threading.Thread(target=worker, args=(3,)) for _ in range(4)]
        for t in warmup:
            t.start()
        for t in warmup:
            t.join()
        server.reset()

        threads = [threading.Thread(target=worker, args=(25,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stamps = sorted(when for when, *_ in server.requests)

    assert len(stamps) == 100
    # receipt times carry a few ms of network jitter on top of the
    # admission schedule, so short spans get a 10 ms allowance; the mean
    # rate over the full run must respect the limit almost exactly
    for span in (5, 20, 99):
        for i in range(len(stamps) - span):
            gap = stamps[i + span] - stamps[i]
            assert gap >= span * interval - 0.010, (
                f"{span + 1} requests within {gap * 1000:.1f}ms "
                f"(limit allows {span * interval * 1000:.0f}ms)"
            )
    mean_rate = (len(stamps) - 1) / (stamps[-1] - stamps[0])
    assert mean_rate <= limit * 1.001
    _verdict(9, f"100 requests audited; mean rate {mean_rate:.2f}/s "
                f"under the {limit:.0f}/s limit")
