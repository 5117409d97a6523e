"""The benchmark's three campaign workloads.

Each workload makes its inputs from the workload seed (set-up), names the
campaign call a run times, and knows what the report of that call must be.
The program is driven only through its public API: ``build_corpus``,
``CampaignConfig``, ``run_campaign``, ``replay_campaign``, backend objects,
and the public functions of ``audio``, ``perturb`` and ``backends``.

* ``spotter-desk``: the desk corpus against the keyword spotter.
* ``replay-longclip``: a recorded campaign over multi-second seeds with
  compound-heavy relations, replayed offline.
* ``http-mock``: the desk corpus against ``HttpBackend`` and the mock server
  in ``httpserver.py``, which runs in its own process.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from audiomorph.audio import AudioBuffer, content_digest, read_wav, write_wav
from audiomorph.backends import ModerationBackend, Verdict
from audiomorph.backends.spotter import load_templates
from audiomorph.campaign import CampaignConfig, replay_campaign, run_campaign
from audiomorph.deskcorpus import SEED_CONTEXT_S, TEMPLATE_DURATION_S, build_corpus, synth_seeds
from audiomorph.perturb import Perturbation

import httpserver

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
DEFAULT_SEED = 100
NAMES = ("spotter-desk", "replay-longclip", "http-mock")

# long clips: LONG_SEEDS seeds of CLIPS_PER_LONG_SEED desk-corpus clips each
LONG_SEEDS = 8
CLIPS_PER_LONG_SEED = 6
# the desk-corpus keyword each category's template stands for
KEYWORDS = {"insult": "bark", "porn": "moan", "spam": "jingle"}
LONGCLIP_MRS = [
    {"kind": "compress", "params": {"threshold_db": -20.0, "ratio": 4.0}},
    {"kind": "bass_boost", "params": {"cutoff_hz": 150.0, "gain_db": 6.0}},
    {"kind": "reverb", "params": {"intensity": 0.3, "duration_s": 0.25, "seed": 11}},
    {"kind": "time_stretch", "params": {"factor": 1.15}},
    {"kind": "pitch_shift", "params": {"semitones": 2.0}},
    {"kind": "echo", "params": {"delay_s": 0.12, "decay": 0.4, "taps": 2}},
    {"kind": "inject_noise", "params": {"target_snr_db": 25.0, "seed": 7}},
    {
        "kind": "discontinuity",
        "params": {"targets": sorted(KEYWORDS.values()), "gap_s": 0.05, "repeats": 2},
    },
]
LABELLER_CATEGORIES = ("non_toxic", "insult", "porn", "spam")

# http-mock: the server sleeps httpserver.SERVICE_MS per answered request;
# the rate limit sits above the offered rate and the backoff is short, so
# time goes to waiting on the server
HTTP_RATE_LIMIT_PER_S = 400.0
HTTP_MAX_ATTEMPTS = 3
HTTP_BACKOFF_S = 0.005


Tuples = List[Tuple[str, str, str, int, int, int]]


class DigestLabeller(ModerationBackend):
    """Recording backend for replay-longclip: a seed keeps its declared
    category; any other clip gets a category picked by its content digest."""

    def __init__(self, seed_categories: Dict[str, str], name: str = "labeller"):
        self.name = name
        self._seed_categories = dict(seed_categories)

    def moderate(self, audio: AudioBuffer, *args, **kwargs) -> Verdict:
        digest = content_digest(audio)
        category = self._seed_categories.get(digest) or LABELLER_CATEGORIES[
            int(digest[:8], 16) % len(LABELLER_CATEGORIES)
        ]
        return Verdict(category, 0.9)


@dataclasses.dataclass
class Setup:
    """What one set-up leaves for the timed process. ``spec`` is plain JSON;
    ``server`` is the mock server process (http-mock only)."""

    spec: dict
    timings: Dict[str, float]
    server: Optional[subprocess.Popen] = None

    def stop(self) -> None:
        """Tell the mock server to exit, without waiting for it."""
        if self.server is not None and not self.server.stdin.closed:
            self.server.stdin.close()

    def close(self) -> None:
        if self.server is None:
            return
        self.stop()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None


def _desk_subset(config: CampaignConfig, tiny: bool) -> CampaignConfig:
    # tiny: one seed per category
    return dataclasses.replace(config, seeds=config.seeds[::4]) if tiny else config


def _build_desk(root: Path, seed: int, timings: Dict[str, float]) -> Path:
    started = time.perf_counter()
    config_path = build_corpus(root, base_seed=seed)
    timings["deskcorpus.build_s"] = time.perf_counter() - started
    return config_path


def _start_server(root: Path, labels_path: Path) -> Tuple[subprocess.Popen, str]:
    ready = root / "server.ready"
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "httpserver.py"),
            "--root",
            str(Path.cwd()),
            "--labels",
            str(labels_path),
            "--ready",
            str(ready),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while not ready.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("mock server did not start")
        time.sleep(0.002)
    return proc, ready.read_text(encoding="utf-8")


def join_clips(clips) -> Tuple[AudioBuffer, Tuple[str, ...], Tuple[Tuple[float, float], ...]]:
    """Concatenate desk-corpus (seed_id, category, clip) triples into one
    clip with a word-aligned transcript: "hey <keyword> there" per clip."""
    tokens, spans = [], []
    for j, (_, category, clip) in enumerate(clips):
        t0 = j * clip.duration
        t1 = t0 + SEED_CONTEXT_S
        t2 = t1 + TEMPLATE_DURATION_S
        tokens += ["hey", KEYWORDS[category], "there"]
        spans += [(t0, t1), (t1, t2), (t2, t0 + clip.duration)]
    samples = np.concatenate([clip.channel(0) for _, _, clip in clips])
    return AudioBuffer(samples, clips[0][2].sample_rate), tuple(tokens), tuple(spans)


def _long_seeds(root: Path, seed: int, tiny: bool) -> List[dict]:
    """Write the long seeds and their transcripts; return the config's seed
    entries."""
    clips = synth_seeds(seed)
    seeds_dir = root / "seeds"
    seeds_dir.mkdir(parents=True, exist_ok=True)
    count, length = (2, 3) if tiny else (LONG_SEEDS, CLIPS_PER_LONG_SEED)
    entries = []
    for i in range(count):
        start = (5 * i) % len(clips)  # 5 is coprime to 12: distinct starts
        parts = [clips[(start + j) % len(clips)] for j in range(length)]
        audio, tokens, spans = join_clips(parts)
        seed_id = f"long_{i}"
        write_wav(audio, seeds_dir / f"{seed_id}.wav")
        lines = [f"{w}\t{a:.4f}\t{b:.4f}\n" for w, (a, b) in zip(tokens, spans)]
        (seeds_dir / f"{seed_id}.txt").write_text("".join(lines), encoding="utf-8")
        entries.append(
            {
                "id": seed_id,
                "path": f"seeds/{seed_id}.wav",
                "transcript": f"seeds/{seed_id}.txt",
                "category": parts[0][1],
            }
        )
    return entries


def setup(name: str, root: Path, seed: int, tiny: bool) -> Setup:
    """Make the workload's inputs under root (and start the mock server)."""
    root.mkdir(parents=True, exist_ok=True)
    timings: Dict[str, float] = {}
    if name == "spotter-desk":
        config_path = _build_desk(root, seed, timings)
        started = time.perf_counter()
        load_templates(root / "templates")
        timings["spotter.load_templates_ms"] = (time.perf_counter() - started) * 1000.0
        return Setup({"config": str(config_path)}, timings)
    if name == "http-mock":
        config_path = _build_desk(root, seed, timings)
        config = _desk_subset(CampaignConfig.from_file(config_path), tiny)
        labels = {
            content_digest(read_wav(s.path)): httpserver.PROVIDER_LABEL[s.category.value]
            for s in config.seeds
        }
        labels_path = root / "seed_labels.json"
        labels_path.write_text(json.dumps(labels, sort_keys=True), encoding="utf-8")
        server, url = _start_server(root, labels_path)
        return Setup(
            {"config": str(config_path), "url": url, "labels": str(labels_path)},
            timings,
            server,
        )
    if name == "replay-longclip":
        started = time.perf_counter()
        entries = _long_seeds(root, seed, tiny)
        timings["deskcorpus.build_s"] = time.perf_counter() - started
        config = CampaignConfig.from_dict(
            {
                "seeds": entries,
                "mrs": LONGCLIP_MRS,
                # the labeller is passed as an object; this entry is never built
                "backends": [{"kind": "fixture", "name": "labeller", "path": "unused"}],
                "output_dir": "recorded",
                "workers": 1,
            },
            base_dir=root,
        )
        seed_categories = {
            content_digest(read_wav(s.path)): s.category.value for s in config.seeds
        }
        report = run_campaign(config, backends=[DigestLabeller(seed_categories)])
        return Setup({"manifest": str(report.manifest), "recorded": str(report.output_dir)}, timings)
    raise ValueError(f"unknown workload {name!r}")


def http_backend_config(url: str, epoch: str) -> dict:
    return {
        "kind": "http",
        "name": "http",
        "endpoint": url,
        "body": {"audio": "${audio_base64}", "digest": "${digest}", "epoch": epoch},
        "response_mapping": {
            "path": "result.label",
            "confidence_path": "result.score",
            "categories": httpserver.CATEGORIES,
        },
        "rate_limit_per_s": HTTP_RATE_LIMIT_PER_S,
        "max_attempts": HTTP_MAX_ATTEMPTS,
        "backoff_s": HTTP_BACKOFF_S,
        "timeout_s": 10.0,
    }


def campaign_config(name: str, spec: dict, tiny: bool, workers: int, out: Path, epoch: str = "") -> CampaignConfig:
    """The config of one campaign call (spotter-desk and http-mock)."""
    config = _desk_subset(CampaignConfig.from_file(spec["config"]), tiny)
    if name == "http-mock":
        config = dataclasses.replace(config, backend_configs=(http_backend_config(spec["url"], epoch),))
    return dataclasses.replace(config, workers=workers, output_dir=out)


def run(name: str, spec: dict, tiny: bool, workers: int, out: Path, epoch: str = "",
        backends: Optional[Sequence[ModerationBackend]] = None):
    """The campaign call a run times. Returns the CampaignReport."""
    if name == "replay-longclip":
        return replay_campaign(spec["manifest"], out, workers=workers)
    return run_campaign(campaign_config(name, spec, tiny, workers, out, epoch), backends)


def report_tuples(report_json: Path) -> Tuples:
    cells = json.loads(report_json.read_text(encoding="utf-8"))["cells"]
    return sorted(
        (c["mr"], c["category"], c["backend"], c["generated"], c["misclassified"], c["unanswered"])
        for c in cells
    )


def http_expected_tuples(spec: dict, tiny: bool) -> Tuples:
    """The report tuples the mock server's labelling rule implies."""
    config = campaign_config("http-mock", spec, tiny, 1, Path("unused"))
    seed_labels = json.loads(Path(spec["labels"]).read_text(encoding="utf-8"))

    def category(audio: AudioBuffer):
        return httpserver.expected_category(content_digest(audio), seed_labels)

    cells: Dict[Tuple[str, str, str], List[int]] = {}
    for seed in config.seeds:
        audio = read_wav(seed.path)
        if category(audio) in (None, "non_toxic"):
            continue  # filtered out: the only backend never flags it
        for mr in config.mrs:
            verdict = category(Perturbation(mr.kind, mr.params).apply(audio))
            counts = cells.setdefault((mr.label, seed.category.value, "http"), [0, 0, 0])
            counts[0] += 1
            counts[1] += verdict == "non_toxic"
            counts[2] += verdict is None
    return sorted((*key, *counts) for key, counts in cells.items())


def expected_tuples(name: str, spec: dict, seed: int, tiny: bool) -> Dict[str, Tuples]:
    """What the report tuples must be: the reference kept in reference.json
    at the default seed, and for http-mock the server's labelling rule."""
    expected = {}
    if not tiny and seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        expected["the reference"] = sorted(tuple(row) for row in reference[name])
    if name == "http-mock":
        expected["the server's labelling rule"] = http_expected_tuples(spec, tiny)
    return expected


def check_report(name: str, spec: dict, out: Path, replay_dir: Path,
                 expected: Dict[str, Tuples], first: Optional[Tuple[bytes, bytes]]) -> List[str]:
    """Correctness gate for one campaign's output directory: the report
    bytes against a replay (or the recording), against the run's first
    report, and the report tuples against each entry of ``expected``.
    Returns the problems found (empty when the report is right)."""
    problems = []
    got = tuple((out / f).read_bytes() for f in ("report.json", "report.csv"))
    if name == "replay-longclip":
        base = Path(spec["recorded"])
        what = "the recorded report"
    else:
        replay_campaign(out / "manifest.json", replay_dir, workers=1)
        base = replay_dir
        what = "a replay of its manifest"
    if got != tuple((base / f).read_bytes() for f in ("report.json", "report.csv")):
        problems.append(f"report differs from {what}")
    if first is not None and got != first:
        problems.append("report differs from the run's first campaign")
    tuples = report_tuples(out / "report.json")
    for source, want in expected.items():
        if tuples != want:
            problems.append(f"report tuples differ from {source}")
    return problems
