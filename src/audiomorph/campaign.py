"""Campaign engine: a staged pipeline from seed clips to EFR reports, plus
replay and the retraining export.

A campaign takes a set of seed clips with declared toxic categories, applies
every configured relation to every retained seed, sends the perturbed clips
to every backend, and counts how often a backend that should still flag the
clip answers non_toxic instead. ``run_campaign`` runs five stages: load
(``_load_seeds``), probe (``filter_seeds``, the seed filter), generate+query
(``_run_cases``: one job per seed perturbs, digests and writes its cases,
so perturbed clips never pile up), tally (``_tally``) and emit (``_emit``:
manifest, report.json, report.csv). Every query goes through one
``VerdictStore``, which asks each backend about each digest once, and about
each job's new digests in one ``moderate_many`` call. Artifacts
are content-addressed 16-bit WAVs next to a JSON manifest, so a finished
campaign can be replayed offline against fixture backends and must reproduce
its report byte for byte.

A seed's job runs in a pool thread, which holds the seed's clips until the
backends have answered. When no backend reads the clip (``reads_audio``),
as in every replay, and there are several workers, one job per case runs in
forked worker processes instead (on Linux), which return only the case, and
the campaign asks about each digest in job order: perturbation holds the
GIL, and a clip sent back across the process boundary would cost more than
the extra process saves. The pool has at most one worker per job. Each
worker keeps the heap its jobs free (glibc's ``mallopt``; a no-op with
another C library), where trimming it would make the next job fault the
same pages in again. The workers exit with the pool, so that heap does
not outlive the campaign; the campaign's own process is the caller's and
keeps its heap settings. A worker that dies is a CampaignError.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .audio import AudioBuffer, content_digest, read_wav, write_wav
from .backends import Category, ModerationBackend, Verdict, build_backend
from .backends.fixture import FixtureBackend, verdicts_from_json, verdicts_to_json
from .errors import (
    CampaignError,
    ConfigError,
    DomainError,
    ParameterError,
    read_json_object,
    reject_unknown_keys,
    write_json,
)
from .perturb import Perturbation
# benign_discontinuity_audio is unused here (perturb.OPS runs it), but
# perfbench/tracing.py looks it up by name in this module
from .perturb.linguistic import Transcript, benign_discontinuity_audio, load_transcript

# a seed job asks the backends about the clips it holds once they pass this
# size, so a worker holds a bounded amount of audio however long the seeds
# are; a 1 s seed's clips (128 KB each at 16 kHz) go in one batch
_JOB_AUDIO_BYTES = 1 << 20

# the worker pool size when a config, a replay or the probe names none
DEFAULT_WORKERS = 4
_CONFIG_KEYS = ("seeds", "mrs", "backends", "output_dir", "workers")
_SEED_KEYS = ("id", "path", "category", "transcript")
# the JSON type of each top-level manifest key that is read back
_MANIFEST_TYPES = {"seeds": list, "mrs": list, "backends": list, "verdicts": dict, "cases": list}

# the columns of report.csv and of `audiomorph report`, in order
REPORT_COLUMNS = ("mr", "category", "backend", "generated", "misclassified", "unanswered", "efr")


def compute_efr(misclassified: int, answered: int) -> Optional[float]:
    """Percent of answered cases the backend let through. None when nothing
    was answered (the ratio is undefined, reported as null)."""
    if misclassified < 0 or answered < 0:
        raise DomainError("counts must be non-negative")
    if misclassified > answered:
        raise DomainError(
            f"misclassified ({misclassified}) exceeds answered ({answered})"
        )
    if answered == 0:
        return None
    return 100.0 * misclassified / answered


@dataclass(frozen=True)
class SeedSpec:
    seed_id: str
    path: Path
    category: Category
    transcript_path: Optional[Path] = None

    def __post_init__(self):
        category = Category.parse(self.category)
        if category is Category.NON_TOXIC:
            raise ConfigError(
                f"seed {self.seed_id!r} must declare a toxic category",
                field="category",
            )
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "path", Path(self.path))
        if self.transcript_path is not None:
            object.__setattr__(self, "transcript_path", Path(self.transcript_path))


def _resolve(value, base_dir: Path, field: str, where: str) -> Path:
    """A path string from a config or manifest, resolved against base_dir
    (an absolute one stays as it is); any other value is a ConfigError."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{where} {field!r} must be a path string, got {value!r}", field=field)
    return base_dir / value


def _read_seeds(entries, base_dir: Path, known: Sequence[str] = _SEED_KEYS) -> Tuple[SeedSpec, ...]:
    """The seed entries of a campaign config or manifest; relative paths
    resolve against base_dir, and an entry key outside ``known`` is a
    ConfigError naming it."""
    if not isinstance(entries, list):
        raise ConfigError("'seeds' must be a list", field="seeds")
    seeds = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"seed #{i} must be a JSON object", field="seeds")
        reject_unknown_keys(entry, known, f"seed #{i}")
        for name in ("id", "path", "category"):
            if name not in entry:
                raise ConfigError(f"seed #{i} is missing '{name}'", field=name)
        if not isinstance(entry["id"], str):
            raise ConfigError(f"seed #{i} 'id' must be a string, got {entry['id']!r}", field="id")
        transcript = entry.get("transcript")
        seeds.append(
            SeedSpec(
                seed_id=entry["id"],
                path=_resolve(entry["path"], base_dir, "path", f"seed #{i}"),
                category=entry["category"],
                # an empty transcript, like a missing one, means none
                transcript_path=None if transcript in (None, "")
                else _resolve(transcript, base_dir, "transcript", f"seed #{i}"),
            )
        )
    return tuple(seeds)


@dataclass(frozen=True)
class CampaignConfig:
    seeds: Tuple[SeedSpec, ...]
    mrs: Tuple[Perturbation, ...]
    backend_configs: Tuple[Mapping, ...]
    output_dir: Path
    workers: int = DEFAULT_WORKERS

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("config needs a nonempty 'seeds' list", field="seeds")
        if not self.mrs:
            raise ConfigError("config needs a nonempty 'mrs' list", field="mrs")
        # a bool is an int to isinstance, so the type is compared exactly
        if type(self.workers) is not int or self.workers < 1:
            raise ConfigError(
                f"workers must be a positive integer, got {self.workers!r}",
                field="workers",
            )
        ids = [s.seed_id for s in self.seeds]
        if len(set(ids)) != len(ids):
            raise ConfigError("seed ids must be unique", field="seeds")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @classmethod
    def from_dict(cls, d: Mapping, base_dir: Path = Path(".")) -> "CampaignConfig":
        base_dir = Path(base_dir)
        reject_unknown_keys(d, _CONFIG_KEYS, "config")
        for name in ("seeds", "mrs", "backends", "output_dir"):
            if name not in d:
                raise ConfigError(f"config is missing '{name}'", field=name)
        for name in ("mrs", "backends"):
            if not isinstance(d[name], list):
                raise ConfigError(f"{name!r} must be a list", field=name)
        # replay passes backend objects instead, so only a config file must list some
        if not d["backends"]:
            raise ConfigError("config needs a nonempty 'backends' list", field="backends")
        backends = []
        for i, b in enumerate(d["backends"]):
            if not isinstance(b, dict):
                raise ConfigError(
                    f"'backends' entry #{i} must be a JSON object, got {b!r}", field="backends"
                )
            b = dict(b)
            # file-backed backends get their paths pinned to the config dir
            for key in ("path", "templates_dir"):
                if key in b:
                    b[key] = str(_resolve(b[key], base_dir, key, f"backend #{i}"))
            backends.append(b)
        return cls(
            seeds=_read_seeds(d["seeds"], base_dir),
            mrs=tuple(Perturbation.from_dict(m) for m in d["mrs"]),
            backend_configs=tuple(backends),
            output_dir=_resolve(d["output_dir"], base_dir, "output_dir", "config"),
            workers=d.get("workers", DEFAULT_WORKERS),
        )

    @classmethod
    def from_file(cls, path) -> "CampaignConfig":
        return cls.from_dict(read_json_object(path, "campaign config"), Path(path).parent)


@dataclass(frozen=True)
class LoadedSeed:
    spec: SeedSpec
    audio: AudioBuffer
    digest: str
    transcript: Optional[Transcript]


@dataclass(frozen=True)
class TestCase:
    seed_id: str
    mr: Perturbation
    digest: str
    artifact: str  # path relative to the output directory
    category: Category


@dataclass
class Cell:
    mr: str
    category: str
    backend: str
    generated: int = 0
    misclassified: int = 0
    unanswered: int = 0
    drift: int = 0

    @property
    def answered(self) -> int:
        return self.generated - self.unanswered

    @property
    def efr(self) -> Optional[float]:
        return compute_efr(self.misclassified, self.answered)

    def as_json(self) -> dict:
        return {
            "mr": self.mr,
            "category": self.category,
            "backend": self.backend,
            "generated": self.generated,
            "misclassified": self.misclassified,
            "unanswered": self.unanswered,
            "efr": self.efr,
        }


@dataclass(frozen=True)
class CampaignReport:
    cells: Tuple[Cell, ...]
    seed_filter: Mapping
    output_dir: Path
    report_json: Path
    report_csv: Path
    manifest: Path

    @property
    def no_seeds(self) -> bool:
        return self.seed_filter["retained"] == 0


def load_seed(spec: SeedSpec) -> LoadedSeed:
    audio = read_wav(spec.path)
    transcript = (
        load_transcript(spec.transcript_path) if spec.transcript_path else None
    )
    return LoadedSeed(spec, audio, content_digest(audio), transcript)


class VerdictStore:
    """The verdicts of one campaign, keyed by (backend name, digest); None
    marks a pair the backend left unanswered. Each pair is queried at most
    once, also when concurrent jobs produce the same digest, so the seed
    filter, the tally and the manifest all see one answer per pair."""

    def __init__(self, backends: Sequence[ModerationBackend]):
        if len({b.name for b in backends}) != len(backends):
            raise ConfigError("backend names must be unique", field="backends")
        self.backends = tuple(backends)
        self._lock = threading.Lock()
        self._answers: Dict[Tuple[str, str], Future] = {}

    def ask_many(
        self, clips: Sequence[Optional[AudioBuffer]], digests: Sequence[str]
    ) -> List[Tuple[Optional[Verdict], ...]]:
        """One verdict per backend, in backend order, for each clip; a clip
        is None only when no backend reads it. Each backend is asked once,
        through ``moderate_many``, about the digests no job has claimed yet;
        the answers to the others are awaited."""
        columns = [self._ask(backend, clips, digests) for backend in self.backends]
        return list(zip(*columns))

    def _ask(self, backend: ModerationBackend, clips, digests) -> List[Optional[Verdict]]:
        claimed: Dict[str, tuple] = {}  # digest -> (its Future, clip)
        with self._lock:
            for clip, digest in zip(clips, digests):
                if (backend.name, digest) not in self._answers:
                    future = self._answers[backend.name, digest] = Future()
                    claimed[digest] = future, clip
            answers = [self._answers[backend.name, digest] for digest in digests]
        if claimed:
            futures, pending = zip(*claimed.values())
            try:
                verdicts = backend.moderate_many(pending, list(claimed))
                if len(verdicts) != len(futures):
                    raise CampaignError(
                        f"backend {backend.name!r} answered {len(verdicts)} of {len(futures)} clips"
                    )
            except BaseException as exc:
                for future in futures:
                    future.set_exception(exc)
            else:
                for future, verdict in zip(futures, verdicts):
                    future.set_result(verdict)
        return [answer.result() for answer in answers]

    def as_json(self) -> Dict[str, Dict[str, Optional[dict]]]:
        tables: Dict[str, Dict[str, Optional[Verdict]]] = {b.name: {} for b in self.backends}
        for (name, digest), answer in self._answers.items():
            tables[name][digest] = answer.result()
        return {name: verdicts_to_json(table) for name, table in tables.items()}


def _load_seeds(config: CampaignConfig) -> List[LoadedSeed]:
    """Stage 1: read every seed, its digest and, where needed, its transcript."""
    try:
        seeds = [load_seed(spec) for spec in config.seeds]
    except OSError as exc:
        raise CampaignError(f"cannot load seed audio: {exc}") from exc
    if any(mr.needs_transcript for mr in config.mrs):
        missing = [s.spec.seed_id for s in seeds if s.transcript is None]
        if missing:
            raise ConfigError(
                f"discontinuity relations need aligned transcripts; "
                f"seeds without one: {missing}",
                field="transcript",
            )
    return seeds


def _split(items: Sequence, parts: int) -> list:
    """``items`` in at most ``parts`` contiguous runs of near-equal length."""
    bounds = [len(items) * k // parts for k in range(parts + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def filter_seeds(
    seeds: Sequence[LoadedSeed], verdicts: VerdictStore, workers: int = DEFAULT_WORKERS
) -> Tuple[List[LoadedSeed], Dict]:
    """Stage 2, the probe: drop seeds every backend calls non_toxic. A seed
    stays when at least one backend gives it any toxic label; per-backend
    tallies record how often each backend flagged a seed at all and how
    often it matched the declared category. The seed verdicts stay in the
    campaign's store, so later stages reuse them."""
    if not seeds:
        raise CampaignError("no seeds to filter")
    if not verdicts.backends:
        raise CampaignError("no backends configured")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        groups = _split(seeds, workers)
        rows = pool.map(lambda g: verdicts.ask_many([s.audio for s in g], [s.digest for s in g]), groups)
        answers = [row for group in rows for row in group]

    names = [b.name for b in verdicts.backends]
    per_backend = {
        name: {"answered": 0, "flagged_toxic": 0, "matched_declared": 0} for name in names
    }
    retained = []
    for seed, row in zip(seeds, answers):
        for name, verdict in zip(names, row):
            if verdict is not None:
                counts = per_backend[name]
                counts["answered"] += 1
                counts["flagged_toxic"] += verdict.is_toxic
                # declared categories are toxic, so a match is also a flag
                counts["matched_declared"] += verdict.category is seed.spec.category
        if any(v is not None and v.is_toxic for v in row):
            retained.append(seed)
    if not any(counts["answered"] for counts in per_backend.values()):
        raise CampaignError("all backends unavailable during seed filtering")

    filter_report = {
        "total": len(seeds),
        "retained": len(retained),
        "excluded": len(seeds) - len(retained),
        "retained_ids": sorted(s.spec.seed_id for s in retained),
        "per_backend": per_backend,
    }
    return retained, filter_report


def _write_artifact(audio: AudioBuffer, path: Path) -> None:
    # content-addressed: concurrent duplicate writers are harmless
    if path.exists():
        return
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        write_wav(audio, tmp)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise CampaignError(f"cannot write artifact {path}: {exc}") from exc


Outcome = Tuple[TestCase, Tuple[Optional[Verdict], ...]]


def _generate(
    seed: LoadedSeed, mr: Perturbation, output_dir: Path
) -> Tuple[TestCase, AudioBuffer]:
    """One case: perturb the seed with the relation, digest the clip and
    write its artifact."""
    perturbed = mr.apply(seed.audio, seed.transcript)
    digest = content_digest(perturbed)
    artifact = f"artifacts/{digest}.wav"
    _write_artifact(perturbed, output_dir / artifact)
    return TestCase(seed.spec.seed_id, mr, digest, artifact, seed.spec.category), perturbed


# (seeds, output_dir) of a worker process, set by the pool's initializer;
# fork hands them over without pickling the seed audio
_worker_inputs: Tuple[Sequence[LoadedSeed], Path] = ((), Path())

# glibc's mallopt(3) parameters and the values a worker sets for its
# lifetime: never trim the heap's freed top, and take blocks below 32 MiB
# (glibc's largest mmap threshold on 64-bit) from the heap, whatever
# threshold the worker inherits
_M_TRIM_THRESHOLD, _NEVER_TRIM = -1, -1
_M_MMAP_THRESHOLD, _HEAP_BELOW_BYTES = -3, 32 << 20


def _init_worker(seeds: Sequence[LoadedSeed], output_dir: Path) -> None:
    """Set a forked worker's inputs and stop glibc trimming its heap; the
    latter is a no-op where the C library has no ``mallopt``."""
    import ctypes  # only a worker needs it

    global _worker_inputs
    _worker_inputs = (seeds, output_dir)
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        mallopt = None
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, _NEVER_TRIM)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_BELOW_BYTES)


def _generate_in_worker(job: Tuple[int, Perturbation]) -> TestCase:
    seeds, output_dir = _worker_inputs
    return _generate(seeds[job[0]], job[1], output_dir)[0]


def _run_cases(
    seeds: Sequence[LoadedSeed], verdicts: VerdictStore, config: CampaignConfig
) -> List[Outcome]:
    """Stage 3, generate and query. A pool thread runs one job per seed: it
    perturbs the seed with each relation, digests and writes each clip,
    then asks each backend once about the job's clips. So a job holds one
    seed's clips, only until every backend that reads audio has answered,
    and at most about ``_JOB_AUDIO_BYTES`` of them: past that it asks about
    those it holds before it makes the next. With fewer seeds than workers,
    each seed's relations are split over ceil(workers / seeds) jobs, so
    that ``workers`` jobs (an HTTP backend's requests in flight) still run
    at once. Results keep job order (seed-major), which keeps the tally
    deterministic.

    When no backend reads the clip and workers > 1, forked worker processes
    run one job per case instead and return its case, and the backends are
    asked here, in job order. The pool starts at most one worker per job,
    since fork starts them all up front, and each worker keeps the heap its
    jobs free (``_init_worker``). A worker that dies (the out-of-memory
    killer) is a CampaignError. Fork needs the probe's threads to be
    joined, as they are, and no native library to run threads of its own:
    that holds on Linux, while on macOS system libraries such as Accelerate
    (which numpy may link) can, so elsewhere the jobs stay on threads."""
    reads_audio = any(b.reads_audio for b in verdicts.backends)
    if config.workers > 1 and seeds and sys.platform.startswith("linux") and not reads_audio:
        # imported here: the pool's modules would add about 1 MB to the
        # resident memory of every campaign, also those on threads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        jobs = [(i, mr) for i in range(len(seeds)) for mr in config.mrs]
        workers = min(config.workers, len(jobs))
        try:
            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(seeds, config.output_dir),
            ) as pool:
                chunksize = max(1, len(jobs) // (4 * workers))
                cases = list(pool.map(_generate_in_worker, jobs, chunksize=chunksize))
        except BrokenProcessPool as exc:
            raise CampaignError(
                f"a worker process died while generating cases (killed, for example "
                f"by the out-of-memory killer): {exc}"
            ) from exc
        return list(zip(cases, verdicts.ask_many([None] * len(cases), [c.digest for c in cases])))

    def run_job(job: Tuple[int, Sequence[Perturbation]]) -> List[Outcome]:
        outcomes: List[Outcome] = []
        cases, clips = [], []
        for k, mr in enumerate(job[1]):
            case, perturbed = _generate(seeds[job[0]], mr, config.output_dir)
            cases.append(case)
            clips.append(perturbed if reads_audio else None)
            del perturbed  # an unread clip is freed before the next is made
            held = sum(clip.samples.nbytes for clip in clips if clip is not None)
            if k == len(job[1]) - 1 or held > _JOB_AUDIO_BYTES:
                outcomes += zip(cases, verdicts.ask_many(clips, [c.digest for c in cases]))
                cases, clips = [], []
        return outcomes

    parts = -(-config.workers // max(1, len(seeds)))
    jobs = [(i, mrs) for i in range(len(seeds)) for mrs in _split(config.mrs, parts)]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return [outcome for outcomes in pool.map(run_job, jobs) for outcome in outcomes]


def _tally(outcomes: Sequence[Outcome], backend_names: Sequence[str]) -> Tuple[Cell, ...]:
    """Stage 4: count every (case, backend) answer into its cell."""
    cells: Dict[Tuple[str, str, str], Cell] = {}
    for case, row in outcomes:
        for name, verdict in zip(backend_names, row):
            key = (case.mr.label, case.category.value, name)
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = Cell(*key)
            cell.generated += 1
            if verdict is None:
                cell.unanswered += 1
            elif not verdict.is_toxic:
                cell.misclassified += 1
            elif verdict.category is not case.category:
                cell.drift += 1
    return tuple(cells[key] for key in sorted(cells))


def report_row(cell: Mapping) -> list:
    """A report.json cell as a row under REPORT_COLUMNS; a null EFR is empty."""
    efr = cell["efr"]
    return [*(cell[column] for column in REPORT_COLUMNS[:-1]), "" if efr is None else repr(efr)]


def _emit(
    config: CampaignConfig,
    seeds: Sequence[LoadedSeed],
    outcomes: Sequence[Outcome],
    cells: Tuple[Cell, ...],
    filter_report: Dict,
    verdicts: VerdictStore,
) -> CampaignReport:
    """Stage 5: write manifest.json, report.json and report.csv. Seed and
    transcript paths are recorded relative to the output directory, so a
    moved campaign tree still replays."""
    out_dir = config.output_dir
    manifest_path = out_dir / "manifest.json"
    cases = sorted((case for case, _ in outcomes), key=lambda c: (c.seed_id, c.mr.label))
    manifest = {
        "version": __version__,
        "seeds": [
            {
                "id": s.spec.seed_id,
                "path": os.path.relpath(s.spec.path, out_dir),
                "category": s.spec.category.value,
                "digest": s.digest,
                "transcript": os.path.relpath(s.spec.transcript_path, out_dir)
                if s.spec.transcript_path
                else None,
            }
            for s in seeds
        ],
        "mrs": [mr.describe() for mr in config.mrs],
        "backends": [b.name for b in verdicts.backends],
        # every queried pair, null when unanswered, so replay re-runs the filter
        "verdicts": verdicts.as_json(),
        "cases": [
            {
                "seed_id": c.seed_id,
                "mr": c.mr.describe(),
                "digest": c.digest,
                "artifact": c.artifact,
                "category": c.category.value,
            }
            for c in cases
        ],
        "workers": config.workers,
    }
    write_json(manifest, manifest_path)

    report_json_path = out_dir / "report.json"
    rows = [cell.as_json() for cell in cells]
    report = {
        "version": __version__,
        "cells": rows,
        "category_drift": [
            {
                "mr": cell.mr,
                "category": cell.category,
                "backend": cell.backend,
                "count": cell.drift,
            }
            for cell in cells
            if cell.drift
        ],
        "seed_filter": filter_report,
        "manifest": manifest_path.name,
    }
    write_json(report, report_json_path)

    report_csv_path = out_dir / "report.csv"
    with open(report_csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(report_row(row) for row in rows)

    return CampaignReport(
        cells=cells,
        seed_filter=filter_report,
        output_dir=out_dir,
        report_json=report_json_path,
        report_csv=report_csv_path,
        manifest=manifest_path,
    )


def run_campaign(
    config: CampaignConfig,
    backends: Optional[Sequence[ModerationBackend]] = None,
) -> CampaignReport:
    """Execute the full protocol and persist artifacts, manifest, and the
    JSON+CSV reports under config.output_dir. Backend objects may be passed
    directly (replay, tests); otherwise they are built from the config."""
    if backends is None:
        backends = [build_backend(cfg) for cfg in config.backend_configs]
    verdicts = VerdictStore(backends)
    seeds = _load_seeds(config)
    (config.output_dir / "artifacts").mkdir(parents=True, exist_ok=True)
    retained, filter_report = filter_seeds(seeds, verdicts, config.workers)
    outcomes = _run_cases(retained, verdicts, config)
    cells = _tally(outcomes, [b.name for b in verdicts.backends])
    return _emit(config, seeds, outcomes, cells, filter_report, verdicts)


def _read_manifest(path, keys: Sequence[str]) -> dict:
    """A campaign's manifest.json; unreadable JSON, or a top-level key in
    ``keys`` that is missing or of the wrong JSON type, is a ConfigError."""
    manifest = read_json_object(path, "manifest")
    for key in keys:
        if key not in manifest:
            raise ConfigError(f"manifest {path} is missing {key!r}", field=key)
        if not isinstance(manifest[key], _MANIFEST_TYPES[key]):
            raise ConfigError(
                f"manifest {path}: {key!r} must be a {_MANIFEST_TYPES[key].__name__}", field=key
            )
    return manifest


def replay_campaign(manifest_path, output_dir, workers: int = DEFAULT_WORKERS) -> CampaignReport:
    """Re-run a recorded campaign offline: seeds are re-read (relative paths
    from the manifest's directory), artifacts are regenerated from the
    recorded relation descriptors, and every query is answered by a fixture
    backend loaded from the backend's recorded verdict table. The resulting
    report must be byte-identical to the original; regenerated cases that
    differ from the recorded ones are a CampaignError."""
    manifest_path = Path(manifest_path)
    manifest = _read_manifest(manifest_path, ("seeds", "mrs", "backends", "verdicts", "cases"))
    tables = manifest["verdicts"]
    backends = []
    for name in manifest["backends"]:
        if not (isinstance(name, str) and name in tables):
            raise ConfigError(
                f"manifest {manifest_path} has no verdict table for backend {name!r}",
                field="verdicts",
            )
        where = f"manifest {manifest_path} verdicts[{name!r}]"
        backends.append(FixtureBackend(verdicts_from_json(tables[name], where), name=name))
    config = CampaignConfig(
        seeds=_read_seeds(manifest["seeds"], manifest_path.parent, (*_SEED_KEYS, "digest")),
        mrs=tuple(Perturbation.from_dict(m) for m in manifest["mrs"]),
        backend_configs=(),
        output_dir=output_dir,
        workers=workers,
    )
    report = run_campaign(config, backends=backends)
    if _read_manifest(report.manifest, ("cases",))["cases"] != manifest["cases"]:
        raise CampaignError(
            f"replay of {manifest_path} diverged: its relations or seed audio no longer "
            f"give the recorded cases (regenerated ones are in {report.manifest})"
        )
    return report


def export_retraining_set(
    manifest_path,
    split: float,
    seed: int,
    output_path=None,
) -> List[dict]:
    """Build a balanced retraining manifest from a finished campaign's
    misclassified cases, those some backend answered non_toxic: they are
    grouped by (relation, category), each group is shuffled with the given
    seed, and `split` of the group is tagged test with an equal share
    tagged train."""
    if not (0.0 < split < 1.0):
        raise ParameterError(f"split must lie in (0, 1), got {split}")
    manifest = _read_manifest(manifest_path, ("cases", "verdicts"))
    missed = {
        digest
        for name, table in manifest["verdicts"].items()
        for digest, verdict in verdicts_from_json(
            table, f"manifest {manifest_path} verdicts[{name!r}]"
        ).items()
        if verdict is not None and not verdict.is_toxic
    }

    groups: Dict[Tuple[str, str], List[dict]] = {}
    for case in manifest["cases"]:
        if case["digest"] not in missed:
            continue
        mr_label = Perturbation.from_dict(case["mr"]).label
        groups.setdefault((mr_label, case["category"]), []).append(case)

    rng = np.random.default_rng(seed)
    rows: List[dict] = []
    for key in sorted(groups):
        group = sorted(groups[key], key=lambda c: (c["digest"], c["seed_id"]))
        order = rng.permutation(len(group))
        take = int(round(split * len(group)))
        take = min(take, len(group) // 2)  # test and train must not overlap
        for rank, idx in enumerate(order):
            if rank < take:
                tag = "test"
            elif rank < 2 * take:
                tag = "train"
            else:
                continue
            case = group[idx]
            rows.append(
                {
                    "artifact": case["artifact"],
                    "label": case["category"],
                    "mr": case["mr"],
                    "split": tag,
                }
            )
    rows.sort(key=lambda r: (r["split"], r["label"], json.dumps(r["mr"], sort_keys=True), r["artifact"]))
    if output_path is not None:
        write_json(rows, Path(output_path))
    return rows
