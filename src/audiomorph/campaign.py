"""Campaign engine: a staged pipeline from seed clips to EFR reports, plus
replay and the retraining export.

A campaign takes a set of seed clips with declared toxic categories, applies
every configured relation to every retained seed, sends the perturbed clips
to every backend, and counts how often a backend that should still flag the
clip answers non_toxic instead. ``run_campaign`` runs five stages: load
(``_load_seeds``), probe (``filter_seeds``, the seed filter), generate+query
(``_run_cases``: one job per case perturbs, digests, writes and queries, so
perturbed clips never pile up), tally (``_tally``) and emit (``_emit``:
manifest, report.json, report.csv). Every query goes through one
``VerdictStore``, which asks each backend about each digest once. Artifacts
are content-addressed 16-bit WAVs next to a JSON manifest, so a finished
campaign can be replayed offline against fixture backends and must reproduce
its report byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .audio import AudioBuffer, content_digest, read_wav, write_wav
from .backends import Category, ModerationBackend, Verdict, build_backend
from .errors import (
    BackendUnavailableError,
    CampaignError,
    ConfigError,
    DomainError,
    MissingFixtureError,
    ParameterError,
    ResponseMappingError,
)
from .perturb import Perturbation
# benign_discontinuity_audio is unused here (perturb.OPS runs it), but
# perfbench/tracing.py looks it up by name in this module
from .perturb.linguistic import Transcript, benign_discontinuity_audio, load_transcript

# failures of these kinds mark a single case unanswered; anything else is a bug
_CASE_ERRORS = (BackendUnavailableError, MissingFixtureError, ResponseMappingError)


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


@dataclass(frozen=True)
class CampaignConfig:
    seeds: Tuple[SeedSpec, ...]
    mrs: Tuple[Perturbation, ...]
    backend_configs: Tuple[Mapping, ...]
    output_dir: Path
    workers: int = 4

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("config needs a nonempty 'seeds' list", field="seeds")
        if not self.mrs:
            raise ConfigError("config needs a nonempty 'mrs' list", field="mrs")
        if not self.backend_configs:
            raise ConfigError(
                "config needs a nonempty 'backends' list", field="backends"
            )
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise ConfigError(
                f"workers must be a positive integer, got {self.workers}",
                field="workers",
            )
        ids = [s.seed_id for s in self.seeds]
        if len(set(ids)) != len(ids):
            raise ConfigError("seed ids must be unique", field="seeds")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @classmethod
    def from_dict(cls, d: Mapping, base_dir: Path = Path(".")) -> "CampaignConfig":
        base_dir = Path(base_dir)
        for name in ("seeds", "mrs", "backends", "output_dir"):
            if name not in d:
                raise ConfigError(f"config is missing '{name}'", field=name)
        seeds = []
        for i, entry in enumerate(d["seeds"]):
            for name in ("id", "path", "category"):
                if name not in entry:
                    raise ConfigError(f"seed #{i} is missing '{name}'", field=name)
            transcript = entry.get("transcript")
            seeds.append(
                SeedSpec(
                    seed_id=str(entry["id"]),
                    path=base_dir / entry["path"],
                    category=entry["category"],
                    transcript_path=base_dir / transcript if transcript else None,
                )
            )
        mrs = tuple(Perturbation.from_dict(m) for m in d["mrs"])
        backends = []
        for b in d["backends"]:
            b = dict(b)
            # file-backed backends get their paths pinned to the config dir
            for key in ("path", "templates_dir"):
                if key in b and not os.path.isabs(str(b[key])):
                    b[key] = str(base_dir / b[key])
            backends.append(b)
        out = d["output_dir"]
        out_path = Path(out) if os.path.isabs(str(out)) else base_dir / out
        return cls(
            seeds=tuple(seeds),
            mrs=mrs,
            backend_configs=tuple(backends),
            output_dir=out_path,
            workers=int(d.get("workers", 4)),
        )

    @classmethod
    def from_file(cls, path) -> "CampaignConfig":
        path = Path(path)
        try:
            d = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read campaign config {path}: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("campaign config must be a JSON object")
        return cls.from_dict(d, base_dir=path.parent)


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

    def ask_all(self, digest: str, audio: AudioBuffer) -> Tuple[Optional[Verdict], ...]:
        """One verdict per backend, in backend order."""
        return tuple(self._ask(backend, digest, audio) for backend in self.backends)

    def _ask(
        self, backend: ModerationBackend, digest: str, audio: AudioBuffer
    ) -> Optional[Verdict]:
        key = (backend.name, digest)
        with self._lock:
            answer = self._answers.get(key)
            first = answer is None
            if first:
                answer = self._answers[key] = Future()
        if first:
            try:
                answer.set_result(backend.moderate(audio))
            except _CASE_ERRORS:
                answer.set_result(None)
            except BaseException as exc:
                answer.set_exception(exc)
        return answer.result()

    def as_json(self) -> Dict[str, Dict[str, Optional[dict]]]:
        table: Dict[str, Dict[str, Optional[dict]]] = {b.name: {} for b in self.backends}
        for (name, digest), answer in self._answers.items():
            table[name][digest] = _verdict_json(answer.result())
        return table


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


def filter_seeds(
    seeds: Sequence[LoadedSeed],
    backends: Union[Sequence[ModerationBackend], VerdictStore],
    workers: int = 4,
) -> Tuple[List[LoadedSeed], Dict]:
    """Stage 2, the probe: drop seeds every backend calls non_toxic. A seed
    stays when at least one backend gives it any toxic label; per-backend
    tallies record how often each backend flagged a seed at all and how
    often it matched the declared category. A campaign passes its verdict
    store, so later stages reuse the seed verdicts."""
    if not seeds:
        raise CampaignError("no seeds to filter")
    verdicts = backends if isinstance(backends, VerdictStore) else VerdictStore(backends)
    if not verdicts.backends:
        raise CampaignError("no backends configured")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        answers = list(pool.map(lambda s: verdicts.ask_all(s.digest, s.audio), seeds))

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


def _run_cases(
    seeds: Sequence[LoadedSeed], verdicts: VerdictStore, config: CampaignConfig
) -> List[Outcome]:
    """Stage 3, generate and query: each job perturbs one seed with one
    relation, digests the clip, writes its artifact and asks every backend,
    so a perturbed clip lives only as long as its job. Results keep job
    order (seed-major), which keeps the tally deterministic."""

    def run_case(job: Tuple[LoadedSeed, Perturbation]) -> Outcome:
        seed, mr = job
        perturbed = mr.apply(seed.audio, seed.transcript)
        digest = content_digest(perturbed)
        artifact = f"artifacts/{digest}.wav"
        _write_artifact(perturbed, config.output_dir / artifact)
        case = TestCase(seed.spec.seed_id, mr, digest, artifact, seed.spec.category)
        return case, verdicts.ask_all(digest, perturbed)

    jobs = [(s, m) for s in seeds for m in config.mrs]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(run_case, jobs))


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


def _dump_json(obj, path: Path) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _verdict_json(verdict: Optional[Verdict]) -> Optional[dict]:
    if verdict is None:
        return None
    return {"category": verdict.category.value, "confidence": verdict.confidence}


def _emit(
    config: CampaignConfig,
    seeds: Sequence[LoadedSeed],
    outcomes: Sequence[Outcome],
    cells: Tuple[Cell, ...],
    filter_report: Dict,
    verdicts: VerdictStore,
) -> CampaignReport:
    """Stage 5: write manifest.json, report.json and report.csv."""
    out_dir = config.output_dir
    manifest_path = out_dir / "manifest.json"
    cases = sorted((case for case, _ in outcomes), key=lambda c: (c.seed_id, c.mr.label))
    manifest = {
        "version": __version__,
        "seeds": [
            {
                "id": s.spec.seed_id,
                "path": str(s.spec.path),
                "category": s.spec.category.value,
                "digest": s.digest,
                "transcript": str(s.spec.transcript_path)
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
    _dump_json(manifest, manifest_path)

    report_json_path = out_dir / "report.json"
    report = {
        "version": __version__,
        "cells": [cell.as_json() for cell in cells],
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
    _dump_json(report, report_json_path)

    report_csv_path = out_dir / "report.csv"
    with open(report_csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["mr", "category", "backend", "generated", "misclassified", "unanswered", "efr"]
        )
        for cell in cells:
            efr = cell.efr
            writer.writerow(
                [
                    cell.mr,
                    cell.category,
                    cell.backend,
                    cell.generated,
                    cell.misclassified,
                    cell.unanswered,
                    "" if efr is None else repr(efr),
                ]
            )

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


def replay_campaign(manifest_path, output_dir, workers: int = 4) -> CampaignReport:
    """Re-run a recorded campaign offline: seeds are re-read, artifacts are
    regenerated from the recorded relation descriptors, and every query is
    answered by a fixture backend built from the recorded verdicts. The
    resulting report must be byte-identical to the original."""
    from .backends.fixture import FixtureBackend

    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc

    backends = [
        FixtureBackend(
            {
                digest: Verdict(entry["category"], entry["confidence"])
                for digest, entry in manifest["verdicts"][name].items()
                if entry is not None
            },
            name=name,
        )
        for name in manifest["backends"]
    ]
    config = CampaignConfig(
        seeds=tuple(
            SeedSpec(
                seed_id=s["id"],
                path=s["path"],
                category=s["category"],
                transcript_path=s.get("transcript"),
            )
            for s in manifest["seeds"]
        ),
        mrs=tuple(Perturbation.from_dict(m) for m in manifest["mrs"]),
        backend_configs=({"kind": "fixture", "path": "unused"},),
        output_dir=output_dir,
        workers=workers,
    )
    return run_campaign(config, backends=backends)


def export_retraining_set(
    manifest_path,
    split: float,
    seed: int,
    output_path=None,
) -> List[dict]:
    """Build a balanced retraining manifest from a finished campaign:
    cases are grouped by (relation, category), each group is shuffled with
    the given seed, and `split` of the group is tagged test with an equal
    share tagged train."""
    if not (0.0 < split < 1.0):
        raise ParameterError(f"split must lie in (0, 1), got {split}")
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc

    groups: Dict[Tuple[str, str], List[dict]] = {}
    for case in manifest["cases"]:
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
        _dump_json(rows, Path(output_path))
    return rows
