"""Campaign engine: EFR arithmetic, seed filtering, report accounting,
replay determinism, and the retraining export."""

import concurrent.futures
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomorph import __version__, campaign, deskcorpus
from audiomorph.audio import AudioBuffer, content_digest, read_wav, write_wav
from audiomorph.backends import Category, ModerationBackend, Verdict
from audiomorph.backends.fixture import FixtureBackend
from audiomorph.campaign import (
    CampaignConfig,
    SeedSpec,
    VerdictStore,
    compute_efr,
    export_retraining_set,
    filter_seeds,
    load_seed,
    replay_campaign,
    run_campaign,
)
from audiomorph.errors import (
    BackendUnavailableError,
    CampaignError,
    ConfigError,
    DomainError,
    MissingFixtureError,
    ParameterError,
)
from audiomorph.perturb import Perturbation
from audiomorph.perturb.linguistic import load_transcript
from .conftest import sine


class TestComputeEfr:
    def test_definition(self):
        assert compute_efr(5, 20) == 25.0
        assert compute_efr(0, 7) == 0.0
        assert compute_efr(7, 7) == 100.0

    def test_undefined_when_nothing_answered(self):
        assert compute_efr(0, 0) is None

    def test_invariant_violation(self):
        with pytest.raises(DomainError):
            compute_efr(3, 2)
        with pytest.raises(DomainError):
            compute_efr(-1, 2)

    def test_full_precision(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 1000))
            k = int(rng.integers(0, n + 1))
            assert compute_efr(k, n) == 100.0 * k / n

    def test_monotone_in_misclassified(self):
        for k in range(10):
            assert compute_efr(k, 10) < compute_efr(k + 1, 11) or True
            # adding one misclassified answered case never lowers the rate
            assert compute_efr(k + 1, 11) >= compute_efr(k, 11)


class ScriptedBackend(ModerationBackend):
    """Answers by content digest from a script; digests absent from the
    script get non_toxic. Optionally fails on listed digests."""

    def __init__(self, name, script=None, failing=()):
        self.name = name
        self.script = dict(script or {})
        self.failing = set(failing)
        self.queried = []  # list.append is atomic across pool threads

    @property
    def calls(self):
        return len(self.queried)

    def moderate(self, audio, digest):
        self.queried.append(digest)
        if digest in self.failing:
            raise BackendUnavailableError(f"{self.name} scripted failure")
        category = self.script.get(digest, Category.NON_TOXIC)
        return Verdict(category, 0.75)


class FlippingBackend(ScriptedBackend):
    """Answers from the script on a digest's first query and non_toxic on
    every repeat, like a backend whose verdicts drift between calls."""

    def moderate(self, audio, digest):
        verdict = super().moderate(audio, digest)
        if self.queried.count(digest) > 1:
            return Verdict(Category.NON_TOXIC, 0.75)
        return verdict


def _make_seed(tmp_path, name, freq, category, duration_s=0.5):
    path = tmp_path / f"{name}.wav"
    write_wav(sine(freq, duration_s=duration_s, amplitude=0.5), path)
    # hand back the quantized version the campaign will actually load
    return SeedSpec(seed_id=name, path=path, category=category), read_wav(path)


class TestFilterSeeds:
    def test_scripted_matrix(self, tmp_path):
        specs = []
        digests = {}
        for name, freq, cat in [
            ("a", 300.0, "insult"),
            ("b", 400.0, "porn"),
            ("c", 500.0, "spam"),
            ("d", 600.0, "insult"),
        ]:
            spec, buf = _make_seed(tmp_path, name, freq, cat)
            specs.append(spec)
            digests[name] = content_digest(buf)
        seeds = [load_seed(s) for s in specs]

        # a: both flag; b: one flags; c: flagged with the wrong toxic
        # category; d: everyone says non_toxic
        b1 = ScriptedBackend(
            "b1",
            {
                digests["a"]: Category.INSULT,
                digests["c"]: Category.INSULT,
            },
        )
        b2 = ScriptedBackend("b2", {digests["a"]: Category.INSULT, digests["b"]: Category.PORN})
        retained, report = filter_seeds(seeds, VerdictStore([b1, b2]))

        # excluded exactly when every backend answered non_toxic
        assert sorted(s.spec.seed_id for s in retained) == ["a", "b", "c"]
        assert report["total"] == 4
        assert report["retained"] == 3
        assert report["excluded"] == 1
        assert report["per_backend"]["b1"] == {
            "answered": 4,
            "flagged_toxic": 2,
            "matched_declared": 1,
        }
        assert report["per_backend"]["b2"] == {
            "answered": 4,
            "flagged_toxic": 2,
            "matched_declared": 2,
        }

    def test_all_backends_unavailable_aborts(self, tmp_path):
        spec, buf = _make_seed(tmp_path, "a", 300.0, "insult")
        seeds = [load_seed(spec)]
        dead = ScriptedBackend("dead", failing={content_digest(buf)})
        with pytest.raises(CampaignError):
            filter_seeds(seeds, VerdictStore([dead]))

    def test_one_live_backend_suffices(self, tmp_path):
        spec, buf = _make_seed(tmp_path, "a", 300.0, "insult")
        seeds = [load_seed(spec)]
        dead = ScriptedBackend("dead", failing={content_digest(buf)})
        live = ScriptedBackend("live", {content_digest(buf): Category.INSULT})
        retained, report = filter_seeds(seeds, VerdictStore([dead, live]))
        assert len(retained) == 1
        assert report["per_backend"]["dead"]["answered"] == 0


class TestConfig:
    def test_missing_fields_named(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            CampaignConfig.from_dict({"mrs": [], "backends": [], "output_dir": "o"})
        assert err.value.field == "seeds"

    def test_empty_mrs_rejected(self, tmp_path):
        spec, _ = _make_seed(tmp_path, "a", 300.0, "insult")
        with pytest.raises(ConfigError) as err:
            CampaignConfig(
                seeds=(spec,), mrs=(), backend_configs=({"kind": "x"},),
                output_dir=tmp_path,
            )
        assert err.value.field == "mrs"

    def test_non_toxic_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            SeedSpec(seed_id="a", path=tmp_path / "a.wav", category="non_toxic")

    def test_unknown_mr_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown relation kind 'transmogrify'"):
            Perturbation("transmogrify", {})

    def test_mr_kind_normalized(self):
        assert Perturbation("Ring-Mod", {"carrier_hz": 30.0}).kind == "ring_mod"

    def test_unknown_mr_parameter_rejected(self):
        with pytest.raises(ConfigError):
            Perturbation("gain", {"decibels": 6.0})

    def test_non_object_mr_params_rejected(self):
        with pytest.raises(ConfigError, match="'params' must be an object"):
            Perturbation.from_dict({"kind": "gain", "params": 5})

    def test_discontinuity_without_transcript_raises(self):
        mr = Perturbation("discontinuity", {"targets": ["x"], "gap_s": 0.1, "repeats": 2})
        assert mr.needs_transcript
        assert not Perturbation("gain", {"db": 6.0}).needs_transcript
        with pytest.raises(DomainError):
            mr.apply(sine(300.0, duration_s=0.5))

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            # read letter by letter, "bitch" would match no token
            ("discontinuity", {"targets": "bitch", "gap_s": 0.1, "repeats": 2}, "targets"),
            ("discontinuity", {"targets": ["a", 1], "gap_s": 0.1, "repeats": 2}, "targets"),
            ("gain", {"db": "6"}, "db"),
            ("echo", {"delay_s": 0.1, "decay": 0.5, "taps": 2.5}, "taps"),
            ("discontinuity", {"targets": ["bitch"], "gap_s": 0.1, "repeats": True}, "repeats"),
            # a null seed would draw fresh noise on every run, so no replay matches
            ("inject_noise", {"target_snr_db": 20.0, "seed": None}, "seed"),
            ("inject_noise", {"target_snr_db": 20.0, "seed": 7.0}, "seed"),
        ],
    )
    def test_mistyped_mr_param_rejected_before_any_query(self, tmp_path, kind, params, key):
        # values are checked as given when the relation is built, so the
        # probe queries nothing and no output directory is made
        _, buf = _make_seed(tmp_path, "a", 300.0, "insult")
        (tmp_path / "a.tsv").write_text("son\t0.0\t0.2\nbitch\t0.2\t0.4\n", encoding="utf-8")
        config = self._minimal()
        config["seeds"][0]["transcript"] = "a.tsv"
        config["mrs"] = [{"kind": kind, "params": params}]
        backend = ScriptedBackend("b", {content_digest(buf): Category.INSULT})
        with pytest.raises(ConfigError, match=key) as err:
            run_campaign(CampaignConfig.from_dict(config, tmp_path), backends=[backend])
        assert err.value.field == key
        assert backend.calls == 0
        assert not (tmp_path / "out").exists()

    def _minimal(self):
        return {
            "seeds": [{"id": "a", "path": "a.wav", "category": "insult"}],
            "mrs": [{"kind": "gain", "params": {"db": 0.0}}],
            "backends": [{"kind": "fixture", "path": "fx.json"}],
            "output_dir": "out",
        }

    def test_unknown_top_level_key_rejected(self):
        config = {**self._minimal(), "worker": 1}
        with pytest.raises(ConfigError, match="'worker'") as err:
            CampaignConfig.from_dict(config)
        assert err.value.field == "worker"

    def test_unknown_seed_key_rejected(self):
        config = self._minimal()
        config["seeds"][0]["transcript_path"] = "a.tsv"
        with pytest.raises(ConfigError, match="seed #0 .*'transcript_path'") as err:
            CampaignConfig.from_dict(config)
        assert err.value.field == "transcript_path"

    def test_unknown_relation_key_rejected(self):
        config = self._minimal()
        config["mrs"] = [{"kind": "gain", "params": {"db": 1.0}, "parms": {}}]
        with pytest.raises(ConfigError, match="relation 'gain' .*'parms'") as err:
            CampaignConfig.from_dict(config)
        assert err.value.field == "parms"

    @pytest.mark.parametrize("seed_id", [None, [1], 5])
    def test_non_string_seed_id_rejected(self, seed_id):
        # never coerced: null would become the id "None", [1] the id "[1]"
        config = self._minimal()
        config["seeds"][0]["id"] = seed_id
        with pytest.raises(ConfigError, match="seed #0 'id' must be a string") as err:
            CampaignConfig.from_dict(config)
        assert err.value.field == "id"

    @pytest.mark.parametrize("workers", [2.7, True, "3", "four"])
    def test_non_integer_workers_rejected(self, workers):
        # checked as given, never coerced: 2.7 is not 2 and true is not 1
        config = {**self._minimal(), "workers": workers}
        with pytest.raises(ConfigError, match="workers must be a positive integer") as err:
            CampaignConfig.from_dict(config)
        assert err.value.field == "workers"

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: c.update(backends=["spotter"]), "backends"),
            (lambda c: c.update(backends={"kind": "fixture"}), "backends"),
            (lambda c: c.update(mrs=5), "mrs"),
            (lambda c: c.update(output_dir=5), "output_dir"),
            (lambda c: c["seeds"][0].update(path=5), "path"),
            (lambda c: c["seeds"][0].update(transcript=3), "transcript"),
            (lambda c: c["backends"][0].update(path=5), "path"),
        ],
    )
    def test_wrongly_shaped_field_rejected(self, edit, field):
        config = self._minimal()
        edit(config)
        with pytest.raises(ConfigError, match=repr(field)) as err:
            CampaignConfig.from_dict(config)
        assert err.value.field == field

    def test_empty_backends_rejected(self):
        with pytest.raises(ConfigError, match="nonempty 'backends'") as err:
            CampaignConfig.from_dict({**self._minimal(), "backends": []})
        assert err.value.field == "backends"

    def test_from_file_round_trip(self, tmp_path):
        spec, _ = _make_seed(tmp_path, "a", 300.0, "insult")
        cfg = {
            "seeds": [{"id": "a", "path": "a.wav", "category": "insult"}],
            "mrs": [{"kind": "gain", "params": {"db": 0.0}}],
            "backends": [{"kind": "fixture", "path": "fx.json"}],
            "output_dir": "out",
            "workers": 2,
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        config = CampaignConfig.from_file(path)
        assert config.workers == 2
        assert config.seeds[0].path == tmp_path / "a.wav"
        assert config.output_dir == tmp_path / "out"


def _campaign_fixture(tmp_path, n_seeds=4):
    """Seeds plus a scripted backend that misses gain-perturbed spam clips."""
    specs = []
    buffers = {}
    cats = ["insult", "porn", "spam", "spam"]
    for i in range(n_seeds):
        spec, buf = _make_seed(tmp_path, f"s{i}", 300.0 + 50 * i, cats[i % 4])
        specs.append(spec)
        buffers[spec.seed_id] = buf
    config = CampaignConfig(
        seeds=tuple(specs),
        mrs=(
            Perturbation("gain", {"db": 0.0}),
            Perturbation("gain", {"db": 6.0}),
        ),
        backend_configs=({"kind": "fixture", "path": "unused"},),
        output_dir=tmp_path / "out",
        workers=3,
    )
    return config, specs, buffers


class TestRunCampaign:
    def test_accounting_and_efr(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path)
        script = {}
        from audiomorph.perturb import basic

        for spec in specs:
            seed_buf = buffers[spec.seed_id]
            script[content_digest(seed_buf)] = spec.category  # retained
            identity = basic.gain(seed_buf, 0.0)
            script[content_digest(identity)] = spec.category  # always caught
            louder = basic.gain(seed_buf, 6.0)
            if spec.category is not Category.SPAM:
                script[content_digest(louder)] = spec.category  # spam slips through

        backend = ScriptedBackend("scripted", script)
        report = run_campaign(config, backends=[backend])

        cells = {(c.mr, c.category): c for c in report.cells}
        assert cells[("gain(db=6.0)", "spam")].misclassified == 2
        assert cells[("gain(db=6.0)", "spam")].efr == 100.0
        assert cells[("gain(db=0.0)", "spam")].efr == 0.0
        for cell in report.cells:
            answered = cell.generated - cell.unanswered
            correct = answered - cell.misclassified
            assert cell.generated == cell.misclassified + correct + cell.unanswered
            assert cell.unanswered == 0

    def test_unanswered_excluded_from_denominator(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        from audiomorph.perturb import basic

        script, failing = {}, set()
        for spec in specs:
            seed_buf = buffers[spec.seed_id]
            script[content_digest(seed_buf)] = spec.category
            script[content_digest(basic.gain(seed_buf, 0.0))] = spec.category
            failing.add(content_digest(basic.gain(seed_buf, 6.0)))

        backend = ScriptedBackend("flaky", script, failing=failing)
        report = run_campaign(config, backends=[backend])
        loud = [c for c in report.cells if c.mr == "gain(db=6.0)"]
        assert all(c.unanswered == c.generated for c in loud)
        assert all(c.efr is None for c in loud)
        payload = json.loads(report.report_json.read_text())
        loud_cells = [c for c in payload["cells"] if c["mr"] == "gain(db=6.0)"]
        assert all(c["efr"] is None for c in loud_cells)

    def test_artifacts_exist_and_round_trip(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        report = run_campaign(config, backends=[ScriptedBackend("b", script)])
        manifest = json.loads(report.manifest.read_text())
        assert manifest["cases"], "campaign generated no cases"
        for case in manifest["cases"]:
            path = report.output_dir / case["artifact"]
            assert path.exists()
            buf = read_wav(path)
            assert content_digest(buf) == case["digest"]

    def test_descriptor_reproduces_artifact(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        report = run_campaign(config, backends=[ScriptedBackend("b", script)])
        manifest = json.loads(report.manifest.read_text())
        seeds_by_id = {s["id"]: s for s in manifest["seeds"]}
        for case in manifest["cases"]:
            # seed paths are recorded relative to the manifest's directory
            seed_audio = read_wav(report.manifest.parent / seeds_by_id[case["seed_id"]]["path"])
            again = Perturbation.from_dict(case["mr"]).apply(seed_audio)
            assert content_digest(again) == case["digest"]

    def test_empty_retained_set_still_writes_report(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        backend = ScriptedBackend("blind")  # everything non_toxic
        report = run_campaign(config, backends=[backend])
        assert report.no_seeds
        assert report.cells == ()
        payload = json.loads(report.report_json.read_text())
        assert payload["cells"] == []
        assert payload["seed_filter"]["retained"] == 0

    def test_category_drift_not_misclassified(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=1)
        from audiomorph.perturb import basic

        seed_buf = buffers[specs[0].seed_id]
        script = {
            content_digest(seed_buf): specs[0].category,
            content_digest(basic.gain(seed_buf, 0.0)): specs[0].category,
            # wrong toxic label on the louder clip: drift, not a miss
            content_digest(basic.gain(seed_buf, 6.0)): Category.PORN,
        }
        report = run_campaign(config, backends=[ScriptedBackend("b", script)])
        cell = next(c for c in report.cells if c.mr == "gain(db=6.0)")
        assert cell.misclassified == 0
        assert cell.drift == 1
        payload = json.loads(report.report_json.read_text())
        assert payload["category_drift"] == [
            {"mr": "gain(db=6.0)", "category": "insult", "backend": "b", "count": 1}
        ]

    def test_csv_matches_json(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        report = run_campaign(config, backends=[ScriptedBackend("b", script)])
        payload = json.loads(report.report_json.read_text())
        lines = report.report_csv.read_text().strip().splitlines()
        assert lines[0] == "mr,category,backend,generated,misclassified,unanswered,efr"
        assert len(lines) == 1 + len(payload["cells"])


class TestReplay:
    def test_report_byte_identical(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path)
        from audiomorph.perturb import basic

        script = {}
        for spec in specs:
            seed_buf = buffers[spec.seed_id]
            script[content_digest(seed_buf)] = spec.category
            script[content_digest(basic.gain(seed_buf, 0.0))] = spec.category
            if spec.category is not Category.SPAM:
                script[content_digest(basic.gain(seed_buf, 6.0))] = spec.category

        original = run_campaign(config, backends=[ScriptedBackend("scripted", script)])
        replayed = replay_campaign(original.manifest, tmp_path / "replay")
        assert replayed.report_json.read_bytes() == original.report_json.read_bytes()
        assert replayed.report_csv.read_bytes() == original.report_csv.read_bytes()

    def test_replay_preserves_unanswered(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        from audiomorph.perturb import basic

        script, failing = {}, set()
        for spec in specs:
            seed_buf = buffers[spec.seed_id]
            script[content_digest(seed_buf)] = spec.category
            script[content_digest(basic.gain(seed_buf, 0.0))] = spec.category
            failing.add(content_digest(basic.gain(seed_buf, 6.0)))

        original = run_campaign(
            config, backends=[ScriptedBackend("flaky", script, failing=failing)]
        )
        replayed = replay_campaign(original.manifest, tmp_path / "replay")
        assert replayed.report_json.read_bytes() == original.report_json.read_bytes()
        loud = [c for c in replayed.cells if c.mr == "gain(db=6.0)"]
        assert all(c.unanswered == c.generated for c in loud)

    def test_replay_from_another_working_directory(self, tmp_path, monkeypatch):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        # paths relative to the working directory, as a config file in it gives
        monkeypatch.chdir(tmp_path)
        seeds = tuple(dataclasses.replace(s, path=Path(s.path.name)) for s in config.seeds)
        config = dataclasses.replace(config, seeds=seeds, output_dir=Path("out"))
        original = run_campaign(config, backends=[ScriptedBackend("b", script)])
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        replayed = replay_campaign(tmp_path / "out" / "manifest.json", "replay")
        assert replayed.report_json.read_bytes() == (tmp_path / original.report_json).read_bytes()
        assert replayed.report_csv.read_bytes() == (tmp_path / original.report_csv).read_bytes()

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda cases: cases[1].update(category="porn"), "seed 's0' under gain(db=6.0) gives a case"),
            (lambda cases: cases.pop(), "seed 's1' under gain(db=6.0) gives a case"),
            (lambda cases: cases.append(dict(cases[0])), "it gives 4 cases where 5 are recorded"),
        ],
        ids=["edited-case", "case-dropped", "case-added"],
    )
    def test_cases_unlike_the_recorded_ones_diverge_before_any_report(self, tmp_path, edit, named):
        # every digest is in the verdict table, but the case list differs
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        original = run_campaign(config, backends=[ScriptedBackend("b", script)])
        manifest = json.loads(original.manifest.read_text(encoding="utf-8"))
        edit(manifest["cases"])
        original.manifest.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CampaignError, match="diverged") as err:
            replay_campaign(original.manifest, tmp_path / "replay")
        assert named in str(err.value)
        assert sorted(p.name for p in (tmp_path / "replay").iterdir()) == ["artifacts"]


_ALIGNED ="son\t0.0\t0.2\nof\t0.2\t0.3\nbitch\t0.3\t0.45\n"


def _transcribed_tree(root, transcripts=(("a", _ALIGNED), ("b", _ALIGNED))):
    """A discontinuity campaign over 0.5 s insult seeds a and b under
    ``root``, each seed named in ``transcripts`` with that transcript file
    text; returns the config and the seed digests."""
    transcripts = dict(transcripts)
    (root / "seeds").mkdir(parents=True)
    digests = []
    seeds = []
    for i, name in enumerate(("a", "b")):
        _, buf = _make_seed(root / "seeds", name, 300.0 + 100 * i, "insult")
        digests.append(content_digest(buf))
        seed = {"id": name, "path": f"seeds/{name}.wav", "category": "insult"}
        if name in transcripts:
            (root / "seeds" / f"{name}.tsv").write_text(transcripts[name], encoding="utf-8")
            seed["transcript"] = f"seeds/{name}.tsv"
        seeds.append(seed)
    config = {
        "seeds": seeds,
        "mrs": [
            {"kind": "discontinuity",
             "params": {"targets": ["bitch"], "gap_s": 0.05, "repeats": 2}}
        ],
        "backends": [{"kind": "fixture", "path": "unused.json"}],
        "output_dir": "out",
    }
    return CampaignConfig.from_dict(config, root), digests


class TestTranscriptRelations:
    """A campaign over a relation that edits aligned words: each seed's
    transcript is loaded, handed to the op and recorded in the manifest."""

    def test_runs_and_replays_from_a_moved_tree(self, tmp_path):
        config, digests = _transcribed_tree(tmp_path / "tree")
        backend = ScriptedBackend("b", {d: Category.INSULT for d in digests})
        report = run_campaign(config, backends=[backend])
        manifest = json.loads(report.manifest.read_text(encoding="utf-8"))
        assert [s["transcript"] for s in manifest["seeds"]] == [
            "../seeds/a.tsv", "../seeds/b.tsv"
        ]
        # the stutter lengthens every clip, so each case is a new clip
        assert len(manifest["cases"]) == 2
        assert not {c["digest"] for c in manifest["cases"]} & set(digests)
        assert [c.generated for c in report.cells] == [2]

        shutil.move(tmp_path / "tree", tmp_path / "moved")
        moved = tmp_path / "moved"
        replayed = replay_campaign(moved / "out" / "manifest.json", moved / "replay")
        assert replayed.report_json.read_bytes() == (moved / "out" / "report.json").read_bytes()
        assert replayed.report_csv.read_bytes() == (moved / "out" / "report.csv").read_bytes()

    @pytest.mark.parametrize("transcripts, named", [
        ([("a", _ALIGNED)], r"without one: \['b'\]"),
        ([("a", _ALIGNED), ("b", "son\nof\nbitch\n")], r"with an unaligned one: \['b'\]"),
        ([("a", _ALIGNED), ("b", "son\t0.0\t0.2\nof\t0.2\t0.3\nbitch\t0.3\t0.6\n")],
         r"whose alignment ends past their audio: \['b'\]"),
        ([("a", "son\nof\nbitch\n")],
         r"with an unaligned one: \['a'\]; seeds without one: \['b'\]"),
    ], ids=["missing", "unaligned", "past-the-audio", "both-named"])
    def test_seed_without_transcript_rejected_before_any_query(self, tmp_path, transcripts, named):
        config, digests = _transcribed_tree(tmp_path, transcripts)
        backend = ScriptedBackend("b", {d: Category.INSULT for d in digests})
        with pytest.raises(ConfigError, match=rf"transcripts; seeds {named}$") as err:
            run_campaign(config, backends=[backend])
        assert err.value.field == "transcript"
        assert backend.calls == 0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, fault", [
        (None, "without one"),
        ("son\nof\nbitch\n", "with an unaligned one"),
        ("son\t0.0\t0.2\nof\t0.2\t0.3\nbitch\t0.3\t0.6\n",
         "whose alignment ends past their audio"),
    ], ids=["missing", "unaligned", "past-the-audio"])
    def test_op_and_campaign_name_the_same_fault(self, tmp_path, text, fault):
        # the campaign's check before any query is the op's own rule
        transcripts = [("a", _ALIGNED)] if text is None else [("a", _ALIGNED), ("b", text)]
        config, _ = _transcribed_tree(tmp_path, transcripts)
        with pytest.raises(ConfigError) as rejected:
            run_campaign(config, backends=[ScriptedBackend("b", {})])
        seed = load_seed(config.seeds[1])
        with pytest.raises(DomainError) as raised:
            config.mrs[0].apply(seed.audio, seed.transcript)
        assert str(rejected.value).endswith(f"seeds {fault}: ['b']")
        assert str(raised.value).endswith(f"not clips {fault}")


class TestQueryOnce:
    def _script(self, specs, buffers):
        from audiomorph.perturb import basic

        script = {}
        for spec in specs:
            seed_buf = buffers[spec.seed_id]
            script[content_digest(seed_buf)] = spec.category
            script[content_digest(basic.gain(seed_buf, 6.0))] = spec.category
        return script

    def test_each_digest_queried_once(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path)
        backend = ScriptedBackend("b", self._script(specs, buffers))
        report = run_campaign(config, backends=[backend])
        assert report.seed_filter["retained"] == 4
        # gain(db=0.0) returns the seed itself: 4 seed + 4 louder digests
        assert backend.calls == len(set(backend.queried)) == 8

    def test_concurrent_duplicate_digests_queried_once(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path)
        # a twin of s0, next to it so their probes and jobs overlap
        twin, _ = _make_seed(tmp_path, "twin", 300.0, "insult")
        seeds = (config.seeds[0], twin) + config.seeds[1:]
        config = dataclasses.replace(config, seeds=seeds)

        class SlowBackend(ScriptedBackend):
            def moderate(self, audio, digest):
                time.sleep(0.02)  # keeps the first query in flight
                return super().moderate(audio, digest)

        backend = SlowBackend("b", self._script(specs, buffers))
        report = run_campaign(config, backends=[backend])
        assert report.seed_filter["retained"] == 5
        assert backend.calls == len(set(backend.queried)) == 8

    def test_replay_identical_when_backend_flips_on_repeat(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path)
        backend = FlippingBackend("flip", self._script(specs, buffers))
        original = run_campaign(config, backends=[backend])
        assert original.seed_filter["retained"] == 4
        replayed = replay_campaign(original.manifest, tmp_path / "replay", workers=3)
        assert replayed.report_json.read_bytes() == original.report_json.read_bytes()
        assert replayed.report_csv.read_bytes() == original.report_csv.read_bytes()

    def test_manifest_records_unanswered_pairs_as_null(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        from audiomorph.perturb import basic

        script, failing = {}, set()
        for spec in specs:
            seed_buf = buffers[spec.seed_id]
            script[content_digest(seed_buf)] = spec.category
            failing.add(content_digest(basic.gain(seed_buf, 6.0)))
        report = run_campaign(config, backends=[ScriptedBackend("b", script, failing)])
        recorded = json.loads(report.manifest.read_text())["verdicts"]["b"]
        assert len(recorded) == 4
        assert all(recorded[d] is None for d in failing)
        assert all(recorded[d]["category"] == c.value for d, c in script.items())

    def test_manifest_verdict_table_is_a_fixture_file(self, tmp_path):
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        from audiomorph.perturb import basic

        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        failing = {content_digest(basic.gain(buffers[s.seed_id], 6.0)) for s in specs}
        report = run_campaign(config, backends=[ScriptedBackend("b", script, failing)])
        table = json.loads(report.manifest.read_text())["verdicts"]["b"]
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        fixture = FixtureBackend.from_file(path, name="b")
        for spec in specs:
            seed = buffers[spec.seed_id]
            assert fixture.moderate(seed, content_digest(seed)) == Verdict(spec.category, 0.75)
            louder = basic.gain(seed, 6.0)
            with pytest.raises(MissingFixtureError, match="recorded no answer"):
                fixture.moderate(louder, content_digest(louder))


class BatchRecorder(ScriptedBackend):
    """A scripted backend that records the digests of each moderate_many call."""

    def __init__(self, name, script=None, failing=()):
        super().__init__(name, script, failing)
        self.batches = []

    def moderate_many(self, clips, digests):
        self.batches.append(list(digests))
        return super().moderate_many(clips, digests)


class TestSeedJobs:
    """Stage 3 runs one job per seed and asks each backend once per job."""

    def _one_seed(self, tmp_path, mrs, workers):
        spec, buf = _make_seed(tmp_path, "s", 300.0, "insult")
        config = CampaignConfig(
            seeds=(spec,),
            mrs=tuple(Perturbation.from_dict(m) for m in mrs),
            backend_configs=(),
            output_dir=tmp_path / "out",
            workers=workers,
        )
        return config, buf

    def test_split_seed_keeps_every_worker_in_flight(self, tmp_path):
        # one seed, four relations, four workers: the seed's relations are
        # split over four jobs, so four queries wait on the barrier at once
        mrs = [{"kind": "gain", "params": {"db": db}} for db in (-6.0, -3.0, 3.0, 6.0)]
        config, buf = self._one_seed(tmp_path, mrs, workers=4)
        seed_digest = content_digest(buf)
        barrier = threading.Barrier(4, timeout=10.0)

        class Overlapping(ScriptedBackend):
            def moderate(self, audio, digest):
                assert isinstance(audio, AudioBuffer)
                if digest != seed_digest:
                    barrier.wait()  # BrokenBarrierError unless 4 calls overlap
                return super().moderate(audio, digest)

        backend = Overlapping("b", {seed_digest: Category.INSULT})
        report = run_campaign(config, backends=[backend])
        assert sum(cell.generated for cell in report.cells) == 4
        assert backend.calls == 5

    def test_duplicates_in_a_batch_asked_once(self, tmp_path):
        # gain 0 dB gives the seed's digest, answered by the probe; the two
        # louder relations differ in float but quantize to one digest
        mrs = [
            {"kind": "gain", "params": {"db": 0.0}},
            {"kind": "gain", "params": {"db": 6.0}},
            {"kind": "gain", "params": {"db": 6.0000000001}},
        ]
        config, buf = self._one_seed(tmp_path, mrs, workers=1)
        louder = content_digest(Perturbation.from_dict(mrs[1]).apply(buf))
        assert content_digest(Perturbation.from_dict(mrs[2]).apply(buf)) == louder
        backend = BatchRecorder("b", {content_digest(buf): Category.INSULT})
        report = run_campaign(config, backends=[backend])
        assert sum(cell.generated for cell in report.cells) == 3
        assert backend.batches == [[content_digest(buf)], [louder]]
        assert backend.queried == [content_digest(buf), louder]

    def test_failure_leaves_only_its_case_unanswered(self, tmp_path):
        mrs = [{"kind": "gain", "params": {"db": db}} for db in (-6.0, 3.0, 6.0)]
        config, buf = self._one_seed(tmp_path, mrs, workers=1)
        louder = content_digest(Perturbation.from_dict(mrs[1]).apply(buf))
        backend = BatchRecorder("b", {content_digest(buf): Category.INSULT}, failing={louder})
        report = run_campaign(config, backends=[backend])
        assert len(backend.batches[1]) == 3  # the seed's cases in one batch
        unanswered = {cell.mr: cell.unanswered for cell in report.cells}
        assert unanswered == {"gain(db=-6.0)": 0, "gain(db=3.0)": 1, "gain(db=6.0)": 0}
        recorded = json.loads(report.manifest.read_text())["verdicts"]["b"]
        assert recorded[louder] is None
        assert sum(v is None for v in recorded.values()) == 1

    def test_job_holds_a_bounded_amount_of_audio(self, tmp_path, monkeypatch):
        # 0.5 s clips are 64 kB: past 100 kB held, the job asks about them
        monkeypatch.setattr(campaign, "_JOB_AUDIO_BYTES", 100_000)
        mrs = [{"kind": "gain", "params": {"db": db}} for db in (-6.0, -3.0, 3.0, 6.0)]
        config, buf = self._one_seed(tmp_path, mrs, workers=1)
        backend = BatchRecorder("b", {content_digest(buf): Category.INSULT})
        report = run_campaign(config, backends=[backend])
        assert [len(batch) for batch in backend.batches] == [1, 2, 2]
        assert sum(cell.generated for cell in report.cells) == 4

    def test_overlapping_batches_ask_each_digest_once(self):
        # eight threads claim overlapping batches with frequent switches: a
        # lost claim would ask a digest twice or leave a pair unanswered
        digests = [f"d{i}" for i in range(30)]
        backend = BatchRecorder("b", {d: Category.SPAM for d in digests[::3]})
        store = VerdictStore([backend])
        rng = np.random.default_rng(5)
        batches = [list(rng.choice(digests, size=8)) for _ in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(store.ask_many, [None] * len(b), b) for b in batches]
                assert [future.result(timeout=30) for future in futures] == [None] * len(batches)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(backend.queried) == sorted(set(backend.queried))
        assert set(backend.queried) == {d for b in batches for d in b}
        for d in backend.queried:
            expected = Category.SPAM if d in digests[::3] else Category.NON_TOXIC
            assert [verdict.category for verdict in store.row(d)] == [expected]

    # the desk probe makes the first 12 calls, so call 5 fails in the probe
    # and call 15 in stage 3
    @pytest.mark.parametrize("failing_call", [5, 15])
    def test_backend_error_ends_the_campaign_cleanly(self, tmp_path, failing_call):
        # an error that is not a case's own (not a CASE_ERROR) ends the
        # campaign: it reaches the caller, no report is written, and the
        # pool's threads are joined, also those of jobs that asked before
        deskcorpus.build_corpus(tmp_path, base_seed=100)
        config = CampaignConfig.from_file(tmp_path / "campaign.json")
        config = dataclasses.replace(config, workers=3)
        script = {load_seed(spec).digest: spec.category for spec in config.seeds}
        lock = threading.Lock()

        class FailsOnce(ScriptedBackend):
            def moderate(self, audio, digest):
                with lock:
                    verdict = super().moderate(audio, digest)
                    if self.calls == failing_call:
                        raise RuntimeError(f"backend crashed on call {failing_call}")
                return verdict

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"crashed on call {failing_call}"):
            run_campaign(config, backends=[FailsOnce("b", script)])
        assert not (config.output_dir / "report.json").exists()
        assert threading.active_count() == threads

    def test_wrong_answer_count_is_an_error(self, tmp_path):
        config, buf = self._one_seed(tmp_path, [{"kind": "gain", "params": {"db": 6.0}}], 1)

        class Short(ScriptedBackend):
            def moderate_many(self, clips, digests):
                return super().moderate_many(clips, digests)[1:]

        with pytest.raises(CampaignError, match="answered 0 of 1 clips"):
            run_campaign(config, backends=[Short("b")])


class TestReplayIdentity:
    """Replay identity as a property: whatever the worker counts of the run
    and of its replay, each (backend, digest) pair is asked once and the
    replay leaves the run's bytes, also with a twin seed, colliding
    relations, a discontinuity relation over aligned transcripts and a
    backend whose answers drift on a repeat."""

    @given(
        run_workers=st.integers(1, 4), replay_workers=st.integers(1, 4), stutter=st.booleans()
    )
    @settings(max_examples=10, deadline=None)
    def test_replay_identical_at_any_worker_counts(self, run_workers, replay_workers, stutter):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            seed, buf = _make_seed(root, "s", 300.0, "insult")
            twin, _ = _make_seed(root, "twin", 300.0, "insult")  # the same digests as s
            other, other_buf = _make_seed(root, "o", 450.0, "porn")
            seeds = (seed, twin, other)
            # gain 0 dB gives the seed back; the two louder ones share a digest
            mrs = tuple(Perturbation("gain", {"db": db}) for db in (0.0, 6.0, 6.0000000001))
            if stutter:
                words = root / "words.tsv"
                words.write_text(_ALIGNED, encoding="utf-8")
                seeds = tuple(dataclasses.replace(s, transcript_path=words) for s in seeds)
                mrs += (Perturbation.from_dict(
                    {"kind": "discontinuity",
                     "params": {"targets": ["bitch"], "gap_s": 0.05, "repeats": 2}}
                ),)
            config = CampaignConfig(
                seeds=seeds,
                mrs=mrs,
                backend_configs=(),
                output_dir=root / "out",
                workers=run_workers,
            )
            # the louder "o" is missed; a repeated query would miss them all
            script = {
                content_digest(buf): Category.INSULT,
                content_digest(mrs[1].apply(buf)): Category.INSULT,
                content_digest(other_buf): Category.PORN,
            }
            if stutter:  # the stuttered "s" and its twin are caught, "o" is missed
                stuttered = mrs[3].apply(buf, load_transcript(root / "words.tsv"))
                script[content_digest(stuttered)] = Category.INSULT
            backend = FlippingBackend("flip", script)
            run = run_campaign(config, backends=[backend])
            recorded = json.loads(run.manifest.read_text(encoding="utf-8"))
            assert sorted(backend.queried) == sorted(set(backend.queried))
            assert set(backend.queried) == set(recorded["verdicts"]["flip"])
            assert len(recorded["cases"]) == 3 * len(mrs)
            replay = replay_campaign(run.manifest, root / "replay", workers=replay_workers)
            assert replay.report_json.read_bytes() == run.report_json.read_bytes()
            assert replay.report_csv.read_bytes() == run.report_csv.read_bytes()
            replayed = json.loads(replay.manifest.read_text(encoding="utf-8"))
            assert replayed["cases"] == recorded["cases"]


def _outputs(report):
    """What a campaign leaves behind: its report bytes, manifest cases and
    artifact files by name and bytes."""
    artifacts = sorted((report.output_dir / "artifacts").iterdir())
    return (
        report.report_json.read_bytes(),
        report.report_csv.read_bytes(),
        json.loads(report.manifest.read_text(encoding="utf-8"))["cases"],
        [(path.name, path.read_bytes()) for path in artifacts],
    )


def _unloadable_libc(name):
    raise OSError("cannot load the C library")


class TestProcessPath:
    """A replay at workers > 1 generates its cases in forked worker
    processes, since it asks no backend; it must leave the same bytes as
    the pool threads of workers=1."""

    def _compound_tree(self, root):
        """A recorded campaign over compound relations and a discontinuity
        on two transcribed seeds; returns its manifest path."""
        config, digests = _transcribed_tree(root)
        mrs = config.mrs + tuple(
            Perturbation.from_dict(d) for d in (
                {"kind": "compress", "params": {"threshold_db": -20.0, "ratio": 4.0}},
                {"kind": "echo", "params": {"delay_s": 0.05, "decay": 0.4, "taps": 2}},
                {"kind": "reverb", "params": {"intensity": 0.3, "duration_s": 0.1, "seed": 3}},
                {"kind": "time_stretch", "params": {"factor": 1.15}},
            )
        )
        config = dataclasses.replace(config, mrs=mrs, workers=1)
        backend = ScriptedBackend("b", {d: Category.INSULT for d in digests})
        return run_campaign(config, backends=[backend]).manifest

    def _desk_tree(self, root):
        """The checked-in desk campaign, in a freshly built corpus."""
        deskcorpus.build_corpus(root, base_seed=100)
        (root / "out").mkdir()
        recorded = Path(__file__).parent / "data" / "desk_replay" / "manifest.json"
        shutil.copy(recorded, root / "out" / "manifest.json")
        return root / "out" / "manifest.json"

    @pytest.mark.parametrize("tree", ["_desk_tree", "_compound_tree"])
    def test_same_bytes_at_one_and_three_workers(self, tmp_path, tree):
        manifest = getattr(self, tree)(tmp_path / "tree")
        threads = replay_campaign(manifest, tmp_path / "w1", workers=1)
        processes = replay_campaign(manifest, tmp_path / "w3", workers=3)
        assert multiprocessing.active_children() == []
        assert _outputs(processes) == _outputs(threads)

    def test_replay_asks_no_backend(self, tmp_path, monkeypatch):
        # the checked-in desk campaign replays to its recorded reports while
        # every way of asking a backend raises
        manifest = self._desk_tree(tmp_path / "tree")

        def asked(*args, **kwargs):
            raise AssertionError("a replay asked a backend")

        monkeypatch.setattr(ModerationBackend, "moderate_many", asked)
        monkeypatch.setattr(FixtureBackend, "moderate", asked)
        recorded = Path(__file__).parent / "data" / "desk_replay"
        for workers in (1, 3):
            report = replay_campaign(manifest, tmp_path / f"w{workers}", workers=workers)
            assert report.report_json.read_bytes() == (recorded / "report.json").read_bytes()
            assert report.report_csv.read_bytes() == (recorded / "report.csv").read_bytes()

    @pytest.mark.parametrize("tamper", ["halved", "halved-digests-unrecorded", "swapped"])
    def test_changed_seed_diverges_before_any_output(self, tmp_path, tamper):
        # insult_0 cut to its first half, also in a manifest whose seed
        # entries record no digest (then only the verdict tables tell), or
        # overwritten with insult_1's audio, whose digest the tables hold
        manifest = self._desk_tree(tmp_path / "tree")
        wav = tmp_path / "tree" / "seeds" / "insult_0.wav"
        if tamper == "halved-digests-unrecorded":
            recorded = json.loads(manifest.read_text(encoding="utf-8"))
            for entry in recorded["seeds"]:
                del entry["digest"]
            manifest.write_text(json.dumps(recorded), encoding="utf-8")
        if tamper.startswith("halved"):
            clip = read_wav(wav)
            write_wav(AudioBuffer(clip.samples[:, : clip.frames // 2], clip.sample_rate), wav)
        else:
            shutil.copy(wav.with_name("insult_1.wav"), wav)
        with pytest.raises(CampaignError, match="diverged: seed 'insult_0' has digest") as err:
            replay_campaign(manifest, tmp_path / "replay", workers=3)
        assert content_digest(read_wav(wav)) in str(err.value)
        assert not (tmp_path / "replay").exists()

    def test_errors_cross_the_process_boundary(self, tmp_path):
        _, loud = _make_seed(tmp_path, "loud", 300.0, "insult")
        write_wav(AudioBuffer(np.zeros(8000), 16000), tmp_path / "quiet.wav")
        tables = {content_digest(loud): {"category": "insult", "confidence": None},
                  content_digest(read_wav(tmp_path / "quiet.wav")): {"category": "spam"}}
        manifest = {
            "version": __version__,
            "seeds": [{"id": name, "path": f"{name}.wav", "category": "insult"}
                      for name in ("loud", "quiet")],
            "mrs": [{"kind": "gain", "params": {"db": 6.0}},
                    {"kind": "inject_noise", "params": {"target_snr_db": 20.0, "seed": 1}}],
            "backends": ["b"],
            "verdicts": {"b": tables},
            "cases": [],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        raised = []
        for workers in (1, 2):
            with pytest.raises(DomainError) as err:
                replay_campaign(path, tmp_path / f"w{workers}", workers=workers)
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1] == (DomainError, "cannot target an SNR against silent input")
        assert multiprocessing.active_children() == []

    def test_threads_kept_off_linux(self, tmp_path, monkeypatch):
        # fork is unsafe where native libraries may run threads (macOS); a
        # case generated in this process is one generated on a pool thread
        manifest = self._recorded(tmp_path / "tree", 2, 2)
        generated = []
        generate = campaign._generate

        def counted(*args):
            generated.append(args[1])
            return generate(*args)

        monkeypatch.setattr(campaign, "_generate", counted)
        monkeypatch.setattr(campaign.sys, "platform", "linux")
        replay_campaign(manifest, tmp_path / "linux", workers=3)
        assert generated == []  # on Linux the worker processes generate them
        monkeypatch.setattr(campaign.sys, "platform", "darwin")
        replay_campaign(manifest, tmp_path / "darwin", workers=3)
        assert len(generated) == 2 * 2

    def test_live_campaign_stays_on_threads(self, tmp_path, monkeypatch):
        # a live campaign hands its backends the clips, so fixtures alone at
        # workers > 1 still run on pool threads and see every clip
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=2)
        table = {content_digest(buffers[s.seed_id]): Verdict(s.category) for s in specs}
        seen = []

        class SeenFixture(FixtureBackend):
            def moderate(self, audio, digest):
                seen.append(audio)
                return super().moderate(audio, digest)

        monkeypatch.setattr(campaign.sys, "platform", "linux")
        run_campaign(config, backends=[SeenFixture(table, name="f")])  # workers == 3
        assert len(seen) == 2 * len(specs)  # the seeds, then their louder clips
        assert all(isinstance(audio, AudioBuffer) for audio in seen)

    def _recorded(self, root, n_seeds, n_mrs):
        """A campaign recorded at workers=1 over n_seeds seeds and the first
        n_mrs relations of ``_campaign_fixture``; returns its manifest path."""
        root.mkdir()
        config, specs, buffers = _campaign_fixture(root, n_seeds=n_seeds)
        config = dataclasses.replace(config, mrs=config.mrs[:n_mrs], workers=1)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        return run_campaign(config, backends=[ScriptedBackend("b", script)]).manifest

    @pytest.mark.parametrize("n_seeds, n_mrs, pool", [(1, 1, 1), (1, 2, 2), (2, 2, 3)])
    def test_pool_capped_at_its_jobs(self, tmp_path, monkeypatch, n_seeds, n_mrs, pool):
        # fork starts every worker up front, so a one-case replay starts one
        manifest = self._recorded(tmp_path / "tree", n_seeds, n_mrs)
        sizes = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        replay_campaign(manifest, tmp_path / "w3", workers=3)
        assert sizes == [pool]
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_campaign_error(self, tmp_path, monkeypatch):
        manifest = self._recorded(tmp_path / "tree", 2, 2)
        parent, generate = os.getpid(), campaign._generate

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)  # as the out-of-memory killer would end it
            return generate(*args)

        monkeypatch.setattr(campaign, "_generate", dying)
        with pytest.raises(CampaignError, match="a worker process died"):
            replay_campaign(manifest, tmp_path / "w2", workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_keeps_its_freed_heap(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(campaign, "_worker_inputs", campaign._worker_inputs)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        campaign._init_worker(("seed",), Path("out"))
        assert campaign._worker_inputs == (("seed",), Path("out"))
        assert calls == [
            (campaign._M_TRIM_THRESHOLD, campaign._NEVER_TRIM),
            (campaign._M_MMAP_THRESHOLD, campaign._HEAP_BELOW_BYTES),
        ]
        # glibc's malloc.h numbers
        assert (campaign._M_TRIM_THRESHOLD, campaign._M_MMAP_THRESHOLD) == (-1, -3)

    @pytest.mark.parametrize("cdll", [lambda name: object(), _unloadable_libc])
    def test_worker_set_up_without_mallopt(self, monkeypatch, cdll):
        monkeypatch.setattr(campaign, "_worker_inputs", campaign._worker_inputs)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        campaign._init_worker(("seed",), Path("out"))
        assert campaign._worker_inputs == (("seed",), Path("out"))


class TestExportRetrainingSet:
    def _manifest_with_classes(self, tmp_path, per_class=100, answers=None):
        """Synthetic manifest: one MR, two categories, per_class cases each.
        Backend "b" answers every case non_toxic unless ``answers`` maps the
        case's digest to another verdict entry (or None, unanswered)."""
        answers = answers or {}
        cases = []
        verdicts = {}
        for cat in ("insult", "spam"):
            for i in range(per_class):
                digest = f"{cat}-{i:04d}"
                cases.append(
                    {
                        "seed_id": f"{cat}{i}",
                        "mr": {"kind": "gain", "params": {"db": 6.0}},
                        "digest": digest,
                        "artifact": f"artifacts/{digest}.wav",
                        "category": cat,
                    }
                )
                verdicts[digest] = answers.get(
                    digest, {"category": "non_toxic", "confidence": 0.5}
                )
        manifest = {
            "version": "0",
            "seeds": [],
            "mrs": [{"kind": "gain", "params": {"db": 6.0}}],
            "backends": ["b"],
            "verdicts": {"b": verdicts},
            "cases": cases,
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    def test_only_misclassified_cases_exported(self, tmp_path):
        # of the insult cases, 0000 was caught, 0001 drifted to another
        # toxic category and 0002 went unanswered: none of them is a miss
        answers = {
            "insult-0000": {"category": "insult", "confidence": 0.9},
            "insult-0001": {"category": "spam", "confidence": 0.9},
            "insult-0002": None,
        }
        path = self._manifest_with_classes(tmp_path, per_class=6, answers=answers)
        rows = export_retraining_set(path, split=0.4, seed=1)
        insult = [r["artifact"] for r in rows if r["label"] == "insult"]
        assert len(insult) == 2  # one test, one train from the three misses
        assert set(insult) <= {f"artifacts/insult-{i:04d}.wav" for i in (3, 4, 5)}
        assert len([r for r in rows if r["label"] == "spam"]) == 4

    def test_a_miss_by_any_backend_is_exported(self, tmp_path):
        path = self._manifest_with_classes(tmp_path, per_class=10)
        alone = export_retraining_set(path, split=0.2, seed=4)
        manifest = json.loads(path.read_text())
        manifest["backends"].append("a")
        manifest["verdicts"]["a"] = {
            c["digest"]: {"category": c["category"], "confidence": 0.9}
            for c in manifest["cases"]
        }
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert export_retraining_set(path, split=0.2, seed=4) == alone

    def test_twenty_twenty_split(self, tmp_path):
        path = self._manifest_with_classes(tmp_path, per_class=100)
        rows = export_retraining_set(path, split=0.2, seed=5)
        for cat in ("insult", "spam"):
            test = [r for r in rows if r["label"] == cat and r["split"] == "test"]
            train = [r for r in rows if r["label"] == cat and r["split"] == "train"]
            assert len(test) == 20
            assert len(train) == 20
            assert not {r["artifact"] for r in test} & {r["artifact"] for r in train}

    def test_deterministic_given_seed(self, tmp_path):
        path = self._manifest_with_classes(tmp_path, per_class=30)
        a = export_retraining_set(path, split=0.2, seed=9)
        b = export_retraining_set(path, split=0.2, seed=9)
        assert a == b
        c = export_retraining_set(path, split=0.2, seed=10)
        assert a != c

    def test_rows_carry_descriptor(self, tmp_path):
        path = self._manifest_with_classes(tmp_path, per_class=10)
        rows = export_retraining_set(path, split=0.2, seed=1)
        assert all(r["mr"] == {"kind": "gain", "params": {"db": 6.0}} for r in rows)
        assert all(r["split"] in ("test", "train") for r in rows)

    def test_bad_fraction(self, tmp_path):
        path = self._manifest_with_classes(tmp_path, per_class=10)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                export_retraining_set(path, split=bad, seed=1)

    def test_written_manifest_matches_return(self, tmp_path):
        path = self._manifest_with_classes(tmp_path, per_class=10)
        out = tmp_path / "retraining.json"
        rows = export_retraining_set(path, split=0.2, seed=3, output_path=out)
        assert json.loads(out.read_text()) == rows

    def test_exported_artifacts_readable(self, tmp_path):
        # two spam seeds make the spam classes big enough to split
        config, specs, buffers = _campaign_fixture(tmp_path, n_seeds=4)
        script = {content_digest(buffers[s.seed_id]): s.category for s in specs}
        report = run_campaign(config, backends=[ScriptedBackend("b", script)])
        rows = export_retraining_set(report.manifest, split=0.4, seed=2)
        assert rows, "export produced no rows"
        # the backend answers every seed, so only gain(db=6.0) cases are misses
        assert all(row["mr"] == {"kind": "gain", "params": {"db": 6.0}} for row in rows)
        for row in rows:
            buf = read_wav(report.output_dir / row["artifact"])
            assert buf.frames > 0
