"""Campaign engine: EFR arithmetic, seed filtering, report accounting,
replay determinism, and the retraining export."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from audiomorph.audio import content_digest, read_wav, write_wav
from audiomorph.backends import Category, ModerationBackend, Verdict
from audiomorph.campaign import (
    CampaignConfig,
    SeedSpec,
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
    ParameterError,
)
from audiomorph.perturb import Perturbation
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

    def moderate(self, audio):
        digest = content_digest(audio)
        self.queried.append(digest)
        if digest in self.failing:
            raise BackendUnavailableError(f"{self.name} scripted failure")
        category = self.script.get(digest, Category.NON_TOXIC)
        return Verdict(category, 0.75)


class FlippingBackend(ScriptedBackend):
    """Answers from the script on a digest's first query and non_toxic on
    every repeat, like a backend whose verdicts drift between calls."""

    def moderate(self, audio):
        verdict = super().moderate(audio)
        if self.queried.count(content_digest(audio)) > 1:
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
        retained, report = filter_seeds(seeds, [b1, b2])

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
            filter_seeds(seeds, [dead])

    def test_one_live_backend_suffices(self, tmp_path):
        spec, buf = _make_seed(tmp_path, "a", 300.0, "insult")
        seeds = [load_seed(spec)]
        dead = ScriptedBackend("dead", failing={content_digest(buf)})
        live = ScriptedBackend("live", {content_digest(buf): Category.INSULT})
        retained, report = filter_seeds(seeds, [dead, live])
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
        with pytest.raises(ParameterError):
            Perturbation("transmogrify", {})

    def test_mr_kind_normalized(self):
        assert Perturbation("Ring-Mod", {"carrier_hz": 30.0}).kind == "ring_mod"

    def test_unknown_mr_parameter_rejected(self):
        with pytest.raises(ParameterError):
            Perturbation("gain", {"decibels": 6.0})

    def test_discontinuity_without_transcript_raises(self):
        mr = Perturbation("discontinuity", {"targets": ["x"], "gap_s": 0.1, "repeats": 2})
        assert mr.needs_transcript
        assert not Perturbation("gain", {"db": 6.0}).needs_transcript
        with pytest.raises(DomainError):
            mr.apply(sine(300.0, duration_s=0.5))

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
            seed_audio = read_wav(seeds_by_id[case["seed_id"]]["path"])
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
            def moderate(self, audio):
                time.sleep(0.02)  # keeps the first query in flight
                return super().moderate(audio)

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


class TestExportRetrainingSet:
    def _manifest_with_classes(self, tmp_path, per_class=100):
        """Synthetic manifest: one MR, two categories, per_class cases each."""
        cases = []
        for cat in ("insult", "spam"):
            for i in range(per_class):
                cases.append(
                    {
                        "seed_id": f"{cat}{i}",
                        "mr": {"kind": "gain", "params": {"db": 6.0}},
                        "digest": f"{cat}-{i:04d}",
                        "artifact": f"artifacts/{cat}-{i:04d}.wav",
                        "category": cat,
                    }
                )
        manifest = {
            "version": "0",
            "seeds": [],
            "mrs": [{"kind": "gain", "params": {"db": 6.0}}],
            "backends": ["b"],
            "verdicts": {"b": {}},
            "cases": cases,
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

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
        for row in rows:
            buf = read_wav(report.output_dir / row["artifact"])
            assert buf.frames > 0
