"""Shipped corpus: synthesis determinism, calibration separation, and the
offline campaign wired to the local spotter."""

import json
import shutil
from pathlib import Path

import pytest

from audiomorph import deskcorpus
from audiomorph.audio import content_digest, read_wav
from audiomorph.backends.spotter import calibrate_threshold, load_templates
from audiomorph.campaign import CampaignConfig, replay_campaign, run_campaign


class TestSynthesis:
    def test_templates_shape(self):
        templates = deskcorpus.synth_templates()
        assert sorted(templates) == [
            "insult__bark.wav",
            "porn__moan.wav",
            "spam__jingle.wav",
        ]
        for buf in templates.values():
            assert buf.sample_rate == deskcorpus.RATE
            assert buf.duration == pytest.approx(0.4)

    def test_seed_inventory(self):
        seeds = deskcorpus.synth_seeds()
        assert len(seeds) == 12
        by_cat = {}
        for seed_id, category, clip in seeds:
            by_cat.setdefault(category, []).append(seed_id)
            assert clip.duration == pytest.approx(1.0)
        assert {k: len(v) for k, v in by_cat.items()} == {
            "insult": 4,
            "porn": 4,
            "spam": 4,
        }

    def test_synthesis_deterministic(self):
        a = deskcorpus.synth_seeds()
        b = deskcorpus.synth_seeds()
        for (_, _, ca), (_, _, cb) in zip(a, b):
            assert content_digest(ca) == content_digest(cb)

    def test_build_twice_identical(self, tmp_path):
        p1 = deskcorpus.build_corpus(tmp_path / "one")
        p2 = deskcorpus.build_corpus(tmp_path / "two")
        assert p1.read_text() == p2.read_text()
        s1 = (tmp_path / "one" / "seeds" / "insult_0.wav").read_bytes()
        s2 = (tmp_path / "two" / "seeds" / "insult_0.wav").read_bytes()
        assert s1 == s2


class TestCalibration:
    def test_accuracy_beside_config(self, tmp_path):
        config_path = deskcorpus.build_corpus(tmp_path)
        assert "calibration_accuracy" not in json.loads(config_path.read_text())
        calibration = json.loads((tmp_path / "calibration.json").read_text())
        assert calibration == {"accuracy": 1.0}

    def test_perfect_separation(self):
        templates = [
            (tag, feats)
            for tag, feats in _template_features()
        ]
        threshold, accuracy = calibrate_threshold(
            deskcorpus.synth_calibration(), templates
        )
        assert accuracy == 1.0
        assert threshold > 0


def _template_features():
    from audiomorph.backends.spotter import extract_mfcc

    out = []
    for filename, buf in sorted(deskcorpus.synth_templates().items()):
        out.append((filename.split("__")[0], extract_mfcc(buf)))
    return out


@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    config_path = deskcorpus.build_corpus(root)
    config = CampaignConfig.from_file(config_path)
    report = run_campaign(config)
    return config_path, report


class TestOfflineCampaign:
    def test_all_seeds_retained(self, finished_campaign):
        _, report = finished_campaign
        assert report.seed_filter["retained"] == 12

    def test_identity_cells_clean(self, finished_campaign):
        _, report = finished_campaign
        identity = [c for c in report.cells if c.mr == "gain(db=0.0)"]
        assert len(identity) == 3
        assert all(c.efr == 0.0 for c in identity)

    def test_some_errors_found(self, finished_campaign):
        _, report = finished_campaign
        assert any(c.efr and c.efr > 0 for c in report.cells)

    def test_accounting_everywhere(self, finished_campaign):
        _, report = finished_campaign
        for cell in report.cells:
            correct = cell.generated - cell.unanswered - cell.misclassified
            assert correct >= 0
            assert cell.generated == cell.misclassified + correct + cell.unanswered

    def test_replay_is_byte_identical(self, finished_campaign, tmp_path):
        _, report = finished_campaign
        replayed = replay_campaign(report.manifest, tmp_path / "replay")
        assert replayed.report_json.read_bytes() == report.report_json.read_bytes()

    def test_artifacts_decode(self, finished_campaign):
        _, report = finished_campaign
        manifest = json.loads(report.manifest.read_text())
        for case in manifest["cases"][:8]:
            buf = read_wav(report.output_dir / case["artifact"])
            assert content_digest(buf) == case["digest"]


def test_live_desk_campaign_reproduces_the_checked_in_run(finished_campaign):
    """The live spotter run at base seed 100 gives the verdicts, cases and
    report bytes recorded in tests/data/desk_replay. Replay answers from the
    recorded verdicts, so only this run catches a spotter change that moves
    a confidence."""
    _, report = finished_campaign
    recorded = Path(__file__).parent / "data" / "desk_replay"
    live = json.loads(report.manifest.read_text())
    expected = json.loads((recorded / "manifest.json").read_text())
    assert live["verdicts"] == expected["verdicts"]
    assert live["cases"] == expected["cases"]
    assert report.report_json.read_bytes() == (recorded / "report.json").read_bytes()
    assert report.report_csv.read_bytes() == (recorded / "report.csv").read_bytes()


def test_checked_in_desk_replay_reproduces_its_reports(tmp_path):
    """tests/data/desk_replay holds a campaign recorded on the desk corpus at
    base seed 100. Its manifest, moved into a freshly built corpus, replays
    to the recorded report bytes: seed paths are relative to the manifest,
    and the seeds and perturbations are bit-reproducible."""
    recorded = Path(__file__).parent / "data" / "desk_replay"
    deskcorpus.build_corpus(tmp_path, base_seed=100)
    (tmp_path / "out").mkdir()
    shutil.copy(recorded / "manifest.json", tmp_path / "out" / "manifest.json")
    replayed = replay_campaign(tmp_path / "out" / "manifest.json", tmp_path / "replay")
    assert replayed.report_json.read_bytes() == (recorded / "report.json").read_bytes()
    assert replayed.report_csv.read_bytes() == (recorded / "report.csv").read_bytes()
