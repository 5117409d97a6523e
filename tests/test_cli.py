"""Command line surface: exit codes, stdout machine-parseability, flag
validation, and the wiring of every subcommand."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import audiomorph
from audiomorph import __version__, cli
from audiomorph.audio import content_digest, read_wav, rms, write_wav
from audiomorph.backends.fixture import save_fixtures
from audiomorph.backends import Category, Verdict
from .conftest import sine


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def quiet_wav(tmp_path):
    path = tmp_path / "in.wav"
    write_wav(sine(440.0, duration_s=0.5, amplitude=0.1), path)
    return path


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "transmogrify")
        assert code == 1
        assert err

    def test_unknown_flag_rejected(self, capsys, quiet_wav, tmp_path):
        code, _, _ = run_cli(
            capsys, "perturb", "--mr", "gain", "--db", "6", "--sparkle", "yes",
            str(quiet_wav), str(tmp_path / "out.wav"),
        )
        assert code == 1

    def test_module_entry_point(self):
        # the child imports the package under test, installed or not
        src = str(Path(audiomorph.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "audiomorph.cli", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


class TestPerturb:
    def test_gain_six_db(self, capsys, quiet_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, stdout, _ = run_cli(
            capsys, "perturb", "--mr", "gain", "--db", "6.0206",
            str(quiet_wav), str(out),
        )
        assert code == 0
        descriptor = json.loads(stdout)
        assert descriptor["kind"] == "gain"
        assert descriptor["params"] == {"db": 6.0206}
        before = rms(read_wav(quiet_wav))[0]
        after = rms(read_wav(out))[0]
        assert after / before == pytest.approx(2.0, rel=0.01)
        assert descriptor["digest"] == content_digest(read_wav(out))

    def test_kebab_kind_and_carrier_alias(self, capsys, quiet_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, stdout, _ = run_cli(
            capsys, "perturb", "--mr", "ring-mod", "--carrier", "30",
            str(quiet_wav), str(out),
        )
        assert code == 0
        assert json.loads(stdout)["kind"] == "ring_mod"
        assert out.exists()

    def test_unknown_mr(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", "sparkle", str(quiet_wav), str(tmp_path / "o.wav")
        )
        assert code == 1
        assert "sparkle" in err

    def test_wrong_flag_for_kind(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", "gain", "--db", "6", "--factor", "2",
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "--factor" in err

    def test_missing_required_flag(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", "echo", "--delay", "0.25",
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "--decay" in err and "--taps" in err

    def test_out_of_range_param(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", "gain", "--db", "99",
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "parameter" in err

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "perturb", "--mr", "gain", "--db", "6",
            str(tmp_path / "absent.wav"), str(tmp_path / "o.wav"),
        )
        assert code == 2

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxWAVE")
        code, _, _ = run_cli(
            capsys, "perturb", "--mr", "gain", "--db", "6",
            str(bad), str(tmp_path / "o.wav"),
        )
        assert code == 2

    def test_discontinuity_audio(self, capsys, tmp_path):
        wav = tmp_path / "speech.wav"
        write_wav(sine(200.0, duration_s=1.0, amplitude=0.3), wav)
        transcript = tmp_path / "speech.tsv"
        transcript.write_text(
            "son\t0.0\t0.2\nof\t0.2\t0.4\na\t0.4\t0.6\nbitch\t0.6\t0.9\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.wav"
        code, stdout, _ = run_cli(
            capsys, "perturb", "--mr", "discontinuity",
            "--targets", "bitch", "--gap", "0.1", "--repeats", "3",
            "--transcript", str(transcript), str(wav), str(out),
        )
        assert code == 0
        descriptor = json.loads(stdout)
        assert descriptor["params"]["targets"] == ["bitch"]
        grown = read_wav(out)
        # one site: (repeats-1)*span + repeats*gap = 2*0.2 + 3*0.1
        assert grown.duration == pytest.approx(1.0 + 0.7, abs=1e-3)

    def test_discontinuity_needs_transcript(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", "discontinuity",
            "--targets", "x", "--gap", "0.1", "--repeats", "2",
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "--transcript" in err

    def test_homophone_text(self, capsys, tmp_path):
        src = tmp_path / "line.tsv"
        src.write_text("fuck\nyou\n", encoding="utf-8")
        out = tmp_path / "subbed.tsv"
        code, stdout, err = run_cli(
            capsys, "perturb", "--mr", "homophone", "--targets", "fuck",
            str(src), str(out),
        )
        assert code == 0
        assert json.loads(stdout)["kind"] == "homophone"
        assert out.read_text().split() == ["folk", "you"]
        assert "folk you" in err

    def test_discontinuity_text(self, capsys, tmp_path):
        src = tmp_path / "line.tsv"
        src.write_text("son\nof\na\nbitch\n", encoding="utf-8")
        out = tmp_path / "stuttered.tsv"
        code, _, err = run_cli(
            capsys, "perturb", "--mr", "discontinuity-text",
            "--targets", "bitch", "--repeats", "3", str(src), str(out),
        )
        assert code == 0
        assert "son of a... a... a... bitch" in err


def _write_campaign(tmp_path, categories=("insult", "porn"), toxic_fixture=True):
    """Tiny two-seed campaign against a fixture backend; identity MR only,
    so the seed fixtures also answer the perturbed clips."""
    seeds = []
    verdicts = {}
    for i, cat in enumerate(categories):
        wav = tmp_path / f"seed{i}.wav"
        write_wav(sine(300.0 + 100 * i, duration_s=0.3, amplitude=0.4), wav)
        seeds.append({"id": f"s{i}", "path": wav.name, "category": cat})
        verdict_cat = Category(cat) if toxic_fixture else Category.NON_TOXIC
        verdicts[content_digest(read_wav(wav))] = Verdict(verdict_cat, 0.9)
    fixture_path = tmp_path / "fixtures.json"
    save_fixtures(fixture_path, verdicts)
    config = {
        "seeds": seeds,
        "mrs": [{"kind": "gain", "params": {"db": 0.0}}],
        "backends": [{"kind": "fixture", "path": "fixtures.json", "name": "fx"}],
        "output_dir": "out",
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestCampaign:
    def test_happy_path(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        code, stdout, err = run_cli(capsys, "campaign", str(config))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["retained"] == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["version"] == __version__
        for cell in report["cells"]:
            assert cell["efr"] == 0.0
        assert "gain(db=0.0)" in err  # human summary on stderr

    def test_missing_seeds_field(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"mrs": [], "backends": [], "output_dir": "o"}))
        code, _, err = run_cli(capsys, "campaign", str(path))
        assert code == 1
        assert "seeds" in err

    def test_all_seeds_filtered_exit_three(self, capsys, tmp_path):
        config = _write_campaign(tmp_path, toxic_fixture=False)
        code, stdout, _ = run_cli(capsys, "campaign", str(config))
        assert code == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["cells"] == []
        assert json.loads(stdout)["retained"] == 0

    def test_workers_override(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        code, _, _ = run_cli(capsys, "campaign", str(config), "--workers", "1")
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["workers"] == 1

    def test_replay_flag(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        assert run_cli(capsys, "campaign", str(config))[0] == 0
        manifest = tmp_path / "out" / "manifest.json"
        replay_dir = tmp_path / "replayed"
        code, stdout, _ = run_cli(
            capsys, "campaign", str(replay_dir), "--replay", str(manifest)
        )
        assert code == 0
        original = (tmp_path / "out" / "report.json").read_bytes()
        assert (replay_dir / "report.json").read_bytes() == original

    def test_export_split(self, capsys, tmp_path):
        config = _write_campaign(tmp_path, categories=("spam", "spam", "spam"))
        code, _, _ = run_cli(
            capsys, "campaign", str(config), "--export-split", "0.34"
        )
        assert code == 0
        rows = json.loads((tmp_path / "out" / "retraining.json").read_text())
        assert {r["split"] for r in rows} == {"test", "train"}


class TestKeywords:
    def test_ranked_output(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("red dog\nred cat\n", encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "keywords", str(corpus), "-k", "2")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 2
        token, score = lines[0].split("\t")
        # cat and dog tie on score; ties break alphabetically
        assert token == "cat"
        assert float(score) > 0

    def test_k_larger_than_vocabulary(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("red dog\n", encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "keywords", str(corpus), "-k", "50")
        assert code == 0
        assert len(stdout.strip().splitlines()) == 2

    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("", encoding="utf-8")
        code, _, _ = run_cli(capsys, "keywords", str(corpus), "-k", "3")
        assert code == 1

    def test_stopwords_respected(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the dog\nthe cat\n", encoding="utf-8")
        stops = tmp_path / "stop.txt"
        stops.write_text("the\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "keywords", str(corpus), "-k", "10", "--stopwords", str(stops)
        )
        assert code == 0
        tokens = [line.split("\t")[0] for line in stdout.strip().splitlines()]
        assert "the" not in tokens


class TestCalibrate:
    def test_threshold_json(self, capsys, tmp_path):
        templates = tmp_path / "templates"
        templates.mkdir()
        write_wav(sine(500.0, duration_s=0.4, amplitude=0.5), templates / "insult__tone.wav")
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        write_wav(sine(500.0, duration_s=0.4, amplitude=0.5), clips_dir / "hot.wav")
        write_wav(sine(3000.0, duration_s=0.4, amplitude=0.5), clips_dir / "cold.wav")
        manifest = tmp_path / "clips.tsv"
        manifest.write_text("clips/hot.wav\ttoxic\nclips/cold.wav\tbenign\n")
        code, stdout, _ = run_cli(
            capsys, "calibrate", "--templates", str(templates), "--clips", str(manifest)
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["accuracy"] == 1.0
        assert payload["threshold"] > 0

    def test_bad_manifest_line(self, capsys, tmp_path):
        templates = tmp_path / "templates"
        templates.mkdir()
        write_wav(sine(500.0, duration_s=0.4), templates / "insult__tone.wav")
        manifest = tmp_path / "clips.tsv"
        manifest.write_text("clip.wav\tmaybe\n")
        code, _, _ = run_cli(
            capsys, "calibrate", "--templates", str(templates), "--clips", str(manifest)
        )
        assert code == 1


class TestReport:
    def test_renders_tsv(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        assert run_cli(capsys, "campaign", str(config))[0] == 0
        code, stdout, err = run_cli(
            capsys, "report", str(tmp_path / "out" / "report.json")
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0].split("\t") == [
            "mr", "category", "backend", "generated",
            "misclassified", "unanswered", "efr",
        ]
        assert len(lines) == 3  # header + two cells
        assert __version__ in err

    def test_missing_report(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "report", str(tmp_path / "nope.json"))
        assert code == 2
