"""Command line surface: exit codes, stdout machine-parseability, relation
descriptor validation, and the wiring of every subcommand."""

import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import audiomorph
from audiomorph import __version__, cli, deskcorpus
from audiomorph.audio import content_digest, read_wav, write_wav
from audiomorph.backends.fixture import save_fixtures
from audiomorph.backends import Category, Verdict
from audiomorph.perturb import OPS, Perturbation
from .conftest import sine
from .oracles import rms
from .test_golden_digests import RELATIONS, TRANSCRIPT
from .test_linguistic import save_transcript


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

    def test_package_and_project_versions_agree(self):
        # a manifest records __version__, while pip installs the project's
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        found = re.findall(r'^version = "([^"]*)"$', pyproject.read_text(encoding="utf-8"), re.M)
        assert found == [__version__]

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "transmogrify")
        assert code == 1
        assert err

    def test_four_subcommands(self, capsys, quiet_wav, tmp_path):
        subparsers = next(a for a in cli._build_parser()._actions if a.dest == "command")
        assert list(subparsers.choices) == ["perturb", "desk", "campaign", "calibrate"]
        code, _, err = run_cli(
            capsys, "perturb", "--mr", '{"kind": "gain", "params": {"db": 6}}',
            "--lexicon", "lex.tsv", str(quiet_wav), str(tmp_path / "out.wav"),
        )
        assert code == 1 and "--lexicon" in err

    def test_unknown_flag_rejected(self, capsys, quiet_wav, tmp_path):
        code, _, _ = run_cli(
            capsys, "perturb", "--mr", '{"kind": "gain", "params": {"db": 6}}', "--sparkle", "yes",
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


def mr(kind, **params):
    """The ``--mr`` argument for a relation: its config descriptor as JSON."""
    return json.dumps({"kind": kind, "params": params})


class TestPerturb:
    def test_gain_six_db(self, capsys, quiet_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, stdout, _ = run_cli(
            capsys, "perturb", "--mr", mr("gain", db=6.0206), str(quiet_wav), str(out),
        )
        assert code == 0
        descriptor = json.loads(stdout)
        assert descriptor["kind"] == "gain"
        assert descriptor["params"] == {"db": 6.0206}
        before = rms(read_wav(quiet_wav))[0]
        after = rms(read_wav(out))[0]
        assert after / before == pytest.approx(2.0, rel=0.01)
        assert descriptor["digest"] == content_digest(read_wav(out))

    def test_kebab_kind(self, capsys, quiet_wav, tmp_path):
        out = tmp_path / "out.wav"
        code, stdout, _ = run_cli(
            capsys, "perturb", "--mr", mr("ring-mod", carrier_hz=30), str(quiet_wav), str(out),
        )
        assert code == 0
        assert json.loads(stdout) == {
            "kind": "ring_mod", "params": {"carrier_hz": 30}, "output": str(out),
            "digest": content_digest(read_wav(out)),
        }

    def test_unknown_mr(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", '{"kind": "sparkle"}',
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "config error:" in err and "'sparkle'" in err and "(field: kind)" in err

    @pytest.mark.parametrize("arg, named", [
        ("gain", "--mr"),
        ('{"kind": "gain"', "--mr"),
        ("[1]", "(field: kind)"),
        ('{"params": {"db": 6}}', "(field: kind)"),
    ])
    def test_mr_not_a_descriptor(self, capsys, quiet_wav, tmp_path, arg, named):
        code, stdout, err = run_cli(
            capsys, "perturb", "--mr", arg, str(quiet_wav), str(tmp_path / "o.wav")
        )
        assert code == 1
        assert stdout == "" and named in err
        assert not (tmp_path / "o.wav").exists()

    def test_wrong_param_for_kind(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", mr("gain", db=6, factor=2),
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "'factor'" in err and "(field: factor)" in err

    def test_missing_required_param(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", mr("echo", delay_s=0.25),
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "missing 'decay'" in err and "(field: decay)" in err

    @pytest.mark.parametrize("relation", [
        mr("gain", db=99),
        # tails too long to allocate: a parameter error, not a MemoryError
        mr("echo", delay_s=1e9, decay=0.5, taps=1),
        mr("reverb", intensity=0.3, duration_s=1e9, seed=1),
    ], ids=["gain", "echo-tail", "reverb-tail"])
    def test_out_of_range_param(self, capsys, quiet_wav, tmp_path, relation):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", relation, str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "parameter error" in err

    def test_negative_seed_is_parameter_error(self, capsys, quiet_wav, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", "--mr", mr("inject-noise", target_snr_db=20, seed=-1),
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "parameter error" in err and "seed" in err

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "perturb", "--mr", mr("gain", db=6),
            str(tmp_path / "absent.wav"), str(tmp_path / "o.wav"),
        )
        assert code == 2

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxWAVE")
        code, _, _ = run_cli(
            capsys, "perturb", "--mr", mr("gain", db=6), str(bad), str(tmp_path / "o.wav"),
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
            capsys, "perturb",
            "--mr", mr("discontinuity", targets=["bitch"], gap_s=0.1, repeats=3),
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
            capsys, "perturb", "--mr", mr("discontinuity", targets=["x"], gap_s=0.1, repeats=2),
            str(quiet_wav), str(tmp_path / "o.wav"),
        )
        assert code == 1
        assert "--transcript" in err

    def test_transcript_rejected_where_not_taken(self, capsys, quiet_wav, tmp_path):
        words = tmp_path / "words.tsv"
        words.write_text("x\t0.0\t0.1\n", encoding="utf-8")
        code, stdout, err = run_cli(
            capsys, "perturb", "--mr", mr("gain", db=6), "--transcript", str(words),
            str(quiet_wav), str(tmp_path / "o.out"),
        )
        assert code == 1
        assert stdout == "" and "gain does not take --transcript" in err
        assert not (tmp_path / "o.out").exists()


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (
            lambda m: m["mrs"][0]["params"].update(db=0.5),
            2,
            "diverged: seed 'insult_0' under gain(db=0.5) gives digest ",
        ),
        (
            lambda m: m.update(version="0.1.0"),
            1,
            f"written by audiomorph 0.1.0, which this version {__version__} cannot replay",
        ),
    ],
    ids=["edited-relation", "older-version"],
)
def test_desk_manifest_that_cannot_replay_writes_no_report(capsys, tmp_path, edit, code, message):
    """The checked-in desk manifest, edited so it cannot replay, fails with
    the reason and leaves no report or manifest behind."""
    deskcorpus.build_corpus(tmp_path, base_seed=100)
    recorded = Path(__file__).parent / "data" / "desk_replay" / "manifest.json"
    manifest = json.loads(recorded.read_text(encoding="utf-8"))
    assert manifest["mrs"][0] == {"kind": "gain", "params": {"db": 0.0}}
    edit(manifest)
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    got, stdout, err = run_cli(capsys, "campaign", str(tmp_path / "replay"), "--replay", str(path))
    assert (got, stdout) == (code, "")
    assert message in err
    for name in ("report.json", "report.csv", "manifest.json"):
        assert not (tmp_path / "replay" / name).exists()


def test_desk_replay_over_a_swapped_seed_writes_nothing(capsys, tmp_path):
    """The checked-in desk manifest replayed over a corpus whose insult_0
    holds insult_1's audio exits 2 naming insult_0, and makes no replay
    directory, so no artifact either."""
    deskcorpus.build_corpus(tmp_path, base_seed=100)
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "manifest.json"
    shutil.copy(Path(__file__).parent / "data" / "desk_replay" / "manifest.json", path)
    shutil.copy(tmp_path / "seeds" / "insult_1.wav", tmp_path / "seeds" / "insult_0.wav")
    got, stdout, err = run_cli(capsys, "campaign", str(tmp_path / "replay"), "--replay", str(path))
    assert (got, stdout) == (2, "")
    assert "diverged: seed 'insult_0' has digest" in err
    assert not (tmp_path / "replay").exists()


def test_manifest_cases_reproduce_through_perturb(capsys, tmp_path):
    """Each case of the desk replay manifest, its relation pasted into
    ``perturb --mr``, gives the clip whose digest the manifest records."""
    deskcorpus.build_corpus(tmp_path, base_seed=100)
    recorded = Path(__file__).parent / "data" / "desk_replay" / "manifest.json"
    cases = json.loads(recorded.read_text(encoding="utf-8"))["cases"]
    assert len(cases) == 48
    for i, case in enumerate(cases):
        seed_wav = tmp_path / "seeds" / f"{case['seed_id']}.wav"
        out = tmp_path / f"case{i}.wav"
        code, stdout, err = run_cli(
            capsys, "perturb", "--mr", json.dumps(case["mr"]), str(seed_wav), str(out)
        )
        assert code == 0, err
        assert json.loads(stdout)["digest"] == case["digest"], case


@pytest.mark.parametrize("relation", RELATIONS, ids=[r.label for r in RELATIONS])
def test_every_registry_op_runs_through_perturb(capsys, tmp_path, relation):
    """Each kind of ``perturb.OPS`` runs from ``perturb --mr``: stdout
    carries the relation's own descriptor, and the digest of the clip
    ``Perturbation.apply`` gives for the same input."""
    wav, words, out = tmp_path / "in.wav", tmp_path / "words.tsv", tmp_path / "out.wav"
    write_wav(sine(200.0, duration_s=1.0, amplitude=0.3), wav)
    save_transcript(TRANSCRIPT, words)
    transcript_args = ["--transcript", str(words)] if relation.needs_transcript else []
    code, stdout, err = run_cli(
        capsys, "perturb", "--mr", json.dumps(relation.describe()), *transcript_args,
        str(wav), str(out),
    )
    assert code == 0, err
    expected = relation.apply(read_wav(wav), TRANSCRIPT)
    assert json.loads(stdout) == {
        **relation.describe(), "output": str(out), "digest": content_digest(expected),
    }
    written = read_wav(out)
    assert (written.frames, written.sample_rate) == (expected.frames, expected.sample_rate)


@pytest.mark.parametrize("mr_entry, field", [
    ({"kind": "gain", "params": {"db": "6"}}, "db"),
    ({"kind": "gain", "params": {"db": 6, "decibels": 6}}, "decibels"),
    ({"kind": "gain", "parms": {"db": 6}}, "parms"),
    ({"kind": "echo", "params": {"delay_s": 0.25, "taps": 3}}, "decay"),
    ({"kind": "sparkle", "params": {}}, "kind"),
    ({"kind": 5}, "kind"),
    ({"kind": "gain", "params": 6}, "params"),
    ({"kind": "discontinuity", "params": {"targets": "bitch", "gap_s": 0.1, "repeats": 3}},
     "targets"),
    ({"kind": "discontinuity",
      "params": {"targets": ["bitch"], "gap_s": 0.1, "repeats": 3, "marker": "!"}}, "marker"),
    ({"kind": "discontinuity", "params": {"targets": ["bitch"], "gap_s": 0.1, "repeats": 3.0}},
     "repeats"),
    ({"kind": "discontinuity", "params": {"targets": ["bitch"], "gap_s": 0.1}}, "repeats"),
])
def test_relation_errors_match_between_perturb_and_config(
    capsys, quiet_wav, tmp_path, mr_entry, field
):
    """A bad relation reads the same from ``perturb --mr`` as from a
    config's ``mrs`` entry."""
    code, _, perturb_err = run_cli(
        capsys, "perturb", "--mr", json.dumps(mr_entry), str(quiet_wav), str(tmp_path / "o.wav")
    )
    assert code == 1
    config = _write_campaign(tmp_path)
    campaign = json.loads(config.read_text())
    campaign["mrs"] = [mr_entry]
    config.write_text(json.dumps(campaign), encoding="utf-8")
    code, _, config_err = run_cli(capsys, "campaign", str(config))
    assert code == 1
    assert perturb_err == config_err
    assert perturb_err.startswith("config error:") and f"(field: {field})" in perturb_err


def _readme_perturb_commands():
    """Every ``audiomorph perturb`` command in README, continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("audiomorph perturb ")]


def test_readme_perturb_examples_run(capsys, tmp_path, monkeypatch):
    commands = _readme_perturb_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    write_wav(sine(200.0, duration_s=1.0, amplitude=0.3), tmp_path / "in.wav")
    (tmp_path / "words.tsv").write_text(
        "son\t0.0\t0.2\nof\t0.2\t0.4\na\t0.4\t0.6\nbitch\t0.6\t0.9\n", encoding="utf-8"
    )
    for command in commands:
        code, _, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, f"{command}: {err}"


def _readme_inventory():
    """kind -> the backticked names in its parameters column, read from
    README's "Perturbation inventory" table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Perturbation inventory", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return rows


def test_readme_inventory_matches_signatures():
    rows = _readme_inventory()
    for kind, op in OPS.items():
        assert kind in rows, f"README inventory has no row for {kind}"
        # the parameters after the clip, less the transcript input
        params = [
            name for name in list(inspect.signature(op).parameters)[1:] if name != "transcript"
        ]
        assert rows[kind] == params, f"README row for {kind} lists {rows[kind]}"
    assert set(rows) == set(OPS)


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

    def test_unknown_relation_key_is_config_error(self, capsys, tmp_path):
        path = _write_campaign(tmp_path)
        config = json.loads(path.read_text())
        config["mrs"] = [{"kind": "gain", "params": {"db": 1.0}, "parms": {}}]
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "campaign", str(path))
        assert code == 1
        assert "config error:" in err and "'parms'" in err
        assert not (tmp_path / "out").exists()

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

    def test_replay_honours_workers(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        assert run_cli(capsys, "campaign", str(config))[0] == 0
        manifest = tmp_path / "out" / "manifest.json"
        for workers in ("1", "4"):
            replay_dir = tmp_path / f"replayed{workers}"
            code, _, _ = run_cli(
                capsys, "campaign", str(replay_dir), "--replay", str(manifest),
                "--workers", workers,
            )
            assert code == 0
            replayed = json.loads((replay_dir / "manifest.json").read_text())
            assert replayed["workers"] == int(workers)
        for name in ("report.json", "report.csv"):
            original = (tmp_path / "out" / name).read_bytes()
            assert (tmp_path / "replayed1" / name).read_bytes() == original
            assert (tmp_path / "replayed4" / name).read_bytes() == original

    def test_replay_rejects_zero_workers(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        assert run_cli(capsys, "campaign", str(config))[0] == 0
        code, _, err = run_cli(
            capsys, "campaign", str(tmp_path / "replayed"),
            "--replay", str(tmp_path / "out" / "manifest.json"), "--workers", "0",
        )
        assert code == 1
        assert "--workers must be >= 1" in err
        assert not (tmp_path / "replayed").exists()

    def test_replay_manifest_without_verdicts_is_config_error(self, capsys, tmp_path):
        config = _write_campaign(tmp_path)
        assert run_cli(capsys, "campaign", str(config))[0] == 0
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["verdicts"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "campaign", str(tmp_path / "replayed"), "--replay", str(manifest_path)
        )
        assert code == 1
        assert "config error:" in err and "'verdicts'" in err

    def _edited_manifest(self, capsys, tmp_path, edit):
        """Run the tiny campaign, apply ``edit`` to its manifest, and return
        the manifest path."""
        assert run_cli(capsys, "campaign", str(_write_campaign(tmp_path)))[0] == 0
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest, next(iter(manifest["verdicts"]["fx"])))
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        return manifest_path

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m, d: m["verdicts"]["fx"][d].pop("category"), "'category'"),
            (lambda m, d: m["verdicts"]["fx"].update({d: "insult"}), "'category'"),
            (lambda m, d: m["verdicts"]["fx"][d].update(confidence="abc"), "confidence"),
            (lambda m, d: m["backends"].append("ghost"), "'ghost'"),
            (lambda m, d: m.update(verdicts=[]), "'verdicts'"),
            (lambda m, d: m["seeds"].__setitem__(0, "seed0.wav"), "seed #0"),
            (lambda m, d: m["seeds"][0].pop("path"), "'path'"),
            pytest.param(
                lambda m, d: m["seeds"][0].update(path=5), "'path'", id="non-string-path"
            ),
            pytest.param(lambda m, d: m["seeds"][0].update(id=None), "'id'", id="null-id"),
            pytest.param(lambda m, d: m.pop("version"), "'version'", id="no-version"),
            pytest.param(lambda m, d: m.update(version=1), "'version'", id="int-version"),
            pytest.param(
                lambda m, d: m.update(version="0.0.9"), f"0.0.9, which this version {__version__}",
                id="other-version",
            ),
        ],
    )
    def test_replay_of_malformed_manifest_is_config_error(self, capsys, tmp_path, edit, named):
        manifest_path = self._edited_manifest(capsys, tmp_path, edit)
        code, stdout, err = run_cli(
            capsys, "campaign", str(tmp_path / "replayed"), "--replay", str(manifest_path)
        )
        assert code == 1
        assert stdout == "" and "config error:" in err and named in err
        assert not (tmp_path / "replayed").exists()

    def test_replay_of_non_object_relation_is_config_error(self, capsys, tmp_path):
        manifest_path = self._edited_manifest(
            capsys, tmp_path, lambda m, d: m["mrs"].__setitem__(0, 5)
        )
        code, _, err = run_cli(
            capsys, "campaign", str(tmp_path / "replayed"), "--replay", str(manifest_path)
        )
        assert code == 1
        assert "config error:" in err and "'kind'" in err

    def test_replay_of_verdicts_without_confidence(self, capsys, tmp_path):
        # confidence is optional in a verdict table, as in any fixture file
        manifest_path = self._edited_manifest(
            capsys, tmp_path,
            lambda m, d: [entry.pop("confidence") for entry in m["verdicts"]["fx"].values()],
        )
        code, _, _ = run_cli(
            capsys, "campaign", str(tmp_path / "replayed"), "--replay", str(manifest_path)
        )
        assert code == 0
        original = (tmp_path / "out" / "report.json").read_bytes()
        assert (tmp_path / "replayed" / "report.json").read_bytes() == original

    def test_replay_of_edited_relation_diverges(self, capsys, tmp_path):
        # the recorded cases were made at db=0.0; regenerated at 0.5 they differ
        manifest_path = self._edited_manifest(
            capsys, tmp_path, lambda m, d: m["mrs"][0]["params"].update(db=0.5)
        )
        code, _, err = run_cli(
            capsys, "campaign", str(tmp_path / "replayed"), "--replay", str(manifest_path)
        )
        assert code == 2
        assert "diverged" in err
        assert not any((tmp_path / "replayed" / name).exists() for name in ("report.json", "report.csv"))

    def test_export_split(self, capsys, tmp_path):
        config = _write_campaign(tmp_path, categories=("spam", "spam", "spam"))
        # the fixture answers the 6 dB louder clips non_toxic: they are the
        # misses, and the only cases exported
        louder = {"kind": "gain", "params": {"db": 6.0}}
        campaign = json.loads(config.read_text())
        campaign["mrs"].append(louder)
        config.write_text(json.dumps(campaign), encoding="utf-8")
        fixtures = json.loads((tmp_path / "fixtures.json").read_text())
        for seed in campaign["seeds"]:
            clip = Perturbation.from_dict(louder).apply(read_wav(tmp_path / seed["path"]))
            fixtures[content_digest(clip)] = {"category": "non_toxic"}
        (tmp_path / "fixtures.json").write_text(json.dumps(fixtures), encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "campaign", str(config), "--export-split", "0.34"
        )
        assert code == 0
        rows = json.loads((tmp_path / "out" / "retraining.json").read_text())
        assert {r["split"] for r in rows} == {"test", "train"}
        assert all(r["mr"] == louder for r in rows)


    @pytest.mark.parametrize(
        "flags",
        [["--export-split", "1.5"], ["--export-split", "0"], ["--export-split", "nan"],
         ["--export-split", "0.5", "--export-seed", "-1"]],
        ids=["split-1.5", "split-0", "split-nan", "seed--1"],
    )
    @pytest.mark.parametrize("toxic_fixture", [True, False], ids=["retained", "all-filtered"])
    def test_bad_export_rejected_before_anything_runs(self, capsys, tmp_path, flags, toxic_fixture):
        config = _write_campaign(tmp_path, toxic_fixture=toxic_fixture)
        code, stdout, err = run_cli(capsys, "campaign", str(config), *flags)
        assert code == 1
        assert stdout == "" and err.startswith("parameter error: ")
        assert not (tmp_path / "out").exists()
        # a replay's export is checked before its manifest is read
        code, stdout, err = run_cli(
            capsys, "campaign", str(tmp_path / "replay"), "--replay", "missing.json", *flags
        )
        assert (code, stdout) == (1, "") and err.startswith("parameter error: ")
        assert not (tmp_path / "replay").exists()


class TestDesk:
    def test_quick_start(self, capsys, tmp_path):
        # README's quick start: build the corpus, run it with a retraining
        # export, replay it, and compare the reports byte for byte
        root = tmp_path / "demo"
        code, stdout, _ = run_cli(capsys, "desk", str(root))
        assert code == 0
        config = root / "campaign.json"
        assert json.loads(stdout) == {"config": str(config)}
        assert run_cli(capsys, "campaign", str(config), "--export-split", "0.2")[0] == 0
        out = root / "out"
        assert (out / "retraining.json").exists()
        code, _, _ = run_cli(
            capsys, "campaign", str(root / "replay"), "--replay", str(out / "manifest.json")
        )
        assert code == 0
        for name in ("report.json", "report.csv"):
            assert (root / "replay" / name).read_bytes() == (out / name).read_bytes()
        # a second desk on the same root refuses and leaves the config alone
        before = config.read_bytes()
        assert run_cli(capsys, "desk", str(root))[0] == 1
        assert config.read_bytes() == before

    def test_domain_error_named_as_such(self, capsys, tmp_path):
        # a stretch to 0.3 leaves a desk clip shorter than the spotter's
        # window; the DomainError crosses the store at the config's workers
        root = tmp_path / "demo"
        assert run_cli(capsys, "desk", str(root))[0] == 0
        config = json.loads((root / "campaign.json").read_text(encoding="utf-8"))
        assert config["workers"] == 4
        config["mrs"].append({"kind": "time_stretch", "params": {"factor": 0.3}})
        (root / "campaign.json").write_text(json.dumps(config), encoding="utf-8")
        code, stdout, err = run_cli(capsys, "campaign", str(root / "campaign.json"))
        assert code == 1
        assert stdout == ""
        assert err.startswith("domain error: window of 38 feature frames exceeds clip")

    def test_never_rebuilds_over_a_config(self, capsys, tmp_path):
        config = tmp_path / "campaign.json"
        config.write_text('{"edited": true}\n', encoding="utf-8")
        code, stdout, err = run_cli(capsys, "desk", str(tmp_path))
        assert code == 1
        assert stdout == "" and "campaign.json" in err
        assert config.read_text(encoding="utf-8") == '{"edited": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["campaign.json"]


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

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--window", "0", "window_s"), ("--window", "nan", "window_s"),
         ("--hop", "-5", "hop_s"), ("--hop", "nan", "hop_s")],
    )
    def test_window_and_hop_checked_as_a_config_does(self, capsys, tmp_path, flag, value, field):
        templates = tmp_path / "templates"
        templates.mkdir()
        write_wav(sine(500.0, duration_s=0.4), templates / "insult__tone.wav")
        write_wav(sine(500.0, duration_s=0.4), tmp_path / "hot.wav")
        manifest = tmp_path / "clips.tsv"
        manifest.write_text("hot.wav\ttoxic\n")
        code, stdout, err = run_cli(
            capsys, "calibrate", "--templates", str(templates), "--clips", str(manifest),
            flag, value,
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("config error: ") and err.endswith(f"(field: {field})\n")

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
