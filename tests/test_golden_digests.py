"""Golden digests: the content digest of every relation's output on the
desk-corpus seeds, checked in as tests/data/golden_digests.json.

Recorded fixtures and manifests are keyed by these digests, so an op whose
output bytes move stops old campaigns from replaying. A change that means
to move bytes regenerates the table and names the moved entries:

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from pathlib import Path

import numpy as np
import pytest

from audiomorph import deskcorpus
from audiomorph.audio import AudioBuffer, content_digest
from audiomorph.errors import read_json_object, write_json
from audiomorph.perturb import OPS, Perturbation
from audiomorph.perturb.linguistic import Transcript

TABLE = Path(__file__).parent / "data" / "golden_digests.json"

# one in-range parameter set per kind, and a second where a parameter picks
# another code path: a negative time_shift moves content the other way, and
# a reverb of intensity 0 convolves with the leading tap alone
RELATIONS = [
    Perturbation("time_stretch", {"factor": 0.8}),
    Perturbation("time_shift", {"delta_s": 0.05}),
    Perturbation("time_shift", {"delta_s": -0.05}),
    Perturbation("pan", {"position": -0.5}),
    Perturbation("surround", {"rotation_hz": 0.5}),
    Perturbation("pitch_shift", {"semitones": 3.0}),
    Perturbation("inject_noise", {"target_snr_db": 20.0, "seed": 7}),
    Perturbation("repeat_segment", {"start_s": 0.2, "end_s": 0.5, "count": 2}),
    Perturbation("gain", {"db": 6.0}),
    Perturbation("compress", {"threshold_db": -20.0, "ratio": 4.0}),
    Perturbation("ring_mod", {"carrier_hz": 3000.0}),
    Perturbation("bass_boost", {"cutoff_hz": 150.0, "gain_db": 6.0}),
    Perturbation("tremolo", {"rate_hz": 5.0, "depth": 0.5}),
    Perturbation("distort", {"clip_threshold": 0.3, "drive": 2.0}),
    Perturbation("echo", {"delay_s": 0.1, "decay": 0.5, "taps": 2}),
    Perturbation("reverb", {"intensity": 0.3, "duration_s": 0.2, "seed": 3}),
    Perturbation("reverb", {"intensity": 0.0, "duration_s": 0.2, "seed": 3}),
    Perturbation("discontinuity", {"targets": ["keyword"], "gap_s": 0.1, "repeats": 2}),
]

# aligned like a desk seed: context 0-0.3 s, keyword 0.3-0.7 s, context 0.7-1.0 s
TRANSCRIPT = Transcript(
    ("hey", "keyword", "there"), alignment=((0.0, 0.3), (0.3, 0.7), (0.7, 1.0))
)


def desk_clips():
    """The 12 seeds of ``synth_seeds(100)`` by id, and all 12 joined into
    one 12 s clip."""
    seeds = deskcorpus.synth_seeds(100)
    clips = {seed_id: clip for seed_id, _, clip in seeds}
    joined = np.concatenate([clip.samples for _, _, clip in seeds], axis=1)
    clips["joined"] = AudioBuffer(joined, deskcorpus.RATE)
    return clips


def output_digests(relation, clips):
    return {name: content_digest(relation.apply(clip, TRANSCRIPT)) for name, clip in clips.items()}


@pytest.fixture(scope="module")
def clips():
    return desk_clips()


@pytest.fixture(scope="module")
def golden():
    return read_json_object(TABLE, "golden digest table")


def test_table_covers_every_op(golden):
    assert {relation.kind for relation in RELATIONS} == set(OPS)
    assert sorted(golden) == sorted(relation.label for relation in RELATIONS)


@pytest.mark.parametrize("relation", RELATIONS, ids=[r.label for r in RELATIONS])
def test_output_digests_match_golden_table(relation, clips, golden):
    assert output_digests(relation, clips) == golden[relation.label]


if __name__ == "__main__":
    all_clips = desk_clips()
    write_json({r.label: output_digests(r, all_clips) for r in RELATIONS}, TABLE)
    print(f"wrote {len(RELATIONS)} relations x {len(all_clips)} clips to {TABLE}")
