"""Self-contained offline corpus: synthesized keyword templates, seed clips
that embed those keywords in context noise, calibration clips, and a ready
to run campaign config wired to the local keyword spotter.

Everything is generated from fixed seeds, so the corpus (and any campaign
run over it with the local spotter) is reproducible bit for bit. No speech
recordings are shipped; "keywords" are short tonal signatures, one per
toxic category, which is enough to exercise the full pipeline: filtering,
perturbation, spotting, aggregation, replay.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .audio import DEFAULT_SAMPLE_RATE, AudioBuffer, write_wav
from .backends.spotter import calibrate_threshold, load_templates
from .errors import write_json

RATE = DEFAULT_SAMPLE_RATE
TEMPLATE_DURATION_S = 0.4
SEED_CONTEXT_S = 0.3
SEED_SNR_DB = 20.0
SEEDS_PER_CATEGORY = 4

_CONTEXT_HUM_HZ = 120.0
_CONTEXT_AMPLITUDE = 0.05


def _tone(freq_hz: float, duration_s: float, amplitude: float = 0.5) -> np.ndarray:
    t = np.arange(int(round(duration_s * RATE))) / RATE
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t)


def _chirp(f0: float, f1: float, duration_s: float, amplitude: float = 0.5) -> np.ndarray:
    n = int(round(duration_s * RATE))
    t = np.arange(n) / RATE
    # linear sweep: instantaneous frequency f0 + (f1-f0)*t/T
    phase = 2.0 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t * t / duration_s)
    return amplitude * np.sin(phase)


def synth_templates() -> Dict[str, AudioBuffer]:
    """Three 0.4 s tonal keywords, one per toxic category. File names carry
    the category tag the spotter reads back."""
    half = TEMPLATE_DURATION_S / 2
    bark = np.concatenate([_tone(300.0, half), _tone(500.0, half)])
    moan = _chirp(200.0, 350.0, TEMPLATE_DURATION_S)
    quarter = TEMPLATE_DURATION_S / 4
    jingle = np.concatenate(
        [
            _tone(800.0, quarter),
            _tone(1200.0, quarter),
            _tone(800.0, quarter),
            _tone(1200.0, quarter),
        ]
    )
    return {
        "insult__bark.wav": AudioBuffer(bark, RATE),
        "porn__moan.wav": AudioBuffer(moan, RATE),
        "spam__jingle.wav": AudioBuffer(jingle, RATE),
    }


def _context(duration_s: float, rng: np.random.Generator) -> np.ndarray:
    hum = _tone(_CONTEXT_HUM_HZ, duration_s, _CONTEXT_AMPLITUDE)
    return hum + 0.01 * rng.standard_normal(hum.shape)


def _embed(keyword: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Keyword between two context spans, plus noise at SEED_SNR_DB."""
    clip = np.concatenate(
        [_context(SEED_CONTEXT_S, rng), keyword, _context(SEED_CONTEXT_S, rng)]
    )
    signal_rms = float(np.sqrt(np.mean(clip**2)))
    noise = rng.standard_normal(clip.shape)
    noise_rms = float(np.sqrt(np.mean(noise**2)))
    clip = clip + noise * (signal_rms / (noise_rms * 10.0 ** (SEED_SNR_DB / 20.0)))
    return np.clip(clip, -1.0, 1.0)


def synth_seeds(base_seed: int = 100) -> List[Tuple[str, str, AudioBuffer]]:
    """(seed_id, category, clip) triples: each clip hides one keyword in
    one second of context."""
    templates = synth_templates()
    out = []
    counter = 0
    for filename, buf in sorted(templates.items()):
        category = filename.split("__")[0]
        keyword = buf.channel(0)
        for i in range(SEEDS_PER_CATEGORY):
            rng = np.random.default_rng(base_seed + counter)
            clip = _embed(keyword, rng)
            out.append((f"{category}_{i}", category, AudioBuffer(clip, RATE)))
            counter += 1
    return out


def synth_calibration(base_seed: int = 900) -> List[Tuple[AudioBuffer, bool]]:
    """Labeled clips for threshold calibration: keyword-bearing clips built
    like the seeds (with fresh noise) and keyword-free context clips."""
    templates = synth_templates()
    clips: List[Tuple[AudioBuffer, bool]] = []
    counter = 0
    for filename, buf in sorted(templates.items()):
        for _ in range(2):
            rng = np.random.default_rng(base_seed + counter)
            clips.append((AudioBuffer(_embed(buf.channel(0), rng), RATE), True))
            counter += 1
    for _ in range(6):
        rng = np.random.default_rng(base_seed + counter)
        benign = _context(1.0, rng) + _tone(2500.0, 1.0, 0.3)
        clips.append((AudioBuffer(np.clip(benign, -1.0, 1.0), RATE), False))
        counter += 1
    return clips


DEFAULT_MRS = [
    {"kind": "gain", "params": {"db": 0.0}},
    {"kind": "ring_mod", "params": {"carrier_hz": 3000.0}},
    {"kind": "inject_noise", "params": {"target_snr_db": 30.0, "seed": 7}},
    {"kind": "time_shift", "params": {"delta_s": 0.05}},
]


def build_corpus(root, base_seed: int = 100) -> Path:
    """Write templates/, seeds/, and campaign.json under root; the spotter
    threshold is calibrated on the fly, and its training accuracy goes to
    calibration.json beside the config. Returns the config path."""
    root = Path(root)
    templates_dir = root / "templates"
    seeds_dir = root / "seeds"
    templates_dir.mkdir(parents=True, exist_ok=True)
    seeds_dir.mkdir(parents=True, exist_ok=True)

    for filename, buf in sorted(synth_templates().items()):
        write_wav(buf, templates_dir / filename)

    seed_entries = []
    for seed_id, category, clip in synth_seeds(base_seed):
        filename = f"{seed_id}.wav"
        write_wav(clip, seeds_dir / filename)
        seed_entries.append(
            {"id": seed_id, "path": f"seeds/{filename}", "category": category}
        )

    templates = load_templates(templates_dir)
    threshold, accuracy = calibrate_threshold(synth_calibration(), templates)

    config = {
        "seeds": seed_entries,
        "mrs": DEFAULT_MRS,
        "backends": [
            {
                "kind": "keyword_spotter",
                "name": "spotter",
                "templates_dir": "templates",
                "threshold": threshold,
                "window_s": 0.4,
                "hop_s": 0.1,
            }
        ],
        "output_dir": "out",
        "workers": 4,
    }
    config_path = root / "campaign.json"
    write_json(config, config_path)
    write_json({"accuracy": accuracy}, root / "calibration.json")
    return config_path
