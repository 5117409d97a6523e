"""The measuring process of one benchmark run. ``run.py`` starts it fresh for
every run, after set-up, so that its peak resident memory belongs to the
timed campaigns alone and all load comes from this one process.

Usage: ``python3 perfbench/child.py SPEC.json RESULT.json``

``timed`` mode makes one untimed call at workers=N, which sets the peak
memory, then alternates timed calls at workers=1 and workers=N until the
run's seconds are spent. ``trace`` mode runs the per-op sweep, three pairs
of untraced and traced calls at workers=1 (for the tracing overhead), and a
traced call at workers=N, then derives the per-layer metrics from the spans
of the last traced workers=1 call and the workers=N call.
Every call's report is checked.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import requests

import tracing
import workloads
from audiomorph.backends import build_backend
from audiomorph.deskcorpus import synth_seeds
from audiomorph.perturb import OPS
from audiomorph.perturb.linguistic import Transcript, benign_discontinuity_audio

# parameters for the per-op sweep: the replay-longclip relations, plus the
# kinds no workload uses (distort needs clip_threshold and drive)
SWEEP_PARAMS = {
    "time_shift": {"delta_s": 0.05},
    "pan": {"position": 0.3},
    "surround": {"rotation_hz": 0.5},
    "repeat_segment": {"start_s": 0.3, "end_s": 0.7, "count": 1},
    "gain": {"db": -3.0},
    "ring_mod": {"carrier_hz": 3000.0},
    "tremolo": {"rate_hz": 5.0, "depth": 0.5},
    "distort": {"clip_threshold": 0.5, "drive": 1.0},
    **{mr["kind"]: mr["params"] for mr in workloads.LONGCLIP_MRS},
}
SWEEP_REPEATS = 5
OVERHEAD_PAIRS = 3
LAYER_OF_BACKEND = {"KeywordSpotterBackend": "spotter", "HttpBackend": "http", "FixtureBackend": "fixture"}


class Campaigns:
    """Runs campaign calls of one workload into numbered directories and
    checks each report; remembers what every call did."""

    def __init__(self, spec: dict):
        self.name = spec["workload"]
        self.setup = spec["setup"]
        self.tiny = spec["tiny"]
        self.work = Path(spec["work"])
        self.expected = workloads.expected_tuples(self.name, self.setup, spec["seed"], self.tiny)
        self.first: Optional[tuple] = None
        self.records: List[dict] = []

    def backend(self, epoch: str):
        """A backend object to pass to run_campaign (not for replay)."""
        config = workloads.campaign_config(self.name, self.setup, self.tiny, 1, self.work, epoch)
        return build_backend(config.backend_configs[0])

    def server_stats(self, epoch: str) -> dict:
        if self.name != "http-mock":
            return {}
        return requests.post(self.setup["url"], json={"stats": epoch}, timeout=10).json()

    def run(self, mode: str, workers: int, backends=None, alter: bool = False,
            around=nullcontext) -> dict:
        """One campaign call, timed inside ``around()``, then its checks."""
        index = len(self.records)
        epoch = f"c{index}"
        out = self.work / f"campaign{index}"
        with around():
            started = time.perf_counter()
            report = workloads.run(self.name, self.setup, self.tiny, workers, out, epoch, backends)
            wall = time.perf_counter() - started
        stats = self.server_stats(epoch)
        if alter:  # self-test hook: the gate must catch this
            with open(out / "report.csv", "a", encoding="utf-8") as fh:
                fh.write("altered\n")
        problems = workloads.check_report(
            self.name, self.setup, out, self.work / f"replay{index}", self.expected, self.first
        )
        if not problems and self.first is None:
            self.first = tuple((out / f).read_bytes() for f in ("report.json", "report.csv"))
        generated = sum(c.generated for c in report.cells)
        record = {
            "mode": mode,
            "workers": workers,
            "wall_s": wall,
            "generated": generated,
            "unanswered": sum(c.unanswered for c in report.cells),
            "failed": generated if problems else 0,
            "problems": problems,
            "server": stats,
        }
        for problem in problems:
            print(f"perfbench: campaign {index} (workers={workers}): {problem}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(self.work / f"replay{index}", ignore_errors=True)
        self.records.append(record)
        return record


def timed(spec: dict) -> dict:
    campaigns = Campaigns(spec)
    n = spec["workers_n"]
    # the first call, at workers=N, sets the peak resident memory: later calls
    # can raise it only through allocator fragmentation, which varies run to
    # run. It also warms the process up, so it is not timed.
    campaigns.run("memory", n, alter=spec["alter_report"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deadline = time.perf_counter() + spec["seconds"]
    modes = [("w1", 1), ("wN", n)]
    while True:
        pair_started = time.perf_counter()
        for mode, workers in modes:
            campaigns.run(mode, workers)
        # stop at the pair boundary nearest the end of the run's seconds
        now = time.perf_counter()
        if now + (now - pair_started) / 2 > deadline:
            break
        modes.reverse()  # w1 wN wN w1 ..., so both see the same drift
    return {"campaigns": campaigns.records, "peak_rss_mb": peak_rss_mb}


def sweep_clip():
    """The fixed multi-second clip of the per-op sweep and its transcript."""
    clips = synth_seeds(workloads.DEFAULT_SEED)[: workloads.CLIPS_PER_LONG_SEED]
    audio, tokens, spans = workloads.join_clips(clips)
    return audio, Transcript(tokens, "EN", spans)


def op_sweep() -> Dict[str, float]:
    """ms per second of audio for every op kind on the sweep clip."""
    audio, transcript = sweep_clip()
    result = {}
    for kind in [*OPS, "discontinuity"]:
        params = SWEEP_PARAMS[kind]  # a new op kind needs its parameters here
        if kind == "discontinuity":
            call = lambda: benign_discontinuity_audio(audio, transcript, **params)
        else:
            call = lambda: OPS[kind](audio, **params)
        times = []
        for _ in range(SWEEP_REPEATS):
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        result[f"perturb.{kind}.ms_per_audio_s"] = statistics.median(times) * 1000.0 / audio.duration
    return result


def _sum_self(spans, selfs, name: str) -> float:
    return sum(selfs[s.id] for s in spans if s.name == name) * 1000.0


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def layer_metrics(w1: dict, wn: dict, overhead_ratio: float) -> Dict[str, float]:
    """Per-layer metrics from the traced campaigns. Counts, self times and
    stage windows come from workers=1; latency percentiles, CPU use and
    rate-limiter waits from workers=N."""
    spans, selfs = w1["spans"], tracing.self_times(w1["spans"])
    root = next(s for s in spans if s.parent is None)
    wall_ms = root.duration * 1000.0
    m: Dict[str, float] = {}
    for name in ("spotter.dtw", "spotter.mfcc", "audio.content_digest", "audio.write_wav",
                 "fixture.moderate"):
        m[f"{name}.calls"] = _count(spans, name)
        m[f"{name}.self_ms"] = _sum_self(spans, selfs, name)
    for name in ("audio.read_wav", "audio.wav_bytes"):
        m[f"{name}.self_ms"] = _sum_self(spans, selfs, name)
    m["spotter.dtw.share_pct"] = 100.0 * m["spotter.dtw.self_ms"] / wall_ms
    m["perturb.apply.self_ms"] = sum(selfs[s.id] for s in spans if s.name.startswith("perturb.")) * 1000.0

    queries = [s for s in spans if s.name.endswith(".moderate")]
    distinct = {s.digest or f"unknown-{s.id}" for s in queries}
    m["campaign.queries"] = len(queries)
    m["campaign.distinct_digests"] = len(distinct)
    m["campaign.useful_query_ratio"] = len(distinct) / len(queries) if queries else 0.0
    for stage, ms in tracing.stage_windows(spans).items():
        m[f"campaign.{stage}_ms"] = ms
    m["campaign.wall_ms"] = wall_ms
    m["campaign.self_ms"] = selfs[root.id] * 1000.0
    m["trace.self_sum_ms"] = sum(v for k, v in selfs.items() if k != root.id) * 1000.0
    m["trace.overhead_ratio"] = overhead_ratio
    m["campaign.case_audio_mb"] = w1["peak_bytes"] / 2**20
    record = w1["record"]
    m["campaign.generated_cases"] = record["generated"]
    m["case_fail_ratio"] = (record["unanswered"] + record["failed"]) / max(1, record["generated"])

    fixture = [s for s in spans if s.name == "fixture.moderate"]
    m["fixture.miss_ratio"] = (
        sum(1 for s in fixture if s.error == "MissingFixtureError") / len(fixture) if fixture else 0.0
    )

    http = [s for s in spans if s.name == "http.moderate"]
    attempts_of = {s.id: 0 for s in http}
    acquire_ms = 0.0
    for s in spans:
        if s.name == "ratelimit.acquire" and s.parent in attempts_of:
            attempts_of[s.parent] += 1
            acquire_ms += s.duration * 1000.0
    attempts = sum(attempts_of.values())
    backoff_ms = sum(
        workloads.HTTP_BACKOFF_S * 1000.0 * (2 ** (k - 1) - 1) for k in attempts_of.values() if k
    )
    server = record["server"]
    m["http.attempts_per_query"] = attempts / len(http) if http else 0.0
    m["http.retries"] = attempts - len(http)
    m["http.final_failures"] = sum(1 for s in http if s.error)
    m["http.server_service_ms"] = server["service_ms"] / server["requests"] if server.get("requests") else 0.0
    m["http.client_overhead_ms"] = (
        (sum(s.duration for s in http) * 1000.0 - acquire_ms - backoff_ms - server["service_ms"]) / attempts
        if attempts else 0.0
    )

    nspans = wn["spans"]
    for layer in ("spotter", "http"):
        latencies = [s.duration * 1000.0 for s in nspans if s.name == f"{layer}.moderate"]
        pct, value = tracing.tail(latencies) if latencies else (0.0, 0.0)
        m[f"{layer}.moderate.p50_ms"] = tracing.percentile(latencies, 50.0) if latencies else 0.0
        m[f"{layer}.moderate.tail_ms"] = value
        m[f"{layer}.moderate.tail_pct"] = pct
        m[f"{layer}.moderate.samples"] = len(latencies)
    nroot = next(s for s in nspans if s.parent is None)
    m["campaign.cpu_util"] = wn["cpu_s"] / nroot.duration
    m["ratelimit.acquires"] = _count(nspans, "ratelimit.acquire")
    m["ratelimit.wait_ms"] = sum(s.duration for s in nspans if s.name == "ratelimit.acquire") * 1000.0
    return m


def traced(spec: dict) -> dict:
    campaigns = Campaigns(spec)
    n = spec["workers_n"]
    sweep = op_sweep()

    # replay builds its own fixture backends, so no proxy can be passed in
    replay = campaigns.name == "replay-longclip"
    tracer = tracing.Tracer()
    runs = []

    @contextmanager
    def traced_call():
        # wrappers are in place only around the campaign call, not its checks
        undo = tracing.install(tracer, trace_fixture_class=replay)
        cpu = time.process_time()
        tracer.begin()
        try:
            yield
        finally:
            spans = tracer.end()
            runs.append({"spans": spans, "peak_bytes": tracer.peak_bytes,
                         "cpu_s": time.process_time() - cpu})
            undo()

    def run(mode: str, workers: int, trace: bool) -> dict:
        backends = None
        if not replay:
            backend = campaigns.backend(f"c{len(campaigns.records)}")
            layer = LAYER_OF_BACKEND[type(backend).__name__]
            backends = [tracing.TracedBackend(backend, tracer, layer) if trace else backend]
        if not trace:
            return campaigns.run(mode, workers, backends)
        record = campaigns.run(mode, workers, backends, around=traced_call)
        runs[-1]["record"] = record
        return record

    # overhead: untraced and traced workers=1 calls side by side, median ratio
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        untraced = run("w1", 1, trace=False)
        ratios.append(run("w1", 1, trace=True)["wall_s"] / untraced["wall_s"])
    del runs[:-1]  # keep the spans of the last traced workers=1 call
    run("wN", n, trace=True)

    trace_file = Path(spec["trace_file"])
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        for label, traced_run in zip(("w1", "wN"), runs):
            for s in traced_run["spans"]:
                fh.write(json.dumps({"campaign": label, **s.__dict__}) + "\n")

    metrics = layer_metrics(runs[0], runs[1], statistics.median(ratios))
    metrics.update(sweep)
    return {"campaigns": campaigns.records, "metrics": metrics}


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    try:
        result = traced(spec) if spec["mode"] == "trace" else timed(spec)
    except Exception:
        traceback.print_exc()
        return 1
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
