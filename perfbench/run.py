"""Campaign benchmark for audiomorph.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``spotter-desk``, ``replay-longclip`` and
``http-mock``. All are closed loops: the campaign's thread pool is the
client set, at workers=1 and at workers=N (N = usable CPUs).

The run sets the workload up at least 5 times and for at least 6 s
(``setup_s`` is the median), then starts a fresh measuring process
(child.py). With ``--trace 0`` it times campaign calls for S seconds and
reports the end-to-end metrics; with ``--trace 1`` it makes the traced run
and reports the per-layer metrics. Every campaign's report is checked (see
``workloads.check_report``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units are those BENCHMARK.json lists, and a run whose
metrics differ from them fails. The exit code is non-zero when a check
fails, and no result is printed when the program is not there.

``--tiny`` runs each workload at a small size (self-test only; the report
reference is not checked then), and ``--alter-report`` damages the first
report so the self-test can see the gate fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".perfbench_work")
# set up at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S
# seconds: on a shared 2-vCPU host the CPU's speed swings by a fifth from
# one second to the next, so setup_s, their median, needs several seconds of
# set-up behind it
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 6.0
RUN_LIMIT_S = 170.0
# numpy's BLAS and OpenMP pools each default to one thread per core; unpinned,
# CPU time is twice the wall time at workers=1 and runs spread by a third
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# printed with the end-to-end metrics but not in the result line:
# case_fail_ratio reads 0, so the result carries 1 - it (case_ok_ratio), and
# speedup.wN (the workers=N rate over the workers=1 rate) says whether
# the extra clients help but not whether the program got faster
REPORTED_ONLY = {"speedup.wN": "ratio", "case_fail_ratio": "ratio"}


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": " ".join(f"{k}={v}" for k, v in THREAD_PINS.items()),
    }


def metric_units(section: str) -> Dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json lists."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(result: dict, setup_times) -> dict:
    """End-to-end metrics (and the REPORTED_ONLY ones) of a timed run."""
    campaigns = result["campaigns"]

    def rate(mode: str) -> float:
        # all the mode's cases over all its wall time: a run holds only a few
        # calls of each mode, and a median of three would use one of them
        calls = [c for c in campaigns if c["mode"] == mode]
        return sum(c["generated"] for c in calls) / sum(c["wall_s"] for c in calls)

    generated = sum(c["generated"] for c in campaigns)
    fail_ratio = sum(c["failed"] or c["unanswered"] for c in campaigns) / generated
    return {
        "setup_s": statistics.median(setup_times),
        "cases_per_s.w1": rate("w1"),
        "cases_per_s.wN": rate("wN"),
        "peak_rss_mb": result["peak_rss_mb"],
        "case_ok_ratio": 1.0 - fail_ratio,
        "speedup.wN": rate("wN") / rate("w1"),
        "case_fail_ratio": fail_ratio,
    }


def describe(args, info: dict, result: dict, metrics: dict, units: dict, setup_times) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("perfbench: machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"perfbench: set-up x{len(setup_times)}: " + " ".join(f"{t:.3f}s" for t in setup_times))
    for c in result["campaigns"]:
        status = "FAILED " + "; ".join(c["problems"]) if c["problems"] else "ok"
        print(
            f"perfbench: campaign {c['mode']} workers={c['workers']} wall={c['wall_s']:.3f}s "
            f"cases={c['generated']} unanswered={c['unanswered']} {status}"
        )
    if args.trace:
        m = metrics
        print(
            f"perfbench: traced workers=1 campaign: wall {m['campaign.wall_ms']:.1f} ms = "
            f"layer self times {m['trace.self_sum_ms']:.1f} ms + campaign's own code "
            f"{m['campaign.self_ms']:.1f} ms; tracing overhead ratio "
            f"{m['trace.overhead_ratio']:.3f} (median traced/untraced wall of 3 adjacent pairs)"
        )
        print(
            f"perfbench: spotter.dtw.self_ms {m['spotter.dtw.self_ms']:.1f} ms is "
            f"{m['spotter.dtw.share_pct']:.1f}% of the {m['campaign.wall_ms']:.1f} ms traced wall; "
            f"latency tails at p{m['spotter.moderate.tail_pct']:g} of "
            f"{m['spotter.moderate.samples']} spotter and p{m['http.moderate.tail_pct']:g} of "
            f"{m['http.moderate.samples']} http queries"
        )
        for name in sorted(m):
            print(f"perfbench:   {name} = {m[name]:.6g} {units[name]}")
    else:
        for name, value in metrics.items():
            unit = units.get(name) or REPORTED_ONLY[name]
            print(f"perfbench:   {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--alter-report", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # on SIGTERM, unwind so that the measuring process and server are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "audiomorph" / "__init__.py").is_file():
        return fail("run from the root of an audiomorph checkout: src/audiomorph is missing")
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    os.environ.update(THREAD_PINS)  # before numpy is imported, here and in children
    src = str(SRC.resolve())
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    info = machine()
    print(f"perfbench: BLAS/OpenMP threads pinned: {info['blas_threads']}")

    work = (WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}").resolve()
    if args.trace:
        min_repeats, min_s = 1, 0.0
    else:
        min_repeats, min_s = (2, 0.0) if args.tiny else (SETUP_MIN_REPEATS, SETUP_MIN_S)
    setups, setup_times = [], []
    try:
        while len(setups) < min_repeats or sum(setup_times) < min_s:
            t0 = time.perf_counter()
            root = work / f"setup{len(setups)}"
            setups.append(workloads.setup(args.workload, root, args.seed, args.tiny))
            setup_times.append(time.perf_counter() - t0)
            if len(setups) > 1:
                setups[-2].stop()
        spec = {
            "mode": "trace" if args.trace else "timed",
            "workload": args.workload,
            "seed": args.seed,
            "tiny": args.tiny,
            "seconds": args.seconds,
            "workers_n": info["nproc"],
            "alter_report": args.alter_report,
            "setup": setups[-1].spec,
            "work": str(work / "campaigns"),
            "trace_file": str((WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl").resolve()),
        }
        spec_path, result_path = work / "spec.json", work / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            child = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                stdout=sys.stderr,
                timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
            )
        except subprocess.TimeoutExpired:
            return fail(f"the run did not finish within {RUN_LIMIT_S:.0f} s", 1)
        if child.returncode != 0:
            return fail(f"the measuring process failed (exit {child.returncode})", 1)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        for s in setups:
            s.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = dict(result["metrics"])
        timings = setups[-1].timings
        metrics["deskcorpus.build_s"] = timings["deskcorpus.build_s"]
        metrics["spotter.load_templates_ms"] = timings.get("spotter.load_templates_ms", 0.0)
        units = metric_units("per_layer")
        extra = {}
    else:
        metrics = end_to_end(result, setup_times)
        units = metric_units("end_to_end")
        extra = REPORTED_ONLY
    if set(metrics) != set(units) | set(extra):
        return fail(
            "the metrics measured differ from those BENCHMARK.json lists: "
            f"{sorted(set(metrics) ^ (set(units) | set(extra)))}"
        )
    describe(args, info, result, metrics, units, setup_times)
    campaigns = result["campaigns"]
    failed = sum(c["failed"] for c in campaigns)
    correct = not any(c["problems"] for c in campaigns)
    line = {
        "correct": correct,
        "attempted": sum(c["generated"] for c in campaigns),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
