"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a tiny run with --trace 0 and
with --trace 1 and checks that the emitted metric names and units equal
those BENCHMARK.json lists. It then alters a report before the correctness
gate sees it and checks that the run exits non-zero with ``correct: false``.
Last, it checks that the command exits non-zero without a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BARE = Path(".perfbench_work") / "selftest-bare"


def bench(*args: str, cwd: Path = Path(".")):
    """Run the benchmark command; return (exit code, last-line JSON or None)."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [*spec["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"]
        for trace in (0, 1):
            code, result = bench(*base, "--trace", str(trace))
            expect(code == 0 and result is not None and result["correct"],
                   f"{workload} --trace {trace}: passes its gate")
            got = {n: m["unit"] for n, m in (result or {}).get("metrics", {}).items()}
            expect(got == wanted[trace], f"{workload} --trace {trace}: metric names and units match BENCHMARK.json")
        code, result = bench(*base, "--trace", "0", "--alter-report")
        expect(code != 0 and result is not None and result["correct"] is False and result["failed"] > 0,
               f"{workload}: an altered report fails the gate")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", BARE)
        for path in spec["paths"]:
            shutil.copytree(path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=BARE)
        expect(code != 0 and result is None, "without the program: non-zero exit and no result")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)

    print("self-test " + ("failed: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
