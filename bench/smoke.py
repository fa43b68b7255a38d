"""The benchmark's own test: every workload at a tiny size, in about a minute.

    python3 bench/smoke.py

Runs each workload with --smoke, untraced and traced, and checks the result
line against BENCHMARK.json: the keys, every metric with its unit, finite
values, no failed job, positive end-to-end values, and each per-layer metric
non-zero on at least one workload. It also checks that the benchmark refuses
to run, without a result line, in a directory that holds only BENCHMARK.json
and the benchmark's own files. It is kept apart from the package's tests.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done, expected: dict, problems: list, label: str) -> dict:
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
        return {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    got = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    if {k: u for k, (_, u) in got.items()} != expected:
        problems.append(f"{label}: metrics differ from BENCHMARK.json")
    for name, (value, _) in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    return {k: v for k, (v, _) in got.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems, touched = [], set()
    for w in (w["name"] for w in spec["workloads"]):
        values = check_result(run(ROOT, w, 0), end_to_end, problems, f"{w} trace 0")
        problems += [f"{w}: {k} = {v}" for k, v in values.items() if not v > 0]
        values = check_result(run(ROOT, w, 1), per_layer, problems, f"{w} trace 1")
        touched |= {k for k, v in values.items() if v != 0}
        print(f"{w}: ok" if not problems else f"{w}: {problems}", flush=True)
    problems += [f"{name} is zero on every workload"
                 for name in sorted(set(per_layer) - touched)]

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.*"):
        shutil.copy(f, bare / "bench")
    done = run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("the benchmark ran without the package sources")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
