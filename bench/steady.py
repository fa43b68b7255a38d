"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py --runs 5 --seed 100

For each workload, runs ``bench/run.py`` 2 x --runs times, each with its own
seed, alternating which set runs first in each pair (A B, B A, ...). For every
end-to-end metric it prints each set's median and quartiles, the spread of all
runs (interquartile range over median) and how far set B's median is worse
than set A's, both against the metric's bound in BENCHMARK.json. Every run
must be correct, with no failed job. A JSON copy of the report goes to
``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    p.add_argument("--seed", type=int, default=100, help="first seed")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, all_ok = {}, True
    seed = args.seed
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name in ("AB" if i % 2 == 0 else "BA"):
                sets[name].append(run_once(workload, seed, spec["run_seconds"]))
                seed += 1
        print(f"\n{workload}: {args.runs} runs per set, {spec['run_seconds']} s each")
        print(f"{'metric':14s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}"
              f" {'spread':>7s} {'B worse':>8s} {'bound':>6s}")
        report[workload] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = {k: [r["metrics"][name]["value"] for r in v] for k, v in sets.items()}
            a, b = spread(vals["A"]), spread(vals["B"])
            pooled = spread(vals["A"] + vals["B"])[3]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b[0] - a[0]) / a[0]
            ok = worse <= bound and pooled <= bound
            all_ok &= ok
            print(f"{name:14s} {a[0]:12.4f} [{a[1]:.4f}, {a[2]:.4f}] "
                  f"{b[0]:12.4f} [{b[1]:.4f}, {b[2]:.4f}] {pooled:7.3f} "
                  f"{worse:+8.3f} {bound:6.3f}{'' if ok else '  OVER'}", flush=True)
            report[workload][name] = {"A": vals["A"], "B": vals["B"],
                                      "spread": pooled, "b_worse": worse,
                                      "bound": bound, "ok": ok}
        runs = sets["A"] + sets["B"]
        failed = sum(r["failed"] for r in runs)
        clean = failed == 0 and all(r["correct"] for r in runs)
        all_ok &= clean
        print(f"jobs attempted {sum(r['attempted'] for r in runs)}, failed {failed}"
              f"{'' if clean else '  NOT CORRECT'}")
        report[workload]["failed"] = failed
    out = BENCH / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n{'all within bounds' if all_ok else 'SOME METRIC OVER ITS BOUND'}; "
          f"report in {out.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
