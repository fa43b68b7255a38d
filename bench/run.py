"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload phase --seed 1 --seconds 20 --trace 0

The run imports reshadow from ``src/`` of the checkout it sits in, builds the
workload's job list from ``--seed``, runs one untimed warm-up cycle that
fills the package's lazy caches, and then cycles the job list, one job at a
time on one thread, until ``--seconds`` have passed; the last cycle is
always completed. Every job's output is checked (see workloads.py).

With ``--trace 0`` it prints the end-to-end metrics: jobs_per_s, setup_s
(the median of this process's set-up and two more in fresh processes) and
peak_rss_mb. With ``--trace 1`` it wraps the package's layers (tracing.py),
traces each job on alternate cycles, writes the spans to
``bench/out/trace-<workload>-<seed>.jsonl`` and prints the per-layer metrics.
``--smoke`` runs the same jobs at a tiny size.
"""

from __future__ import annotations

import os

# One program thread: BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("phase", "records", "kernels")
SETUP_TAG = "setup"
# One set-up alone spreads 0.35 on kernels (about 2 s, see README.md), so
# setup_s is the median of this many, all but the first in fresh processes.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny job sizes, for the benchmark's own test")
    p.add_argument("--setup-only", action="store_true",
                   help="run the set-up alone and print setup_s")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import reshadow from this checkout, never from anywhere else."""
    if not (SRC / "reshadow" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no reshadow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reshadow

    if pathlib.Path(reshadow.__file__).resolve().parent != SRC / "reshadow":
        raise SystemExit(f"run.py: imported reshadow from {reshadow.__file__}")


def attempt(job, tracer=None, tag=None):
    """Run one job; return (output or None, seconds, error text or None).

    A job that raises is counted as failed and the run goes on.
    """
    if tracer is not None:
        tracer.tag, tracer.on = tag, True
    start = time.perf_counter()
    try:
        out = job.run()
        error = None
    except Exception:
        out, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
    return out, elapsed, error


def child_setup(args) -> float:
    """Set-up time of a fresh process running the same warm-up cycle."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_package()
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        warm = [attempt(job, tracer, SETUP_TAG) for job in jobs]
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, jobs, warm, tracer)
        if tracer is not None:
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result.pop("metrics")
    if tracer is None:
        setups = [setup_s] + [child_setup(args) for _ in range(SETUP_RUNS - 1)]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


def measure(args, jobs, warm, tracer) -> dict:
    """Cycle the job list for --seconds; return counts, checks and metrics."""
    fingerprints, consistent = {}, True
    for j, (out, _, error) in enumerate(warm):
        if error is None:
            fingerprints[j] = jobs[j].fingerprint(out)

    # (traced, untraced) wall times per job, of the jobs that passed
    times = {j: ([], []) for j in range(len(jobs))}
    attempted = failed = cycle = 0
    busy_s = 0.0  # wall time of every untraced job, failed ones included
    min_cycles = 2 if tracer is not None else 1
    start = time.perf_counter()
    while cycle < min_cycles or time.perf_counter() - start < args.seconds:
        for j, job in enumerate(jobs):
            traced = tracer is not None and (cycle + j) % 2 == 0
            out, elapsed, error = attempt(job, tracer if traced else None, j)
            attempted += 1
            if not traced:
                busy_s += elapsed
            try:
                problems = [error] if error else job.check(out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            if problems:
                failed += 1
                print(f"{job.name} cycle {cycle}: " + "; ".join(problems),
                      file=sys.stderr)
                continue
            times[j][0 if traced else 1].append(elapsed)
            fp = job.fingerprint(out)
            if fingerprints.setdefault(j, fp) != fp:
                consistent = False
                print(f"{job.name} cycle {cycle}: output differs from the "
                      "previous run of the same job", file=sys.stderr)
        cycle += 1

    if tracer is None:
        completed = sum(len(t[1]) for t in times.values())
        metrics = {"jobs_per_s": (completed / busy_s, "1/s")}
    else:
        complete = {j: t for j, t in times.items() if t[0] and t[1]}
        values = tracing.layer_metrics(tracer.spans, complete, SETUP_TAG)
        metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
    print(f"{args.workload}: {cycle} cycles, {attempted} jobs attempted, "
          f"{failed} failed", file=sys.stderr)
    return {"correct": consistent and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
