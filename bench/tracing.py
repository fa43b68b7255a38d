"""Span tracing of reshadow layers from outside the package.

A ``Tracer`` replaces public functions at their module attribute with a
wrapper that records one span per call: (name, start, end, parent, count,
tag). Calls between modules of the package go through module attributes
(``estimator.run_campaign``, ``qcore.spectral_norm``, ...), so nested calls
are traced as child spans. Spans stay in memory and are written once, at the
end of the run; ``restore`` puts the original functions back.

Per-layer metrics are normalised to one cycle of the workload's job list:
each job is traced on alternate cycles, and a job's spans are divided by the
number of its traced runs. ``phases.two_qubit_cliffords`` is filled once per
process, so it is read from the warm-up cycle instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time


def _shots(args, kwargs, result):
    return kwargs["shots"] if "shots" in kwargs else args[2]


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _stacked_elements(args, kwargs, result):
    return result[0].size


def _target_count(args, kwargs, result):
    return len(kwargs.get("targets", args[2] if len(args) > 2 else ()))


# (module, function, what the span's count holds); cli.main is named after
# the subcommand it runs
LAYERS = (
    ("phases", "patch_rdms", None),
    ("phases", "patch_features", None),
    ("phases", "random_lowdepth_circuit", None),
    ("phases", "psd_project", None),
    ("phases", "two_qubit_cliffords", None),
    ("estimator", "run_campaign", _shots),
    ("estimator", "records_to_csv", _text_bytes),
    ("estimator", "records_from_csv", None),
    ("estimator", "estimate", None),
    ("estimator", "stacked_system", _stacked_elements),
    ("estimator", "kernel_least_squares", None),
    ("estimator", "representability_residual", None),
    ("estimator", "var_max_bound", None),
    ("estimator", "kernel_q", None),
    ("estimator", "reconstruct", None),
    ("estimator", "kernel_cs", None),
    ("ensembles", "subsample_su2", _target_count),
    ("biasvar", "ridge_bias", None),
    ("biasvar", "alpha_scan", None),
    ("visible", "family_coefficients", None),
    ("visible", "visible_from_family_coefficients", None),
    ("visible", "project_visible", None),
    ("channels", "inverse_msu2", None),
    ("channels", "apply_msu2", None),
    ("qcore", "pauli_decompose", None),
    ("qcore", "pauli_recompose", None),
    ("qcore", "spectral_norm", None),
    ("lgt", "energy_budget_comparison", None),
    ("adaptive", "reweight", None),
    ("cli", "main", None),
)

SETUP_LAYERS = ("phases.two_qubit_cliffords",)

# Printed with --trace 1, in this order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("phases.patch_rdms.self_s", "s"),
    ("phases.patch_features.self_s", "s"),
    ("phases.random_lowdepth_circuit.self_s", "s"),
    ("phases.psd_project.self_s", "s"),
    ("phases.two_qubit_cliffords.s", "s"),
    ("estimator.run_campaign.self_s", "s"),
    ("estimator.run_campaign.calls", "count"),
    ("estimator.run_campaign.shots", "count"),
    ("estimator.run_campaign.shots_per_s", "1/s"),
    ("estimator.records_to_csv.self_s", "s"),
    ("estimator.records_to_csv.bytes", "bytes"),
    ("estimator.records_from_csv.self_s", "s"),
    ("estimator.estimate.self_s", "s"),
    ("estimator.stacked_system.self_s", "s"),
    ("estimator.stacked_system.elements", "count"),
    ("estimator.kernel_least_squares.self_s", "s"),
    ("estimator.representability_residual.calls", "count"),
    ("ensembles.subsample_su2.self_s", "s"),
    ("ensembles.subsample_su2.draws_per_accept", "count"),
    ("biasvar.ridge_bias.self_s", "s"),
    ("biasvar.ridge_bias.calls", "count"),
    ("biasvar.alpha_scan.self_s", "s"),
    ("estimator.var_max_bound.self_s", "s"),
    ("estimator.kernel_q.self_s", "s"),
    ("estimator.reconstruct.self_s", "s"),
    ("estimator.kernel_cs.self_s", "s"),
    ("visible.family_coefficients.self_s", "s"),
    ("visible.visible_from_family_coefficients.self_s", "s"),
    ("visible.project_visible.self_s", "s"),
    ("channels.inverse_msu2.self_s", "s"),
    ("channels.apply_msu2.self_s", "s"),
    ("qcore.pauli_decompose.self_s", "s"),
    ("qcore.pauli_recompose.self_s", "s"),
    ("qcore.spectral_norm.self_s", "s"),
    ("qcore.spectral_norm.calls", "count"),
    ("lgt.energy_budget_comparison.self_s", "s"),
    ("adaptive.reweight.self_s", "s"),
    ("cli.channel-check.s", "s"),
    ("cli.estimate.s", "s"),
    ("cli.bias-scan.s", "s"),
    ("cli.lgt-energy.s", "s"),
    ("trace.overhead", "share"),
    ("trace.coverage", "share"),
)

NAME, START, END, PARENT, COUNT, TAG = range(6)


class Tracer:
    """In-memory span recorder; records only while ``on`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.on = False
        self.tag = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, count in LAYERS:
            module = importlib.import_module(f"reshadow.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", original, count))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, count):
        by_subcommand = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            label = f"cli.{args[0][0]}" if by_subcommand else name
            parent = self._stack[-1] if self._stack else -1
            span = [label, 0.0, 0.0, parent, 0, self.tag]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "count": s[COUNT], "job": s[TAG]}) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans, job_times: dict, setup_tag: str) -> dict:
    """Per-layer values for one cycle of the job list.

    ``job_times[j]`` is the pair (traced, untraced) of job j's wall times;
    spans of other jobs are left out.
    """
    traced_runs = {j: len(t) for j, (t, _) in job_times.items()}
    traced_runs[setup_tag] = 1
    selfs = self_times(spans)
    totals: dict = {}
    for s, own in zip(spans, selfs):
        if s[TAG] not in traced_runs or (s[TAG] == setup_tag
                                         and s[NAME] not in SETUP_LAYERS):
            continue
        weight = 1.0 / traced_runs[s[TAG]]
        t = totals.setdefault(s[NAME], {"self_s": 0.0, "s": 0.0, "calls": 0.0,
                                        "count": 0.0})
        t["self_s"] += weight * own
        t["s"] += weight * (s[END] - s[START])
        t["calls"] += weight
        t["count"] += weight * s[COUNT]

    checks = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0 and s[NAME] == "estimator.representability_residual":
            checks[s[PARENT]] += 1
    # each Haar draw is checked once per target; no targets means one draw
    draws = [checks[i] / s[COUNT] if s[COUNT] else 1.0
             for i, s in enumerate(spans)
             if s[NAME] == "ensembles.subsample_su2" and s[TAG] in job_times]

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    out = {}
    for name, _ in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if stat in ("self_s", "s", "calls"):
            out[name] = get(layer, stat)
        elif stat in ("shots", "bytes", "elements"):
            out[name] = get(layer, "count")
        elif stat == "shots_per_s":
            busy = get(layer, "s")
            out[name] = get(layer, "count") / busy if busy else 0.0
        elif stat == "draws_per_accept":
            out[name] = statistics.mean(draws) if draws else 0.0

    traced = sum(statistics.median(t) for t, _ in job_times.values())
    untraced = sum(statistics.median(u) for _, u in job_times.values())
    top_level = sum((s[END] - s[START]) / traced_runs[s[TAG]] for s in spans
                    if s[PARENT] < 0 and s[TAG] in job_times)
    out["trace.overhead"] = traced / untraced - 1.0
    out["trace.coverage"] = top_level / sum(
        statistics.mean(t) for t, _ in job_times.values())
    return out
