"""Job lists and output checks of the three benchmark workloads.

Each workload is a fixed list of jobs built from the workload seed; the
benchmark cycles the list, one job at a time. ``Job.run`` holds only calls
into reshadow and is the timed part. ``Job.check`` tests the output against
values computed here, apart from the package, or against properties the
method must have; it returns a list of problems (empty when the job passed).
``Job.fingerprint`` is compared across cycles: the same job with the same
seed must give the same bytes every time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reshadow import cli, ensembles, estimator, phases, qcore, visible

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SIGMAS = 6.0  # shot-noise checks fail at six standard errors
ROOT = pathlib.Path(__file__).resolve().parents[1]


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], bytes]


# ---------------------------------------------------------------------------
# Reference quantities built from Pauli matrices, independent of reshadow
# ---------------------------------------------------------------------------


def pauli_word(word: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in word:
        out = np.kron(out, PAULI[ch])
    return out


def pauli_sum(terms: dict) -> np.ndarray:
    return sum(c * pauli_word(w) for w, c in terms.items())


def op_norm(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(0.5 * (a + a.conj().T))).max())


def ghz(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def family_operator(n: int, r_mask: int, counts: tuple) -> np.ndarray:
    """B_S: the normalised sum of Pauli words with identity exactly on
    ``r_mask`` (site 0 = most significant bit) and letter counts (X, Y, Z)."""
    total, size = 0, 0
    for word in itertools.product("IXYZ", repeat=n):
        ident = sum(1 << (n - 1 - i) for i, ch in enumerate(word) if ch == "I")
        if ident == r_mask and tuple(word.count(c) for c in "XYZ") == counts:
            total = total + pauli_word("".join(word))
            size += 1
    return total / np.sqrt((1 << n) * size)


def reduced_state(psi: np.ndarray, keep: tuple) -> np.ndarray:
    n = int(np.log2(psi.size))
    t = psi.reshape((2,) * n)
    rest = [q for q in range(n) if q not in keep]
    t = np.transpose(t, list(keep) + rest).reshape(1 << len(keep), -1)
    return t @ t.conj().T


def euler_rotation(theta: float, phi: float, psi: float) -> np.ndarray:
    """e^{i Z phi/2} e^{i Y theta/2} e^{i Z psi/2}, as the ensembles define it."""
    rz = lambda a: np.diag([np.exp(1j * a / 2), np.exp(-1j * a / 2)])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return rz(phi) @ np.array([[c, s], [-s, c]]) @ rz(psi)


def discrete_reconstruction(k) -> np.ndarray:
    """sum_j p_j sum_b K(j, b) V_j^dag |b><b| V_j from the members' angles."""
    n = k.ens.n
    out = 0
    for j, m in enumerate(k.ens.members):
        v = np.array([[1.0 + 0j]])
        for _ in range(n):
            v = np.kron(v, euler_rotation(m.theta, m.phi, m.psi))
        out = out + k.ens.weights[j] * (v.conj().T * k.values[j]) @ v
    return out


def digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.digest()


def quiet_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def child_seeds(seed: int, stream: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(count)]


# ---------------------------------------------------------------------------
# phase: run_phase_classification at the acceptance-8 shape, depth 0, 1, 2
# ---------------------------------------------------------------------------


PHASE_SIZE = {"states_per_phase": 3, "n_rp": 2500, "n_su2": 400}
PHASE_SMOKE = {"states_per_phase": 2, "n_rp": 1000, "n_su2": 200}


def phase_jobs(seed: int, workdir: pathlib.Path, smoke: bool) -> list:
    size = PHASE_SMOKE if smoke else PHASE_SIZE
    seeds = child_seeds(seed, 0, 3)

    @functools.cache
    def reference():
        """Exact tr(rho_patch B_S) per class, and the shot-noise scale."""
        lat = phases.EdgeLattice(2)
        sets = visible.enumerate_sets(3)
        b_ops = [family_operator(3, s.r_mask, s.counts) for s in sets]
        exact = {}
        for label, psi in ((phases.TRIVIAL, phases.product_state(2)),
                           (phases.TORIC, phases.toric_ground(2))):
            rdms = [reduced_state(psi, p) for p in lat.patches()]
            exact[label] = np.array([[np.trace(r @ b).real for b in b_ops]
                                     for r in rdms])
        # One SU(2) shot reads B_S through M^-1(B_S), so |K| <= ||M^-1(B_S)||;
        # one random-Pauli shot of a weight-w word adds variance <= 3^w / 8.
        k_max = np.array([op_norm(op) for op in phases._patch_inverse_ops(3)])
        weight = np.array([3 - bin(s.r_mask).count("1") for s in sets])
        sigma = np.sqrt((k_max**2 / size["n_su2"] + 3.0**weight / 8 / size["n_rp"])
                        / size["states_per_phase"])
        return exact, sigma

    def make(depth, job_seed):
        def run():
            return phases.run_phase_classification(
                L=2, depth=depth, rng=np.random.default_rng(job_seed), **size)

        def check(res):
            problems = []
            k = res.kernel.matrix
            if not np.allclose(k, k.T, rtol=0, atol=1e-12):
                problems.append("kernel matrix is not symmetric")
            if not np.array_equal(np.diag(k), np.ones(len(k))):
                problems.append("kernel diagonal is not 1")
            if depth == 0:
                margin = phases.separation_margin(res.coords, res.labels)
                if not margin > 0:
                    problems.append(f"depth-0 margin {margin:.4f} <= 0")
                labels = np.array(res.labels)
                exact, sigma = reference()
                for label, ref in exact.items():
                    mean = res.features[labels == label].mean(axis=0)
                    z = np.abs(mean - ref) / sigma
                    if z.max() > SIGMAS:
                        problems.append(f"{label} features off by {z.max():.1f} sigma")
            return problems

        return Job(f"phase-d{depth}", run, check,
                   lambda res: digest(res.features, res.coords))

    return [make(d, s) for d, s in zip((0, 1, 2), seeds)]


# ---------------------------------------------------------------------------
# records: CLI estimate with a CSV read-back, and a 10-qubit local campaign
# ---------------------------------------------------------------------------


ESTIMATE_SHOTS, ESTIMATE_SMOKE = 50_000, 2_000
LOCAL_N, LOCAL_SHOTS, LOCAL_SMOKE = 10, 2_000, 200

# the lgt link term at g = alpha = 1, which configs name "link"
LINK = {"ZZ": 1 / 3, "XX": 1 / 12, "YY": 1 / 12}

# (name, config lines, operator as Pauli terms, state vector)
ESTIMATES = (
    ("link", "observable = link\nensemble = subsample_su2\nmembers = 25\nstate = ghz\n",
     LINK, ghz(2)),
    ("triangle", "observable = triangle\nensemble = global_su2\nstate = ghz\n",
     {"XXX": -1 / 24, "YYX": 1 / 24, "YXY": 1 / 24, "XYY": 1 / 24}, ghz(3)),
    ("cl2", "observable = XXX+0.5*ZZZ\nensemble = global_cl2\nstate = zero\n",
     {"XXX": 1.0, "ZZZ": 0.5}, np.eye(8)[0].astype(complex)),
)


def records_jobs(seed: int, workdir: pathlib.Path, smoke: bool) -> list:
    shots = ESTIMATE_SMOKE if smoke else ESTIMATE_SHOTS
    seeds = child_seeds(seed, 1, 2 * len(ESTIMATES) + 1)
    jobs = []
    for i, (name, lines, terms, psi) in enumerate(ESTIMATES):
        out = workdir / f"estimate-{name}"
        cfg = workdir / f"estimate-{name}.cfg"
        cfg.write_text(lines + f"ensemble_seed = {seeds[2 * i]}\n"
                       f"shots = {shots}\nmethod = mean\n")
        argv = ["estimate", "--config", str(cfg), "--seed", str(seeds[2 * i + 1]),
                "--out", str(out)]
        jobs.append(_estimate_job(name, argv, cfg, out, terms, psi, shots))
    jobs.append(_local_job(seeds[-1], LOCAL_SMOKE if smoke else LOCAL_SHOTS))
    return jobs


def _estimate_job(name, argv, cfg_path, out, terms, psi, shots):
    exact = float(np.real(psi.conj() @ pauli_sum(terms) @ psi))

    def run():
        rc = quiet_cli(argv)
        text = (out / "records.csv").read_text()
        records, meta = estimator.records_from_csv(text)
        return rc, records, meta

    def check(result):
        rc, records, meta = result
        if rc != 0:
            return [f"estimate exited {rc}"]
        summary = json.loads((out / "estimate.json").read_text())
        problems = []
        if len(records) != shots or records.kind != summary["ensemble"]:
            problems.append("read-back records do not match the campaign")
        if meta.get("config_hash") != summary["config_hash"]:
            problems.append("record metadata lost in the round trip")
        cfg = cli.coerce_config(cli.parse_config_text(cfg_path.read_text()),
                                cli.SCHEMAS["estimate"], "estimate")
        obs = cli.build_observable(cfg["observable"], cfg["g"], cfg["alpha"])
        ens = cli.build_ensemble(cfg["ensemble"], qcore.num_qubits(obs),
                                 cfg["members"], cfg["ensemble_seed"],
                                 targets=(obs,))
        kernel = cli.solve_kernel(obs, ens)
        again = estimator.estimate(records, kernel, method="mean")
        if again != summary["estimate"]:
            problems.append(f"re-estimate {again!r} != {summary['estimate']!r}")
        values = kernel.evaluate_records(records)
        se = values.std() / np.sqrt(values.size)
        if abs(summary["estimate"] - exact) > SIGMAS * se:
            problems.append(f"estimate {summary['estimate']:.5f} vs exact "
                            f"{exact:.5f} (se {se:.5f})")
        return problems

    def fingerprint(result):
        return digest((out / "records.csv").read_bytes(),
                      (out / "estimate.json").read_bytes())

    return Job(f"estimate-{name}", run, check, fingerprint)


def _local_job(job_seed: int, shots: int) -> Job:
    zero = np.zeros(1 << LOCAL_N, dtype=complex)
    zero[0] = 1.0
    meta = {"seed": job_seed}

    def run():
        records = estimator.run_campaign(zero, ensembles.local_clifford(LOCAL_N),
                                         shots, np.random.default_rng(job_seed))
        text = estimator.records_to_csv(records, meta)
        back, _ = estimator.records_from_csv(text)
        return records, text, back

    def check(result):
        records, text, back = result
        problems = []
        if (back.kind, back.n, back.campaign_id) != (records.kind, records.n,
                                                     records.campaign_id):
            problems.append("record header changed in the round trip")
        if not np.array_equal(back.b, records.b) or back.words != records.words:
            problems.append("read-back records differ from the written ones")
        if estimator.records_to_csv(back, meta) != text:
            problems.append("rewriting the read-back records changes the CSV")
        letters = np.array([list(w) for w in records.words])
        bits = (records.b[:, None] >> np.arange(LOCAL_N - 1, -1, -1)) & 1
        if bits[letters == "Z"].any():
            problems.append("a Z-basis site of |0...0> read 1")
        xy = bits[letters != "Z"]
        if abs(xy.mean() - 0.5) > SIGMAS * 0.5 / np.sqrt(xy.size):
            problems.append(f"X/Y sites read 1 at rate {xy.mean():.4f}")
        return problems

    return Job("local-campaign", run, check,
               lambda result: digest(result[1].encode()))


# ---------------------------------------------------------------------------
# kernels: CLI bias scans, lgt budgets, channel check, an n=6 SU(2) kernel
# ---------------------------------------------------------------------------


KERNEL_N, KERNEL_SMOKE_N = 6, 3


def _csv_rows(path: pathlib.Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def kernels_jobs(seed: int, workdir: pathlib.Path, smoke: bool) -> list:
    configs = ROOT / "configs"
    seeds = child_seeds(seed, 2, 5)
    alpha_cfg = workdir / "bias_scan_alpha.cfg"
    alpha_cfg.write_text((configs / "bias_scan_lambda.cfg").read_text()
                         .replace("mode = lambda", "mode = alpha"))
    channel_cfg = configs / "channel_check.cfg"
    if smoke:
        channel_cfg = workdir / "channel_check.cfg"
        channel_cfg.write_text("n = 2\nmc_samples = 5000\n")
    link_norm = op_norm(pauli_sum(LINK))

    def cli_job(name, argv, artifact, check_rows):
        out = workdir / name
        argv = argv + ["--out", str(out)]

        def check(rc):
            if rc != 0:
                return [f"{argv[0]} exited {rc}"]
            return check_rows(_csv_rows(out / artifact))

        return Job(name, lambda: quiet_cli(argv), check,
                   lambda rc: digest((out / artifact).read_bytes()))

    def scan_rows(rows, need_bowl):
        bias = np.array([float(r["bias"]) for r in rows])
        bound = np.array([float(r["error_bound"]) for r in rows])
        problems = []
        if not (np.isfinite(bound).all() and (bias >= 0).all()
                and (bound >= bias).all()):
            problems.append("error bounds are not finite and >= bias >= 0")
        if need_bowl:
            if float(rows[0]["lambda_or_alpha"]) != 0.0 or bias[0] > 1e-8 * link_norm:
                problems.append(f"lambda=0 bias {bias[0]:.3e} is not ~0")
            best = int(np.argmin(bound))
            if not 0 < best < len(rows) - 1:
                problems.append(f"bowl minimum at grid end (row {best})")
        return problems

    def lgt_rows(rows):
        problems = []
        for n in sorted({r["n_qubits"] for r in rows}):
            shots = {r["strategy"]: int(r["N_shots"]) for r in rows
                     if r["n_qubits"] == n}
            if not (shots["bias+adapt"] <= shots["bias-only"] <= shots["plain-CS"]
                    and shots["bias+adapt"] <= shots["adapt-only"] <= shots["plain-CS"]):
                problems.append(f"strategy ordering broken at n={n}: {shots}")
        return problems

    def channel_rows(rows):
        return [f"channel check {r['check']} failed" for r in rows
                if r["pass"] != "True"]

    jobs = [
        cli_job("bias-scan-lambda",
                ["bias-scan", "--config", str(configs / "bias_scan_lambda.cfg"),
                 "--seed", str(seeds[0])], "bias_scan.csv",
                lambda rows: scan_rows(rows, True)),
        cli_job("bias-scan-alpha",
                ["bias-scan", "--config", str(alpha_cfg), "--seed", str(seeds[1])],
                "bias_scan.csv", lambda rows: scan_rows(rows, False)),
        cli_job("lgt-energy",
                ["lgt-energy", "--config", str(configs / "lgt_budget.cfg"),
                 "--seed", str(seeds[2])], "lgt_budget.csv", lgt_rows),
        cli_job("channel-check",
                ["channel-check", "--config", str(channel_cfg),
                 "--seed", str(seeds[3])], "channel_check.csv", channel_rows),
        _library_kernel_job(KERNEL_SMOKE_N if smoke else KERNEL_N, seeds[4]),
    ]
    return jobs


def _library_kernel_job(n: int, job_seed: int) -> Job:
    rng = np.random.default_rng(job_seed)
    g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    hermitian = 0.5 * (g + g.conj().T)
    probe = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    probe /= np.linalg.norm(probe)
    link = pauli_sum(LINK)

    def run():
        o = visible.project_visible(hermitian)
        k = estimator.kernel_cs(o, ensembles.global_su2(n))
        var_max = estimator.var_max_bound(k)
        q = estimator.kernel_q(k, "theorem")
        recon = estimator.reconstruct(k)
        ens = ensembles.subsample_su2(6, np.random.default_rng(job_seed),
                                      targets=(link,))
        discrete = estimator.kernel_least_squares(link, ens)
        return o, k, var_max, q, recon, discrete

    def check(result):
        o, k, var_max, q, recon, discrete = result
        problems = []
        scale = op_norm(o)
        if op_norm(recon - o) > 1e-8 * scale:
            problems.append(f"SU(2) reconstruction off by {op_norm(recon - o):.2e}")
        var_state = estimator.var_under_state(k, probe)
        if var_max < var_state * (1 - 1e-12):
            problems.append(f"var_max_bound {var_max} < var_under_state {var_state}")
        if q < scale * (1 - 1e-9):
            problems.append(f"Q {q} below ||O|| {scale}")
        err = op_norm(discrete_reconstruction(discrete) - link)
        if err > 1e-8 * op_norm(link):
            problems.append(f"discrete reconstruction off by {err:.2e}")
        return problems

    return Job(f"su2-kernel-n{n}", run, check,
               lambda r: digest(r[0], np.array([r[2], r[3]]), r[4], r[5].values))


WORKLOADS = {"phase": phase_jobs, "records": records_jobs, "kernels": kernels_jobs}
