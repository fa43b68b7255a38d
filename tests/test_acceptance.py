"""Acceptance gate: one numbered criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v``; verdict lines are collected
in ``REPORT`` and echoed after the run by a ``pytest_terminal_summary`` hook
in conftest (pytest's fd-level capture would otherwise swallow them on
passing tests). Every criterion also carries a wall-clock budget.
"""

import time

import numpy as np
import pytest
from scipy import stats

from reshadow import (adaptive, biasvar, channels, cli, ensembles, estimator,
                      lgt, phases, qcore, visible)

from conftest import assert_same_text

REPORT: list = []


def _emit(line: str) -> None:
    print(line)
    REPORT.append(line)


class criterion:
    """Times a block and prints `ACCEPTANCE k: PASS/FAIL (t) — detail`."""

    def __init__(self, num: int, budget_s: float):
        self.num = num
        self.budget = budget_s
        self.detail = ""

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        in_budget = elapsed <= self.budget
        ok = exc_type is None and in_budget
        _emit(f"ACCEPTANCE {self.num}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s/{self.budget:.0f}s) — {self.detail}")
        if exc_type is None and not in_budget:
            raise AssertionError(
                f"criterion {self.num} exceeded its time budget: "
                f"{elapsed:.1f}s > {self.budget}s")
        return False


def random_hermitian(n, rng):
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_density(n, rng):
    a = random_hermitian(n, rng) + 2.0 * np.eye(1 << n)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_acceptance_01_visible_dimension_formula():
    with criterion(1, 1.0) as c:
        dims = []
        for n in range(1, 6):
            want = (1 << n) * (n * n + 7 * n + 8) // 8
            got = len(visible.enumerate_sets(n))
            assert got == visible.expected_set_count(n) == want
            dims.append(got)
        assert dims[1] == 13
        c.detail = f"visible dims n=1..5: {dims}"


def test_acceptance_02_invisible_components_vanish():
    with criterion(2, 10.0) as c:
        rng = np.random.default_rng(0)
        worst = 0.0
        for n in (1, 2, 3):
            perp = []
            for s in visible.enumerate_sets(n):
                perp.extend(visible.build_Bperp(s, k)
                            for k in range(1, s.size))
            if not perp:
                continue
            thetas, phis, psis = ensembles.haar_su2_angles(200, rng)
            for t, f, p in zip(thetas, phis, psis):
                u1 = ensembles.su2_matrix(t, f, p)
                u = qcore.kron_all([u1] * n)
                b_perp = perp[rng.integers(len(perp))]
                diag = np.abs(np.diag(u @ b_perp @ u.conj().T))
                worst = max(worst, float(diag.max()))
        assert worst < 1e-10
        c.detail = f"max |<b|V B_perp V'|b>| over 200 draws/qubit count = {worst:.2e}"


def test_acceptance_03_su2_channel_against_monte_carlo():
    with criterion(3, 120.0) as c:
        z = qcore.PauliString.from_word("Z").to_dense()
        dev_z = np.abs(channels.apply_msu2(z) - z / 3.0).max()
        assert dev_z < 1e-12

        rng = np.random.default_rng(1)
        a = random_hermitian(2, rng)
        mc, se = cli._mc_msu2(a, 1_000_000, rng)
        exact = channels.apply_msu2(a)
        ratio = np.abs(exact - mc) / np.maximum(se, 1e-30)
        assert ratio.max() < 5.0
        c.detail = (f"Z eigenvalue dev {dev_z:.1e}; "
                    f"MC max deviation {ratio.max():.2f} sigma at 1e6 samples")


def test_acceptance_04_cl2_channel_closed_form():
    with criterion(4, 10.0) as c:
        for k in range(1, 5):
            xk = qcore.PauliString.from_word("X" * k).to_dense()
            np.testing.assert_array_equal(channels.apply_mcl2(xk) * 3.0, xk)
        norms = [channels.shadow_norm_cl2(
            qcore.PauliString.from_word("X" * k).to_dense())
            for k in range(1, 5)]
        assert all(abs(v - 3.0) < 1e-9 for v in norms)
        c.detail = f"M(X^k) = X^k/3 exact for k<=4; shadow norms {np.round(norms, 12)}"


def test_acceptance_05_shot_budget_guarantee():
    with criterion(5, 600.0) as c:
        link = lgt.link_local(1.0, 1.0)
        ens = ensembles.subsample_su2(6, np.random.default_rng(0),
                                      targets=(link,), n=2)
        k = estimator.kernel_least_squares(link, ens)
        evals, evecs = np.linalg.eigh(link)
        ground = evecs[:, 0]
        truth = float(evals[0])
        epsilon, delta = 0.1, 0.1
        shots = estimator.theorem1_shots(estimator.Budget(
            1, epsilon, delta, (estimator.var_max_bound(k),),
            (estimator.kernel_q(k, "theorem"),)))
        rng = np.random.default_rng(2)
        failures = 0
        campaigns = 500
        for _ in range(campaigns):
            records = estimator.run_campaign(ground, ens, shots, rng)
            est = estimator.estimate(records, k, method="median_of_means",
                                     m_observables=1, delta=delta)
            failures += abs(est - truth) > epsilon
        allowed = int(stats.binom.ppf(0.99, campaigns, delta))
        assert failures <= allowed
        c.detail = (f"N={shots}/campaign; {failures}/{campaigns} misses "
                    f"above eps (99% bound {allowed})")


def test_acceptance_06_bias_variance_bowl():
    with criterion(6, 300.0) as c:
        link = lgt.link_local(1.0, 1.0)
        ens = ensembles.subsample_su2(6, np.random.default_rng(0),
                                      targets=(link,), n=2)
        grid = biasvar.default_lambda_grid()
        rows = biasvar.ridge_scan(link, ens, grid, 1000, 1, 0.1)
        best = min(range(len(rows)), key=lambda i: rows[i].error_bound)
        assert 0 < best < len(rows) - 1, "minimum must be interior"
        margin = (min(rows[0].error_bound, rows[-1].error_bound)
                  / rows[best].error_bound - 1.0)
        assert margin >= 0.05
        c.detail = (f"interior minimum at lambda={rows[best].lambda_or_alpha:.3g}"
                    f" with {100 * margin:.0f}% edge margin")


def test_acceptance_07_gauge_budget_ordering():
    with criterion(7, 300.0) as c:
        link = lgt.link_local(1.0, 1.0)
        tri = lgt.triangle_local(1.0)
        ens = ensembles.subsample_su2(25, np.random.default_rng(1),
                                      targets=(link, tri), n=3)
        lats = [lgt.TriLattice(2, 2), lgt.TriLattice(4, 2), lgt.TriLattice(8, 2)]
        rows = lgt.energy_budget_comparison(lats, ens, epsilon=0.1, delta=0.1)
        chains = []
        for i, lat in enumerate(lats):
            shots = {r.strategy: r.n_shots for r in rows[4 * i: 4 * i + 4]}
            assert shots["bias+adapt"] <= shots["bias-only"] <= shots["plain-CS"]
            assert shots["bias+adapt"] <= shots["adapt-only"] <= shots["plain-CS"]
            chains.append(shots["plain-CS"])
        # N grows like log M: doubling M adds a constant, it does not multiply
        increments = np.diff(chains)
        assert np.all(increments > 0)
        assert np.all(increments < 0.25 * np.array(chains[:-1]))
        log_m = [np.log(lat.n_terms / 0.2) for lat in lats]
        expected = chains[0] * log_m[1] / log_m[0]
        assert abs(chains[1] - expected) <= 2.0
        c.detail = f"plain-CS shots per size {chains}; orderings hold"


def test_acceptance_08_phase_classification():
    with criterion(8, 1200.0) as c:
        margins = {d: [] for d in (0, 1, 2)}
        for depth in (0, 1, 2):
            for seed in range(10):
                res = phases.run_phase_classification(
                    L=2, depth=depth, states_per_phase=10, n_rp=2500,
                    n_su2=400, rng=np.random.default_rng(seed))
                margins[depth].append(
                    phases.separation_margin(res.coords, res.labels))
        sep = {d: int(np.sum(np.array(m) > 0)) for d, m in margins.items()}
        means = {d: float(np.mean(m)) for d, m in margins.items()}
        assert sep[0] >= 9
        assert sep[1] >= 9
        assert means[0] >= means[1] >= means[2]
        c.detail = (f"separable seeds d0={sep[0]}/10 d1={sep[1]}/10; "
                    f"mean margins {means[0]:.3f}/{means[1]:.3f}/{means[2]:.3f}")


def test_acceptance_09_unbiased_reconstruction_randomized():
    with criterion(9, 300.0) as c:
        rng = np.random.default_rng(3)
        worst_recon = worst_mean = 0.0
        for trial in range(100):
            if trial % 2 == 0:
                o = visible.project_visible(random_hermitian(3, rng))
                ens = ensembles.global_su2(3)
                k = estimator.kernel_cs(o, ens)
                recon = estimator.reconstruct(k)
                nodes, weights = estimator.su2_quadrature_angles(3)
                vals = estimator._su2_node_values(k.amps, nodes, 3)
                rho = random_density(3, rng)
                probs = np.stack([
                    qcore.born_probabilities(rho, estimator._realize_node(nd, 3))
                    for nd in nodes])
                mean = float(np.dot(weights, (probs * vals).sum(axis=1)))
            else:
                o = visible.project_visible(random_hermitian(3, rng))
                ens = ensembles.subsample_su2(12, rng, targets=(o,), n=3)
                k = estimator.kernel_least_squares(o, ens)
                recon = estimator.reconstruct(k)
                rho = random_density(3, rng)
                tables = np.stack([
                    qcore.born_probabilities(rho, ensembles.realize(m))
                    for m in ens.members])
                mean = float(np.dot(k.density, (tables * k.values).sum(axis=1)))
            worst_recon = max(worst_recon, float(np.abs(recon - o).max()))
            want = float(np.trace(rho @ o).real)
            worst_mean = max(worst_mean, abs(mean - want))
        assert worst_recon < 1e-8
        assert worst_mean < 1e-8
        c.detail = (f"100 random 3-qubit trials: reconstruction dev "
                    f"{worst_recon:.1e}, expectation dev {worst_mean:.1e}")


def test_acceptance_10_adaptive_density_optimality():
    with criterion(10, 120.0) as c:
        link = lgt.link_local(1.0, 1.0)
        ens = ensembles.subsample_su2(6, np.random.default_rng(0),
                                      targets=(link,), n=2)
        k = estimator.kernel_least_squares(link, ens)
        rng = np.random.default_rng(4)
        v_opt = estimator.var_max_bound(adaptive.reweight(k, adaptive.q_optimal(k)))
        v_mix = biasvar.mixed_variance(adaptive.reweight(k, adaptive.q_maxmixed(k)))
        wins = 0
        for _ in range(100):
            q = rng.dirichlet(np.ones(6))
            kq = adaptive.reweight(k, q)
            assert v_opt <= estimator.var_max_bound(kq) + 1e-10
            assert v_mix <= biasvar.mixed_variance(kq) + 1e-10
            wins += 1
        assert wins == 100
        c.detail = (f"q_optimal bound {v_opt:.3f} and q_maxmixed variance "
                    f"{v_mix:.3f} beat all 100 random densities")


def test_acceptance_11_byte_reproducibility(tmp_path):
    with criterion(11, 300.0) as c:
        cfg = tmp_path / "est.cfg"
        cfg.write_text("members = 6\nshots = 2000\n")
        blobs = []
        for name, threads in (("r1", 1), ("r2", 1), ("r4", 4)):
            out = tmp_path / name
            out.mkdir()
            rc = cli.main(["estimate", "--config", str(cfg), "--seed", "1",
                           "--out", str(out), "--threads", str(threads)])
            assert rc == 0
            blobs.append(((out / "records.csv").read_bytes(),
                          (out / "estimate.json").read_bytes()))
        for blob in blobs[1:]:
            for got, want in zip(blob, blobs[0]):
                assert_same_text(got, want)

        phase_cfg = tmp_path / "ph.cfg"
        phase_cfg.write_text("states_per_phase = 2\nn_rp = 600\nn_su2 = 120\n")
        docs = []
        for name, threads in (("p1", 1), ("p2", 2)):
            out = tmp_path / name
            out.mkdir()
            rc = cli.main(["phase-classify", "--config", str(phase_cfg),
                           "--seed", "3", "--out", str(out),
                           "--threads", str(threads)])
            assert rc == 0
            docs.append((out / "phase_points.json").read_bytes())
        assert_same_text(docs[1], docs[0])
        c.detail = ("estimate and phase-classify artifacts byte-identical "
                    "across reruns and thread counts")
