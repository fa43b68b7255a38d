"""Ridge/alpha bias-variance trades and the local kernel parameterization."""

import math

import numpy as np
import pytest

from reshadow import biasvar, ensembles, estimator, lgt, qcore
from reshadow.errors import ConvergenceError

from references import minimize_alpha_loop, ridge_gram_solve


@pytest.fixture(scope="module")
def link():
    return lgt.link_local(1.0, 1.0)


@pytest.fixture(scope="module")
def ens(link):
    return ensembles.subsample_su2(6, np.random.default_rng(0),
                                   targets=(link,), n=2)


@pytest.mark.parametrize("kind", ["subsample", "cl2", "su2"])
def test_mixed_variance_is_var_under_maximally_mixed(link, ens, kind):
    if kind == "subsample":
        k = estimator.kernel_least_squares(link, ens)
    else:
        other = ensembles.global_cl2(2) if kind == "cl2" else ensembles.global_su2(2)
        k = estimator.kernel_cs(qcore.PauliString.from_word("XX").to_dense(), other)
    rho = np.eye(4) / 4.0
    assert biasvar.mixed_variance(k) == pytest.approx(
        estimator.var_under_state(k, rho), abs=1e-12)


def test_ridge_zero_is_min_norm(link, ens):
    k0 = estimator.kernel_least_squares(link, ens)
    r0 = biasvar.ridge_bias(link, ens, 0.0)
    np.testing.assert_allclose(r0.values, k0.values, atol=1e-10)


def test_ridge_negative_rejected(link, ens):
    with pytest.raises(ValueError):
        biasvar.ridge_bias(link, ens, -1e-3)


def test_ridge_kernels_match_gram_solves(link, ens):
    lams = [1e-4, 1e-2, 1.0, 1e2]
    for lam, k in zip(lams, biasvar.ridge_kernels(link, ens, lams)):
        values = ridge_gram_solve(link, ens, lam)
        np.testing.assert_allclose(k.values, values, rtol=0,
                                   atol=1e-9 * np.abs(values).max())
    with pytest.raises(ValueError):
        biasvar.ridge_kernels(link, ens, [0.0, -1e-3])


def test_ridge_trades_bias_for_variance(link, ens):
    lams = [0.0, 1e-3, 1e-1, 1e1, 1e3]
    biases, variances = [], []
    for lam in lams:
        k = biasvar.ridge_bias(link, ens, lam)
        biases.append(qcore.spectral_norm(link - estimator.reconstruct(k)))
        variances.append(biasvar.mixed_variance(k))
    for a, b in zip(biases, biases[1:]):
        assert b >= a - 1e-10
    for a, b in zip(variances, variances[1:]):
        assert b <= a + 1e-10


def test_ridge_kernel_vanishes_at_huge_lambda(link, ens):
    k = biasvar.ridge_bias(link, ens, 1e8)
    assert np.abs(k.values).max() < 1e-5
    bias = qcore.spectral_norm(link - estimator.reconstruct(k))
    assert bias == pytest.approx(qcore.spectral_norm(link), rel=1e-5)


def test_lambda_scan_has_interior_minimum(link, ens):
    # frozen reference: 6-member seed-0 subsample, 1000 shots, M=1, delta=0.1;
    # the bias in it is the exact spectral norm (numpy.linalg.eigvalsh gives
    # 0.1090640927419873 for this kernel)
    grid = biasvar.default_lambda_grid()
    assert grid[0] == 0.0
    rows = biasvar.ridge_scan(link, ens, grid, 1000, 1, 0.1)
    best = min(range(len(rows)), key=lambda i: rows[i].error_bound)
    assert 0 < best < len(rows) - 1
    assert rows[best].lambda_or_alpha == pytest.approx(3.1622776601683794e-3)
    assert rows[best].error_bound == pytest.approx(0.16932424574682342, rel=1e-9)
    margin = min(rows[0].error_bound, rows[-1].error_bound) / rows[best].error_bound - 1.0
    assert margin > 0.55  # measured 0.598


def test_shots_at_inf_when_bias_eats_budget(link, ens):
    rows = biasvar.ridge_scan(link, ens, [0.0, 1e8], 1000, 1, 0.1)
    assert math.isfinite(biasvar.shots_at(rows[0], 0.1, 0.1, 1))
    assert biasvar.shots_at(rows[1], 0.1, 0.1, 1) == math.inf


def test_biased_kernel_can_need_fewer_shots(link, ens):
    # at eps=0.2 the variance saving outweighs the slack the bias consumes
    grid = biasvar.default_lambda_grid()
    rows = biasvar.ridge_scan(link, ens, grid, 1000, 1, 0.1)
    shots = [biasvar.shots_at(r, 0.2, 0.1, 1) for r in rows]
    assert shots[0] == 1874
    assert min(shots) == 317
    assert min(shots) < shots[0]


def test_scan_csv(link, ens):
    rows = biasvar.ridge_scan(link, ens, [0.0, 1e-2, 1e8], 1000, 1, 0.1)
    text = biasvar.scan_to_csv(rows, 0.1, 0.1, 1, metadata={"seed": "0"})
    lines = text.splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "lambda_or_alpha,bias,var_bound,error_bound,shots_at"
    assert len(lines) == 5
    assert lines[-1].endswith("inf")


def assert_dense_biases(o, kernels, biases):
    """Each bias equals the dense ||O - reconstruct(K)||_2 (an SVD)."""
    dense = [qcore.spectral_norm(o - estimator.reconstruct(k)) for k in kernels]
    tol = 1e-14 * max(1.0, qcore.hs_norm(o))
    np.testing.assert_allclose(biases, dense, rtol=0, atol=tol)


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
def test_kernel_biases_match_dense_reconstruction(seed):
    link, tri = lgt.link_local(1.0, 1.0), lgt.triangle_local(1.0)
    ens = ensembles.subsample_su2(25, np.random.default_rng(seed),
                                  targets=(link, tri), n=3)
    for op, n in ((link, 2), (tri, 3)):
        kernels = biasvar.ridge_kernels(op, ens.with_n(n), biasvar.default_lambda_grid())
        biases = biasvar.kernel_biases(op, kernels)
        assert all(type(b) is float for b in biases)
        assert_dense_biases(op, kernels, biases)


def test_kernel_biases_of_a_cl2_kernel():
    o = (qcore.PauliString.from_word("XXX").to_dense()
         + 0.5 * qcore.PauliString.from_word("ZZZ").to_dense())
    k = estimator.kernel_cs(o, ensembles.global_cl2(3))
    assert_dense_biases(o, [k], biasvar.kernel_biases(o, [k]))


def test_alpha_scan_biases_match_dense_reconstruction(link, ens):
    rows = biasvar.alpha_scan(link, ens, 1000, 1, 0.1, np.logspace(-2, 2, 9))
    assert len(rows) == 9
    assert_dense_biases(link, [r.kernel for r in rows], [r.bias for r in rows])


def test_alpha_scan_returns_one_row_per_alpha(link, ens):
    rows = biasvar.alpha_scan(link, ens, 1000, 1, 0.1, (2.0, 0.5))
    assert [r.lambda_or_alpha for r in rows] == [2.0, 0.5]
    assert all(r.bias < qcore.spectral_norm(link) for r in rows)


def test_alpha_scan_needs_alphas_and_iterations(link, ens, monkeypatch):
    with pytest.raises(ValueError):
        biasvar.alpha_scan(link, ens, 1000, 1, 0.1, ())
    monkeypatch.setattr(biasvar, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        biasvar.alpha_scan(link, ens, 1000, 1, 0.1, (1.0,))


def scan_rows(link, ens):
    return [(r.lambda_or_alpha, r.bias, r.var_bound, r.error_bound)
            for r in biasvar.alpha_scan(link, ens, 1000, 1, 0.1,
                                        np.logspace(-2, 2, 9))]


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_stacked_backtracking_matches_per_trial_loop(link, seed, monkeypatch):
    """One stacked evaluation of every halving picks the per-trial loop's
    point: the default-grid rows are equal bit for bit."""
    ens = ensembles.subsample_su2(6, np.random.default_rng(seed),
                                  targets=(link,), n=2)
    got = scan_rows(link, ens)
    monkeypatch.setattr(biasvar, "_minimize_alpha", minimize_alpha_loop)
    assert got == scan_rows(link, ens)


def test_minimizer_matches_per_trial_loop_converged_or_not(link):
    """At every alpha of the default grid, converged or not, the stacked
    minimizer returns the per-trial loop's point, cost and flag bit for bit.
    Seed 1 covers the unconverged path: its alpha = 10^-1.5 descent runs out
    of iterations in both."""
    flags = []
    for seed in (0, 1, 2, 5, 9):
        ens = ensembles.subsample_su2(6, np.random.default_rng(seed),
                                      targets=(link,), n=2)
        a, b, sqrt_p, unreached = estimator.stacked_system(link, ens)
        y0, _ = estimator._solve_min_norm(a, b, unreached)
        for alpha in np.logspace(-2, 2, 9):
            args = (link, a, sqrt_p, float(alpha), 1000, 1, 0.1, y0)
            y, f, converged = biasvar._minimize_alpha(*args)
            y_ref, f_ref, converged_ref = minimize_alpha_loop(*args)
            assert np.array_equal(y, y_ref), (seed, alpha)
            assert (f, converged) == (f_ref, converged_ref), (seed, alpha)
            flags.append(converged)
    assert not all(flags)


def test_one_eigvalsh_per_backtracking_search(link, ens, monkeypatch):
    """Each gradient step (one eigh) runs one search (one batched eigvalsh);
    the start point of each alpha costs one more eigvalsh."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    a, b, sqrt_p, unreached = estimator.stacked_system(link, ens)
    y0, _ = estimator._solve_min_norm(a, b, unreached)
    alphas = np.logspace(-2, 2, 9)
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    for alpha in alphas:
        biasvar._minimize_alpha(link, a, sqrt_p, float(alpha), 1000, 1, 0.1, y0)
    assert calls["eigh"] > 0
    assert calls["eigvalsh"] == calls["eigh"] + len(alphas)


def test_failed_search_ends_the_descent(link, ens, monkeypatch):
    """At alpha = 10 the unbiased start is optimal and no trial of the first
    search passes: the descent stops after that one gradient (one eigh)
    where it used to repeat it until STOP_PATIENCE, and calls it converged."""
    a, b, sqrt_p, unreached = estimator.stacked_system(link, ens)
    y0, _ = estimator._solve_min_norm(a, b, unreached)
    calls = []
    inner = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    y, _, converged = biasvar._minimize_alpha(link, a, sqrt_p, 10.0, 1000, 1, 0.1, y0)
    assert len(calls) == 1
    assert converged and np.array_equal(y, y0)


# ---------------------------------------------------------------------------
# Kernels of operators embedded in a larger register
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def embedded(link, ens):
    term = lgt.HamTerm("link", (1, 3), link)
    return lgt.term_dense_full(term, 5), ens.with_n(5)


def test_full_kernel_depends_only_on_support_bits(embedded):
    # the min-norm kernel of a local operator is itself local
    big, ens5 = embedded
    k = estimator.kernel_least_squares(big, ens5)
    bits = qcore.bits_of(np.arange(32), 5, (1, 3))
    for z in range(4):
        cols = k.values[:, bits == z]
        assert np.abs(cols - cols[:, :1]).max() < 1e-10
