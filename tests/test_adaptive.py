"""Importance-sampling densities: unbiasedness and variance optimality."""

import numpy as np
import pytest

from reshadow import adaptive, biasvar, ensembles, estimator, lgt, qcore


@pytest.fixture(scope="module")
def setup():
    link = lgt.link_local(1.0, 1.0)
    ens = ensembles.subsample_su2(6, np.random.default_rng(0),
                                  targets=(link,), n=2)
    return link, ens, estimator.kernel_least_squares(link, ens)


def random_q(rng, m=6):
    return rng.dirichlet(np.ones(m))


def test_reweight_preserves_reconstruction(setup, rng):
    link, ens, k = setup
    for _ in range(10):
        kq = adaptive.reweight(k, random_q(rng))
        np.testing.assert_allclose(estimator.reconstruct(kq), link, atol=1e-8)


def test_reweight_roundtrip(setup):
    link, ens, k = setup
    q = np.full(6, 1.0 / 6.0) * np.array([2, 1, 1, 1, 0.5, 0.5])
    kq = adaptive.reweight(k, q)
    back = adaptive.reweight(kq, np.asarray(k.density))
    np.testing.assert_allclose(back.values, k.values, atol=1e-12)
    np.testing.assert_allclose(back.density, k.density, atol=1e-15)


def test_reweight_validates_density(setup):
    link, ens, k = setup
    with pytest.raises(ValueError):
        adaptive.reweight(k, np.full(5, 0.2))  # wrong member count
    with pytest.raises(ValueError):
        adaptive.reweight(k, np.array([0.5, 0.5, 0.2, -0.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        adaptive.reweight(k, np.full(6, 0.2))  # sums to 1.2
    with pytest.raises(ValueError):  # zero weight on a live member
        adaptive.reweight(k, np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2]))


def test_reweight_allows_dead_members(setup):
    link, ens, k = setup
    values = k.values.copy()
    values[3] = 0.0
    dead = estimator.KernelTable(ens, values=values)
    q = np.array([0.25, 0.25, 0.25, 0.0, 0.125, 0.125])
    kq = adaptive.reweight(dead, q)
    assert np.all(kq.values[3] == 0.0)


def test_q_optimal_minimizes_worst_case_bound(setup, rng):
    link, ens, k = setup
    best = estimator.var_max_bound(adaptive.reweight(k, adaptive.q_optimal(k)))
    assert best < estimator.var_max_bound(k)
    for _ in range(25):
        other = estimator.var_max_bound(adaptive.reweight(k, random_q(rng)))
        assert best <= other + 1e-10


def test_q_maxmixed_minimizes_mixed_variance(setup, rng):
    link, ens, k = setup
    best = biasvar.mixed_variance(adaptive.reweight(k, adaptive.q_maxmixed(k)))
    for _ in range(25):
        other = biasvar.mixed_variance(adaptive.reweight(k, random_q(rng)))
        assert best <= other + 1e-10


def test_q_optimal_closed_form(setup):
    link, ens, k = setup
    q = adaptive.q_optimal(k)
    w = np.asarray(k.density) * np.abs(k.values).max(axis=1)
    np.testing.assert_allclose(q, w / w.sum(), atol=1e-14)
    assert q.sum() == pytest.approx(1.0)


def test_zero_kernel_has_no_density(setup):
    link, ens, k = setup
    zero = estimator.KernelTable(ens, values=np.zeros_like(k.values))
    with pytest.raises(ValueError):
        adaptive.q_optimal(zero)
    with pytest.raises(ValueError):
        adaptive.q_maxmixed(zero)


def test_continuous_kernel_rejected():
    ens = ensembles.global_su2(2)
    o = qcore.PauliString.from_word("ZZ").to_dense()
    k = estimator.kernel_cs(o, ens)
    with pytest.raises(ValueError):
        adaptive.q_optimal(k)


def test_q_multi_single_kernel_reduces_to_q_optimal(setup):
    link, ens, k = setup
    np.testing.assert_allclose(adaptive.q_multi([k]), adaptive.q_optimal(k),
                               atol=1e-14)


def test_q_multi_shared_density(setup, rng):
    link, ens, k_link = setup
    zz_part = lgt.link_local(1.0, 0.0)
    k_zz = estimator.kernel_least_squares(zz_part, ens)
    q = adaptive.q_multi([k_link, k_zz])
    assert q.shape == (6,) and q.sum() == pytest.approx(1.0)
    # the shared density keeps the worst observable no worse than its own optimum
    worst_shared = max(
        estimator.var_max_bound(adaptive.reweight(k, q))
        for k in (k_link, k_zz))
    for _ in range(25):
        qr = random_q(rng)
        worst_other = max(
            estimator.var_max_bound(adaptive.reweight(k, qr))
            for k in (k_link, k_zz))
        assert worst_shared <= 2.0 * worst_other + 1e-10


def test_q_multi_across_supports_matches_shared_peak():
    # link (n = 2) and triangle (n = 3) kernels over the same members
    link, tri = lgt.link_local(1.0, 1.0), lgt.triangle_local(1.0)
    ens = ensembles.subsample_su2(25, np.random.default_rng(1), targets=(link, tri),
                                  n=3)
    k_link = estimator.kernel_least_squares(link, ens.with_n(2))
    k_tri = estimator.kernel_least_squares(tri, ens.with_n(3))
    peak = np.maximum(np.abs(k_link.values).max(axis=1),
                      np.abs(k_tri.values).max(axis=1))
    want = k_link.density * peak / (k_link.density * peak).sum()
    assert np.array_equal(adaptive.q_multi([k_link, k_tri]), want)


def test_q_multi_rejects_mismatched_ensembles(setup):
    link, ens, k = setup
    other_ens = ensembles.subsample_su2(6, np.random.default_rng(5), n=2)
    o = 0.25 * np.eye(4)
    k_other = estimator.kernel_least_squares(o, other_ens)
    with pytest.raises(ValueError):
        adaptive.q_multi([k, k_other])
    with pytest.raises(ValueError):
        adaptive.q_multi([])
