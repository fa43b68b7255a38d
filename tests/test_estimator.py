"""Kernel solvers, campaigns, budgets, and the record CSV round trip."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reshadow import (biasvar, channels, ensembles, estimator, gates, lgt, phases, qcore,
                      visible)
from reshadow.errors import NotVisibleError, RepresentabilityError

from conftest import random_hermitian
import references
from references import diagonal
from test_records_csv import member


def random_density(n, rng):
    a = random_hermitian(n, rng) + 2.0 * np.eye(1 << n)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def exact_expectation(k, rho):
    """E[K] under the true sampling distribution of a discrete ensemble."""
    tables = np.stack([
        qcore.born_probabilities(rho, ensembles.realize(m)) for m in k.ens.members
    ])
    return float(np.dot(k.density, (tables * k.values).sum(axis=1)))


# ---------------------------------------------------------------------------
# Budget formula
# ---------------------------------------------------------------------------


def test_theorem_shot_count_reference_point():
    # M=1, eps=0.1, delta=0.05, Var=1, Q=1:
    # 2 ln(1/0.1) * (1 + 0.1/3) / 0.01 = 475.87 -> 476
    b = estimator.Budget(1, 0.1, 0.05, (1.0,), (1.0,))
    assert estimator.theorem1_shots(b) == 476


def test_theorem_shots_monotone_in_variance():
    shots = [
        estimator.theorem1_shots(estimator.Budget(1, 0.1, 0.05, (v,), (1.0,)))
        for v in (0.5, 1.0, 2.0, 4.0)
    ]
    assert shots == sorted(shots)
    assert shots[0] < shots[-1]


def test_bias_eats_error_budget():
    b = estimator.Budget(1, 0.1, 0.05, (1.0,), (1.0,), biases=(0.05,))
    plain = estimator.Budget(1, 0.1, 0.05, (1.0,), (1.0,))
    assert estimator.theorem1_shots(b) > estimator.theorem1_shots(plain)
    with pytest.raises(ValueError):
        bad = estimator.Budget(1, 0.1, 0.05, (1.0,), (1.0,), biases=(0.1,))
        estimator.theorem1_shots(bad)


def test_budget_validation():
    with pytest.raises(ValueError):
        estimator.Budget(1, 0.0, 0.05, (1.0,), (1.0,))
    with pytest.raises(ValueError):
        estimator.Budget(1, 0.1, 0.05, (1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        estimator.Budget(0, 0.1, 0.05, (1.0,), (1.0,))


@pytest.mark.parametrize("m, delta", [(1, 0.9), (1, 0.5), (1, 1.0)])
def test_budget_rejects_delta_at_or_above_half_m(m, delta):
    # ln(M / 2 delta) <= 0 there, which made theorem1_shots return -121
    with pytest.raises(ValueError):
        estimator.theorem1_shots(estimator.Budget(m, 0.1, delta, (1.0,), (1.0,)))


def test_budget_keeps_delta_below_half_m():
    b = estimator.Budget(2, 0.1, 0.9, (1.0,), (1.0,))
    assert estimator.theorem1_shots(b) > 0


def test_default_batches():
    assert estimator.default_batches(1, 0.1) == 6
    assert estimator.default_batches(10, 0.05) >= estimator.default_batches(1, 0.1)


# ---------------------------------------------------------------------------
# Analytic kernels
# ---------------------------------------------------------------------------


def test_su2_kernel_reconstructs_visible_operator(rng):
    a = random_hermitian(2, rng)
    o = visible.project_visible(a)
    ens = ensembles.Ensemble(ensembles.KIND_GLOBAL_SU2, 2)
    k = estimator.kernel_cs(o, ens)
    np.testing.assert_allclose(estimator.reconstruct(k), o, atol=1e-10)


def test_su2_kernel_rejects_invisible_part(rng):
    s = visible.FixedIdSet(2, 0, 1, 1, 0)  # the XY/YX family
    bperp = visible.build_Bperp(s, 1)
    ens = ensembles.Ensemble(ensembles.KIND_GLOBAL_SU2, 2)
    with pytest.raises(Exception):
        estimator.kernel_cs(bperp, ens)
    with pytest.raises(ValueError, match="dimension"):
        estimator.kernel_cs(np.eye(8), ens)


def test_cl2_kernel_variance_is_shadow_norm():
    xx = qcore.PauliString.from_word("XX").to_dense()
    ens = ensembles.Ensemble(ensembles.KIND_GLOBAL_CL2, 2)
    k = estimator.kernel_cs(xx, ens)
    v = estimator.var_max_bound(k)
    assert abs(v - channels.shadow_norm_cl2(xx)) < 1e-9
    assert abs(v - 3.0) < 1e-9
    np.testing.assert_allclose(estimator.reconstruct(k), xx, atol=1e-10)


def test_cl2_kernel_unbiased_under_random_state(rng):
    xx = qcore.PauliString.from_word("XX").to_dense()
    ens = ensembles.Ensemble(ensembles.KIND_GLOBAL_CL2, 2)
    k = estimator.kernel_cs(xx, ens)
    rho = random_density(2, rng)
    want = np.trace(rho @ xx).real
    assert abs(exact_expectation(k, rho) - want) < 1e-10


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=10**6))
def test_su2_quadrature_mean_matches_trace(seed):
    rng = np.random.default_rng(seed)
    o = visible.project_visible(random_hermitian(2, rng))
    rho = random_density(2, rng)
    ens = ensembles.Ensemble(ensembles.KIND_GLOBAL_SU2, 2)
    k = estimator.kernel_cs(o, ens)
    nodes, weights = estimator.su2_quadrature_angles(2)
    vals = estimator._su2_node_values(k.amps, nodes, 2)
    probs = np.stack([
        qcore.born_probabilities(rho, estimator._realize_node(node, 2))
        for node in nodes
    ])
    mean = float(np.dot(weights, (probs * vals).sum(axis=1)))
    assert abs(mean - np.trace(rho @ o).real) < 1e-8


# ---------------------------------------------------------------------------
# Subsampled ensembles and the least-squares kernel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def link_setup():
    link = lgt.link_local(1.0, 1.0)  # two-qubit gauge-link term
    rng = np.random.default_rng(0)
    ens = ensembles.subsample_su2(6, rng, targets=(link,), n=2)
    return link, ens


def test_subsample_kernel_is_unbiased(link_setup, rng):
    link, ens = link_setup
    k = estimator.kernel_least_squares(link, ens)
    assert k.residual < 1e-8
    np.testing.assert_allclose(estimator.reconstruct(k), link, atol=1e-8)
    for _ in range(5):
        rho = random_density(2, rng)
        want = np.trace(rho @ link).real
        assert abs(exact_expectation(k, rho) - want) < 1e-8


def test_small_subsample_not_representable():
    link = lgt.link_local(1.0, 1.0)
    rng = np.random.default_rng(1)
    ens = ensembles.subsample_su2(3, rng, n=2)
    assert estimator.representability_residual(link, ens) > 1e-3
    with pytest.raises(RepresentabilityError):
        estimator.kernel_least_squares(link, ens)


def test_representability_gate_is_relative_and_shared(link_setup):
    link, ens = link_setup
    big = 1e6 * link
    residual = estimator.representability_residual(big, ens)
    assert residual <= visible.residual_limit(big)
    assert estimator.kernel_least_squares(big, ens).residual == residual
    again = ensembles.subsample_su2(6, np.random.default_rng(0), targets=(big,), n=2)
    assert again.members == ens.members  # the first draw passes, as for link
    small = ensembles.subsample_su2(3, np.random.default_rng(1), n=2)
    for target in (link, big):
        with pytest.raises(RepresentabilityError):
            estimator.kernel_least_squares(target, small)
        with pytest.raises(RepresentabilityError):
            ensembles.subsample_su2(3, np.random.default_rng(1), targets=(target,),
                                    n=2)
    # the inverse channels apply the same gate to what they cannot invert
    bperp = visible.build_Bperp(visible.FixedIdSet(2, 0, 1, 0, 1), 1)  # XZ - ZX
    for inverse in (channels.inverse_msu2, channels.inverse_mcl2):
        want = 1e6 * inverse(link)
        np.testing.assert_allclose(inverse(big), want, rtol=0,
                                   atol=1e-12 * qcore.hs_norm(want))
        for target in (bperp, 1e6 * bperp):
            with pytest.raises(NotVisibleError):
                inverse(target)


def test_each_solve_decomposes_its_target_once(link_setup, monkeypatch):
    """Family amplitudes and the unreached part of a target come from one
    Pauli decomposition, once per solve, grid or scan."""
    link, ens = link_setup
    calls = []
    for name in ("pauli_decompose", "pauli_recompose"):
        def counted(a, inner=getattr(qcore, name), name=name):
            calls.append(name)
            return inner(a)
        monkeypatch.setattr(qcore, name, counted)

    def decomposes(run, *args, **kwargs):
        calls.clear()
        run(*args, **kwargs)
        return calls.count("pauli_decompose")

    assert decomposes(estimator.kernel_least_squares, link, ens) == 1
    assert decomposes(estimator.representability_residual, link, ens) == 1
    assert decomposes(biasvar.ridge_kernels, link, ens,
                      biasvar.default_lambda_grid()) == 1
    assert decomposes(biasvar.alpha_scan, link, ens, 1000, 1, 0.1, (0.1, 10.0)) == 1
    assert decomposes(channels.inverse_msu2, link) == 1
    assert calls.count("pauli_recompose") == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_row_system_matches_stacked_reference(n):
    """Kernels and residuals of the family-row system equal those of the
    real/imaginary-stacked dense system, for a visible, an invisible-heavy
    and a non-Hermitian target."""
    rng = np.random.default_rng(60 + n)
    ens = ensembles.subsample_su2(3 * n, rng, n=n)
    a = random_hermitian(n, rng)
    targets = (visible.project_visible(a), a,
               a + 1j * random_hermitian(n, rng))
    for o in targets:
        want_values, want_residual = references.least_squares_kernel(o, ens)
        mat, rhs, sqrt_p, unreached = estimator.stacked_system(o, ens)
        y, residual = estimator._solve_min_norm(mat, rhs, unreached)
        assert mat.shape == (visible.expected_set_count(n), 3 * n << n)
        assert mat.dtype == np.float64
        values = y.reshape(3 * n, -1) / sqrt_p[:, None]
        scale = np.abs(want_values).max()
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12 * scale)
        assert abs(residual - want_residual) <= 1e-12 * qcore.hs_norm(o)
        assert residual == pytest.approx(
            qcore.hs_norm(o - estimator.reconstruct(
                estimator.KernelTable(ens, values=values))), rel=1e-9)


def test_var_under_state_matches_direct_sum(link_setup, rng):
    link, ens = link_setup
    k = estimator.kernel_least_squares(link, ens)
    rho = random_density(2, rng)
    tables = np.stack([
        qcore.born_probabilities(rho, ensembles.realize(m)) for m in ens.members
    ])
    mean = np.dot(k.density, (tables * k.values).sum(axis=1))
    second = np.dot(k.density, (tables * k.values**2).sum(axis=1))
    want = second - mean**2
    assert abs(estimator.var_under_state(k, rho) - want) < 1e-10


def test_var_max_bound_dominates_any_state(link_setup, rng):
    link, ens = link_setup
    k = estimator.kernel_least_squares(link, ens)
    bound = estimator.var_max_bound(k)
    for _ in range(10):
        rho = random_density(2, rng)
        assert estimator.var_under_state(k, rho) <= bound + 1e-10


def test_kernel_q_variants(link_setup):
    link, ens = link_setup
    k = estimator.kernel_least_squares(link, ens)
    q_bare = estimator.kernel_q(k, "max_abs_k")
    q_thm = estimator.kernel_q(k, "theorem")
    assert q_bare == pytest.approx(np.abs(k.values).max())
    assert q_thm == pytest.approx(q_bare + qcore.spectral_norm(link), rel=1e-8)
    with pytest.raises(ValueError):
        estimator.kernel_q(k, "nope")


# ---------------------------------------------------------------------------
# Blocked kernel sums
# ---------------------------------------------------------------------------


def reconstruct_per_node(k):
    """The sum over V one rotation at a time, as reconstruct used to run it."""
    g, weights, vals = k.terms
    dim = 1 << k.n
    out = np.zeros((dim, dim), dtype=complex)
    for gate, w, row in zip(g, weights, vals):
        v = gates.rows(gate[None], k.n)[0]
        out += w * (v.conj().T * row) @ v
    return out


def assert_reconstruct_matches_per_node_sum(k, scale):
    err = np.abs(estimator.reconstruct(k) - reconstruct_per_node(k)).max()
    assert err <= 1e-12 * scale


@pytest.mark.parametrize("n", range(1, 7))
def test_blocked_su2_reconstruct_matches_per_node_sum(n):
    # at n = 6 the 448 quadrature nodes span 28 blocks of 16
    rng = np.random.default_rng(n)
    o = visible.project_visible(random_hermitian(n, rng))
    k = estimator.kernel_cs(o, ensembles.global_su2(n))
    assert_reconstruct_matches_per_node_sum(k, qcore.spectral_norm(o))


def test_blocked_discrete_reconstruct_matches_per_node_sum(link_setup):
    link, ens = link_setup
    k = estimator.kernel_least_squares(link, ens)
    assert_reconstruct_matches_per_node_sum(k, qcore.spectral_norm(link))
    # 600 members at n = 4 span three blocks of 256; any table has a sum
    rng = np.random.default_rng(4)
    ens = ensembles.subsample_su2(600, rng, n=4)
    k = estimator.KernelTable(ens, values=rng.normal(size=(600, 16)))
    assert_reconstruct_matches_per_node_sum(k, np.abs(k.values).max())


@pytest.mark.parametrize("word", ["XX", "ZIZ", "YYYY"])
def test_blocked_cl2_reconstruct_matches_per_node_sum(word):
    o = qcore.PauliString.from_word(word).to_dense()
    k = estimator.kernel_cs(o, ensembles.global_cl2(len(word)))
    assert_reconstruct_matches_per_node_sum(k, 1.0)


def test_su2_node_values_run_once_per_kernel(monkeypatch):
    calls = []
    node_values = estimator._su2_node_values

    def counted(*args):
        calls.append(args)
        return node_values(*args)

    monkeypatch.setattr(estimator, "_su2_node_values", counted)
    rng = np.random.default_rng(3)
    o = visible.project_visible(random_hermitian(3, rng))
    k = estimator.kernel_cs(o, ensembles.global_su2(3))
    estimator.var_max_bound(k)
    estimator.kernel_q(k, "theorem")
    estimator.reconstruct(k)
    estimator.var_under_state(k, random_density(3, rng))
    assert len(calls) == 1


def test_member_gates_are_the_per_member_rotations():
    ens = ensembles.subsample_su2(2000, np.random.default_rng(5), n=1)
    for e in (ens, ensembles.global_cl2(2)):
        want = np.stack([m.single_qubit() for m in e.members])
        assert np.array_equal(estimator._member_gates(e), want)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def test_campaign_threads_do_not_change_records(link_setup):
    link, ens = link_setup
    rho = qcore.basis_state(2, 0)
    r1 = estimator.run_campaign(rho, ens, 5000, np.random.default_rng(7), threads=1)
    r4 = estimator.run_campaign(rho, ens, 5000, np.random.default_rng(7), threads=4)
    assert np.array_equal(r1.b, r4.b)
    assert np.array_equal(r1.member_idx, r4.member_idx)


def test_campaign_estimate_tracks_truth(link_setup):
    link, ens = link_setup
    rho = qcore.basis_state(2, 0)
    want = float(np.vdot(rho, link @ rho).real)
    k = estimator.kernel_least_squares(link, ens)
    records = estimator.run_campaign(rho, ens, 20_000, np.random.default_rng(3))
    est = estimator.estimate(records, k)
    sigma = np.sqrt(estimator.var_under_state(k, rho) / len(records))
    assert abs(est - want) < 5.0 * sigma
    mom = estimator.estimate(records, k, method="median_of_means")
    assert abs(mom - want) < 8.0 * sigma


def test_estimate_rejects_bad_inputs(link_setup):
    link, ens = link_setup
    k = estimator.kernel_least_squares(link, ens)
    records = estimator.run_campaign(
        qcore.basis_state(2, 0), ens, 16, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimator.estimate(records, k, method="trimmed")
    other = estimator.run_campaign(
        qcore.basis_state(2, 0),
        ensembles.Ensemble(ensembles.KIND_GLOBAL_SU2, 2), 4,
        np.random.default_rng(0))  # different kind, same n
    with pytest.raises(ValueError):
        k.evaluate_records(other)


@pytest.mark.parametrize("n", range(1, 7))
def test_su2_campaign_agrees_with_kernel_evaluate(n):
    ens = ensembles.global_su2(n)
    o = visible.project_visible(random_hermitian(n, np.random.default_rng(4)))
    k = estimator.kernel_cs(o, ens)
    # the kernel holds one real amplitude per family and no dense operator
    assert k.values is None and k.amps.dtype == np.float64
    assert k.amps.shape == (visible.expected_set_count(n),)
    assert all(np.ndim(v) < 2 for v in vars(k).values())
    # more shots than one gates.blocks block holds, even at n = 1
    shots = gates.BLOCK // visible.expected_set_count(1) + 1
    records = estimator.run_campaign(
        qcore.basis_state(n, 0), ens, shots, np.random.default_rng(5))
    vals = k.evaluate_records(records)
    inv = channels.inverse_msu2(o)  # dense references
    for i in (0, 17, shots // 2, shots - 1):
        u = ensembles.realize(member(records, i))
        want = np.real(u @ inv @ u.conj().T)[records.b[i], records.b[i]]
        assert vals[i] == pytest.approx(want, abs=1e-12)


CL2_GATES = np.stack([ensembles.basis_rotation(ch) for ch in ensembles.CL2_BASES])


def table_sampler_probs(rho, words):
    """Outcome distributions of the distinct words, the table that campaigns
    sampled from before sequential collapse: (probs, row of probs per shot)."""
    n = words.shape[1]
    distinct, row = np.unique(words, axis=0, return_inverse=True)
    g = CL2_GATES[distinct]
    if rho.ndim == 1:
        probs = np.abs(gates.rows(g, n, rho)) ** 2
    else:
        probs = np.clip(diagonal(rho, g), 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, row.ravel()


def reference_local_clifford_chunk(rho, n, count, rng):
    """The per-shot algorithm: every shot rotates its own copy of the state."""
    words = rng.integers(0, 3, size=(count, n))
    if rho.ndim == 1:
        t = np.broadcast_to(rho.reshape((1,) + (2,) * n), (count,) + (2,) * n).copy()
        for site in range(n):
            u = CL2_GATES[words[:, site]]
            moved = np.moveaxis(t, 1 + site, -1)
            rotated = np.einsum("n...b,nab->n...a", moved, u)
            t = np.moveaxis(rotated, -1, 1 + site)
        probs = np.abs(t.reshape(count, -1)) ** 2
    else:
        probs = np.empty((count, rho.shape[0]))
        for i in range(count):
            u = qcore.kron_all(CL2_GATES[w] for w in words[i])
            probs[i] = np.real(np.diag(u @ rho @ u.conj().T))
        probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    b = qcore.sample_bits(probs, rng)
    return words, b


def random_state(n, rng):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("density", [False, True])
@pytest.mark.parametrize("count", [1, 700])
def test_local_clifford_chunk_matches_per_shot_reference(n, density, count):
    rng = np.random.default_rng(11 + n)
    state = random_density(n, rng) if density else random_state(n, rng)
    want_words, want_b = reference_local_clifford_chunk(
        state, n, count, np.random.default_rng(4))
    words, b = estimator._local_clifford_chunk(
        state, n, count, np.random.default_rng(4))
    assert words.dtype == np.int8
    assert np.array_equal(words, want_words)
    assert np.array_equal(b, want_b)


@pytest.mark.parametrize("n", [8, 10])
def test_local_clifford_blocked_last_site_matches_per_shot_reference(n):
    # long rows: most shots have a branch of their own by the last sites
    psi = random_state(n, np.random.default_rng(n))
    want_words, want_b = reference_local_clifford_chunk(
        psi, n, 700, np.random.default_rng(5))
    words, b = estimator._local_clifford_chunk(psi, n, 700, np.random.default_rng(5))
    assert np.array_equal(words, want_words)
    assert np.array_equal(b, want_b)


@settings(max_examples=25)
@given(n=st.integers(1, 10), count=st.integers(1, 600), density=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_local_clifford_chunk_samples_like_gathered_table(n, count, density, seed):
    """Sequential collapse draws what sample_bits draws on the per-shot table."""
    n = min(n, 5) if density else n
    rng = np.random.default_rng(seed)
    state = random_density(n, rng) if density else random_state(n, rng)
    draw = np.random.default_rng(seed + 1)
    words = draw.integers(0, 3, size=(count, n))
    probs, row = table_sampler_probs(state, words)
    want_b = qcore.sample_bits(probs[row], draw)
    got_words, got_b = estimator._local_clifford_chunk(
        state, n, count, np.random.default_rng(seed + 1))
    assert np.array_equal(got_words, words)
    assert np.array_equal(got_b, want_b)


def test_local_clifford_probs_match_dense_rotation():
    n, count = 5, 400
    psi = random_state(n, np.random.default_rng(8))
    words = np.random.default_rng(9).integers(0, 3, size=(count, n))
    want = np.stack([
        np.abs(qcore.kron_all(CL2_GATES[w] for w in row) @ psi) ** 2 for row in words])
    want /= want.sum(axis=1, keepdims=True)
    probs, row = table_sampler_probs(psi, words)
    np.testing.assert_allclose(probs[row], want, rtol=0, atol=1e-14)


def test_local_clifford_pure_density_matches_vector():
    n = 4
    psi = random_state(n, np.random.default_rng(6))
    ens = ensembles.local_clifford(n)
    vec = estimator.run_campaign(psi, ens, 3000, np.random.default_rng(2))
    rho = estimator.run_campaign(qcore.pure_density(psi), ens, 3000,
                                 np.random.default_rng(2))
    assert np.array_equal(vec.bases, rho.bases)
    assert np.array_equal(vec.b, rho.b)


@pytest.mark.parametrize("density", [False, True])
@pytest.mark.parametrize("n", [1, 4])
def test_local_clifford_collapse_never_draws_zero_weight_outcome(n, density):
    # all-Z words: |0...0> has one outcome, GHZ two; the uniforms include the
    # ends of [0, 1) and the GHZ split point
    u = np.concatenate([[0.0, 0.5, 0.5 - 2**-53, 1.0 - 2**-53],
                        np.random.default_rng(n).random(500)])
    words = np.full((u.size, n), ensembles.CL2_BASES.index("Z"))
    ghz = np.zeros(1 << n)
    ghz[[0, -1]] = np.sqrt(0.5)
    for psi, allowed in ((qcore.basis_state(n, 0), {0}), (ghz, {0, (1 << n) - 1})):
        state = qcore.pure_density(psi) if density else psi
        b = estimator._collapse(state, words, u)
        assert set(b.tolist()) <= allowed


def _digests(records):
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                 for a in (records.b, records.bases))


def test_local_clifford_toric_campaign_records_are_frozen():
    # a depth-2 scrambled L = 2 toric state, n = 8: the phase workload's shape
    lat = phases.EdgeLattice(2)
    state = phases.random_lowdepth_circuit(lat, 2, np.random.default_rng(7),
                                           phases.toric_ground(2))
    records = estimator.run_campaign(state, ensembles.local_clifford(8), 2500,
                                     np.random.default_rng(3))
    assert _digests(records) == ("f8f5696fffe6b77e", "28827603373dfbba")


def test_local_clifford_density_campaign_records_are_frozen():
    rho = random_density(5, np.random.default_rng(21))
    records = estimator.run_campaign(rho, ensembles.local_clifford(5), 4096,
                                     np.random.default_rng(4))
    assert _digests(records) == ("4268f01230362887", "03c32717a4e18a85")


@settings(max_examples=200)
@given(size=st.integers(1, 50), data=st.data())
def test_group_matches_sorted_unique(size, data):
    key = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                      max_size=80)), dtype=np.intp)
    distinct, inverse = estimator._group(key, size)
    want, want_inverse = np.unique(key, return_inverse=True)
    assert np.array_equal(distinct, want)
    assert np.array_equal(inverse, want_inverse)


def test_local_clifford_campaign_memory_is_bounded():
    # rows halve at every site: no (distinct words x 2^n) table is formed
    psi = random_state(10, np.random.default_rng(10))
    tracemalloc.start()
    try:
        estimator.run_campaign(psi, ensembles.local_clifford(10), 2000,
                               np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("n", [6, 7, 8])
def test_su2_density_campaign_memory_is_bounded(n):
    # the product unitaries of a chunk are never formed: at n = 6 they alone
    # would take 4096 * 64 * 64 * 16 bytes = 268 MB
    rho = random_density(n, np.random.default_rng(n))
    tracemalloc.start()
    try:
        estimator.run_campaign(rho, ensembles.global_su2(n), 4096,
                               np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_su2_density_campaign_records_are_frozen():
    # outcomes drawn from the family-form Born tables equal those drawn from
    # the site-by-site rotations of vec(rho) that they replaced
    d, rng = 8, np.random.default_rng(100)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    records = estimator.run_campaign(rho, ensembles.global_su2(3), 4096,
                                     np.random.default_rng(0))
    digest = hashlib.sha256(records.b.tobytes()).hexdigest()[:16]
    assert digest == "39fdd09f571148d7"
    # the recorded angles are the draws of the full Euler rotation, phi among
    # them: not recording phi leaves theta and psi as they were
    angles = hashlib.sha256(records.thetas.tobytes() + records.psis.tobytes())
    assert angles.hexdigest()[:16] == "1040ccc2b0bbacaa"


def test_local_clifford_campaign_keeps_numeric_words():
    ens = ensembles.local_clifford(3)
    records = estimator.run_campaign(qcore.basis_state(3, 0), ens, 10,
                                     np.random.default_rng(1))
    assert records.bases.shape == (10, 3) and records.bases.dtype == np.int8
    assert records.words == ["".join(ensembles.CL2_BASES[j] for j in row)
                             for row in records.bases]
    assert member(records, 4).word == records.words[4]


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def _campaign_for(kind, rng):
    if kind == ensembles.KIND_GLOBAL_SU2:
        ens = ensembles.Ensemble(kind, 2)
    elif kind == ensembles.KIND_GLOBAL_CL2:
        ens = ensembles.Ensemble(kind, 2)
    elif kind == ensembles.KIND_LOCAL_CLIFFORD:
        ens = ensembles.Ensemble(kind, 2)
    else:
        ens = ensembles.subsample_su2(4, rng, n=2)
    state = np.zeros(4)
    state[0] = state[3] = 1.0 / np.sqrt(2.0)
    return estimator.run_campaign(state, ens, 25, rng)


@pytest.mark.parametrize("kind", [
    ensembles.KIND_GLOBAL_SU2,
    ensembles.KIND_GLOBAL_CL2,
    ensembles.KIND_LOCAL_CLIFFORD,
    ensembles.KIND_DISCRETE_SUBSAMPLE,
])
def test_records_csv_roundtrip(kind, rng):
    records = _campaign_for(kind, rng)
    text = estimator.records_to_csv(records, metadata={"seed": "7"})
    back, meta = estimator.records_from_csv(text)
    assert meta["seed"] == "7"
    assert back.kind == records.kind and back.n == records.n
    assert np.array_equal(back.b, records.b)
    if records.thetas is not None:
        np.testing.assert_allclose(back.thetas, records.thetas, atol=1e-15)
        np.testing.assert_allclose(back.psis, records.psis, atol=1e-15)
    if kind == ensembles.KIND_LOCAL_CLIFFORD:
        assert back.words == records.words
    # a second serialization is byte-identical
    assert estimator.records_to_csv(back, metadata={"seed": "7"}) == text


def test_records_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        estimator.records_from_csv("# n=2\na,b,c\n1,2,3\n")


def test_records_csv_roundtrip_numeric_words():
    bases = np.random.default_rng(3).integers(0, 3, size=(40, 5)).astype(np.int8)
    b = np.arange(40) % 32
    records = estimator.Records(ensembles.KIND_LOCAL_CLIFFORD, 5, "c7", b,
                                bases=bases)
    text = estimator.records_to_csv(records)
    back, _ = estimator.records_from_csv(text)
    assert back.bases.dtype == np.int8
    assert np.array_equal(back.bases, bases)
    assert np.array_equal(back.b, b) and back.campaign_id == "c7"
    assert text.splitlines()[5].split(",")[0] == records.words[0]


@pytest.mark.parametrize("word", ["XYQ", "XY", "XYZZ"])
def test_records_csv_rejects_bad_local_words(word):
    text = ("# n=3\n# campaign_id=c0\n# ensemble_kind=LocalClifford\n# shots=2\n"
            f"v_params,b\nXYZ,000\n{word},000\n")
    with pytest.raises(ValueError):
        estimator.records_from_csv(text)


def test_records_csv_rejects_header_only():
    with pytest.raises(ValueError):
        estimator.records_from_csv("# n=2\n# campaign_id=c0\n"
                                   "# ensemble_kind=GlobalCl2\n# shots=0\nv_params,b\n")
