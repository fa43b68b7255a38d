"""Triangular-strip gauge model: lattice layout, terms, budgets."""

import math

import numpy as np
import pytest

from reshadow import adaptive, biasvar, ensembles, estimator, lgt, qcore, visible

from conftest import random_hermitian


def test_lattice_counts():
    lat = lgt.TriLattice(2, 2)
    assert lat.n_columns == 3
    assert lat.n_qubits == 6
    assert lat.n_terms == 10
    big = lgt.TriLattice(4, 3)
    assert big.n_columns == 6
    assert big.n_qubits == 18
    assert big.n_terms == 30


def test_lattice_validation():
    for bad in (0, 1, 3):
        with pytest.raises(ValueError):
            lgt.TriLattice(bad, 2)
    with pytest.raises(ValueError):
        lgt.TriLattice(2, 1)


def test_triangles_share_columns():
    lat = lgt.TriLattice(4, 2)
    cols = [lat.triangle_columns(t) for t in range(4)]
    assert cols[0] == (0, 1, 2)
    assert cols[1] == (1, 2, 3)
    assert cols[2] == (3, 4, 5)
    assert cols[3] == (4, 5, 0)  # wraps around the strip
    for c in cols:
        assert all(0 <= j < lat.n_columns for j in c)


def test_every_qubit_touches_two_links_and_two_triangles():
    lat = lgt.TriLattice(2, 2)
    terms = lgt.build_terms(lat)
    link_deg = np.zeros(lat.n_qubits, dtype=int)
    tri_deg = np.zeros(lat.n_qubits, dtype=int)
    for term in terms:
        deg = link_deg if term.kind == "link" else tri_deg
        for q in term.sites:
            deg[q] += 1
    assert np.all(link_deg == 2)
    assert np.all(tri_deg == 2)


def test_local_term_coefficients():
    tri = lgt.triangle_local(1.0)
    coeffs = qcore.pauli_decompose(tri)
    xxx = qcore.PauliString.from_word("XXX")
    yyx = qcore.PauliString.from_word("YYX")
    assert coeffs[xxx.x, xxx.z] == pytest.approx(-1.0 / 24.0)
    assert coeffs[yyx.x, yyx.z] == pytest.approx(1.0 / 24.0)
    assert abs(np.trace(tri)) < 1e-14
    assert qcore.is_hermitian(tri)
    # the coupling enters through 1/g^2
    np.testing.assert_allclose(lgt.triangle_local(2.0), tri / 4.0, atol=1e-14)


def test_link_term_spectrum():
    link = lgt.link_local(1.0, 1.0)
    evals = np.sort(np.linalg.eigvalsh(link))
    np.testing.assert_allclose(
        evals, [-1.0 / 2.0, -1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert qcore.spectral_norm(link) == pytest.approx(0.5)
    assert abs(np.trace(link)) < 1e-14


def test_all_terms_are_visible():
    lat = lgt.TriLattice(2, 2)
    report = lgt.check_visibility(lgt.build_terms(lat))
    assert all(r.visible for r in report)
    link_fams = {r.families for r in report if r.kind == "link"}
    tri_fams = {r.families for r in report if r.kind == "triangle"}
    assert link_fams == {((0, 0, 2), (0, 2, 0), (2, 0, 0))}
    assert tri_fams == {((1, 2, 0), (3, 0, 0))}


def test_visibility_gate_is_relative_to_the_term():
    """A visible term of norm 6e8 carries rounding of order 1e-8 outside the
    visible space; the relative gate calls it visible, a B-perp term not."""
    big = visible.project_visible(random_hermitian(3, np.random.default_rng(0), 1e8))
    bperp = visible.build_Bperp(visible.FixedIdSet(3, 0, 1, 1, 1), 2)
    report = lgt.check_visibility([lgt.HamTerm("triangle", (0, 1, 2), op)
                                   for op in (big, 1e-3 * bperp, 1e8 * bperp)])
    assert report[0].invisible_norm > 1e-10
    assert [r.visible for r in report] == [True, False, False]


def test_total_hamiltonian_assembles_terms():
    lat = lgt.TriLattice(2, 2)
    h = lgt.total_hamiltonian(lat)
    assert h.shape == (64, 64)
    assert qcore.is_hermitian(h)
    assert abs(np.trace(h)) < 1e-12
    manual = sum(lgt.term_dense_full(t, lat.n_qubits)
                 for t in lgt.build_terms(lat))
    np.testing.assert_allclose(h, manual, atol=1e-14)


def test_ground_state_estimate_tracks_exact_value():
    lat = lgt.TriLattice(2, 2)
    h = lgt.total_hamiltonian(lat)
    evals, evecs = np.linalg.eigh(h)
    ground = evecs[:, 0]
    term = lgt.build_terms(lat)[-1]  # a link term
    obs = lgt.term_dense_full(term, lat.n_qubits)
    want = float(np.vdot(ground, obs @ ground).real)

    link = lgt.link_local(1.0, 1.0)
    ens2 = ensembles.subsample_su2(6, np.random.default_rng(0),
                                   targets=(link,), n=2)
    ens6 = ens2.with_n(lat.n_qubits)
    k = estimator.kernel_least_squares(obs, ens6)
    records = estimator.run_campaign(ground, ens6, 20_000,
                                     np.random.default_rng(11))
    est = estimator.estimate(records, k)
    sigma = np.sqrt(estimator.var_under_state(k, ground) / len(records))
    assert abs(est - want) < 5.0 * sigma


@pytest.fixture(scope="module")
def budget_rows():
    link = lgt.link_local(1.0, 1.0)
    tri = lgt.triangle_local(1.0)
    ens = ensembles.subsample_su2(25, np.random.default_rng(1),
                                  targets=(link, tri), n=3)
    lats = [lgt.TriLattice(2, 2), lgt.TriLattice(4, 2)]
    return lgt.energy_budget_comparison(lats, ens, epsilon=0.1, delta=0.1)


def test_budget_strategy_ordering(budget_rows):
    for lat_rows in (budget_rows[:4], budget_rows[4:]):
        shots = {r.strategy: r.n_shots for r in lat_rows}
        assert shots["bias+adapt"] <= shots["bias-only"] <= shots["plain-CS"]
        assert shots["bias+adapt"] <= shots["adapt-only"] <= shots["plain-CS"]
        assert all(r.link_dominates for r in lat_rows if r.strategy == "plain-CS")


def test_budget_frozen_reference(budget_rows):
    shots = {r.strategy: r.n_shots for r in budget_rows[:4]}
    assert shots == {"plain-CS": 514, "bias-only": 514,
                     "adapt-only": 292, "bias+adapt": 280}


def test_budget_scales_logarithmically(budget_rows):
    # worst-candidate scores are shared, so N ratios follow ln(M / 2 delta)
    small = {r.strategy: r for r in budget_rows[:4]}
    big = {r.strategy: r for r in budget_rows[4:]}
    for strategy in lgt.STRATEGIES:
        a, b = small[strategy], big[strategy]
        assert b.m_terms == 2 * a.m_terms
        ratio = np.log(b.m_terms / 0.2) / np.log(a.m_terms / 0.2)
        assert b.n_shots == pytest.approx(a.n_shots * ratio, abs=2.0)


def test_budget_csv(budget_rows):
    text = lgt.budget_to_csv(budget_rows[:4], metadata={"seed": "1"})
    lines = text.splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1].startswith("strategy,n_qubits,M_terms")
    assert len(lines) == 6
    assert lines[2].startswith("plain-CS,6,10,")


def reference_winners(link_op, tri_op, ens, epsilon):
    """Each strategy's first minimum over its candidates, every candidate
    priced on its own kernel tables through adaptive.reweight, as
    (worst shot factor, (lambda_link, lambda_triangle, link_dominates,
    var_bound_link))."""
    lambdas = biasvar.default_lambda_grid()

    def family(op, n):
        # the biases are an input both sides share: kernel_biases is checked
        # against the dense spectral norm in test_biasvar
        kernels = biasvar.ridge_kernels(op, ens.with_n(n), lambdas)
        return list(zip(map(float, lambdas), kernels, biasvar.kernel_biases(op, kernels)))

    def price(k, q, slack):
        if q is not None:
            k = adaptive.reweight(k, q)
        var = float(np.dot(k.density, (k.values**2).max(axis=1)))
        return float(estimator.shot_factor(var, float(np.abs(k.values).max()), slack)), var

    def candidate(link_entry, tri_entry, adapt):
        (lam_l, k_l, bias_l), (lam_t, k_t, bias_t) = link_entry, tri_entry
        q = adaptive.q_multi([k_l, k_t]) if adapt else None
        c_link, var_link = price(k_l, q, epsilon - bias_l)
        c_tri, _ = price(k_t, q, epsilon - bias_t)
        return max(c_link, c_tri), (lam_l, lam_t, c_link >= c_tri, var_link)

    links, tris = family(link_op, 2), family(tri_op, 3)
    table = {
        "plain-CS": [candidate(links[0], tris[0], False)],
        "bias-only": [candidate(le, te, False) for le in links for te in tris],
        "adapt-only": [candidate(links[0], tris[0], adapt) for adapt in (False, True)],
        "bias+adapt": [candidate(le, te, adapt) for le in links for te in tris
                       for adapt in (False, True)],
    }
    return {strategy: min(cands, key=lambda c: c[0])
            for strategy, cands in table.items()}


# seed 1 is configs/lgt_budget.cfg; at epsilon = 0.5 the bias-only winners
# are ridge kernels (lambda_link = 100), at 0.1 the unbiased ones
@pytest.mark.parametrize("ensemble_seed, epsilon", (
    [pytest.param(seed, 0.1, id=str(seed)) for seed in (1, 2, 5, 9)]
    + [pytest.param(seed, 0.5, id=f"{seed}-eps0.5") for seed in (1, 2, 5, 9)]))
def test_array_ranking_picks_the_reference_winners(ensemble_seed, epsilon):
    link, tri = lgt.link_local(1.0, 1.0), lgt.triangle_local(1.0)
    ens = ensembles.subsample_su2(25, np.random.default_rng(ensemble_seed),
                                  targets=(link, tri), n=3)
    want = reference_winners(link, tri, ens, epsilon)
    assert (want["bias-only"][1][0] > 0) == (epsilon == 0.5)
    lats = [lgt.TriLattice(2, 2), lgt.TriLattice(4, 2)]
    rows = lgt.energy_budget_comparison(lats, ens, epsilon=epsilon)
    assert [r.strategy for r in rows] == 2 * list(want)
    for row in rows:
        worst, figures = want[row.strategy]
        # the winner's figures, bit for bit
        assert (row.lambda_link, row.lambda_triangle, row.link_dominates,
                row.var_bound_link) == figures
        shots = math.ceil(2.0 * estimator.confidence_log(row.m_terms, 0.1) * worst)
        assert row.n_shots == shots
