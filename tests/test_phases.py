"""Torus lattice, stabilizer states, patch features, and the phase classifier."""

import json
import tracemalloc

import numpy as np
import pytest

from reshadow import channels, ensembles, estimator, phases, qcore, visible
from reshadow.errors import ConfigError, NumericalDegeneracyError

from test_gates import embed_two


@pytest.fixture(scope="module")
def lat():
    return phases.EdgeLattice(2)


@pytest.fixture(scope="module")
def toric(lat):
    return phases.toric_ground(2)


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


# ---------------------------------------------------------------------------
# Lattice geometry
# ---------------------------------------------------------------------------


def test_lattice_counts(lat):
    assert lat.n_qubits == 8
    assert lat.n_patches == 4
    big = phases.EdgeLattice(3)
    assert big.n_qubits == 18
    assert big.n_patches == 12
    with pytest.raises(ValueError):
        phases.EdgeLattice(1)


def test_edge_ids(lat):
    assert lat.h_edge(0, 0) == 0 and lat.h_edge(0, 1) == 1
    assert lat.v_edge(0, 0) == 2 and lat.v_edge(0, 1) == 3
    assert lat.h_edge(1, 0) == 4 and lat.v_edge(1, 1) == 7
    # torus wraps
    assert lat.h_edge(2, 0) == lat.h_edge(0, 0)
    assert lat.v_edge(0, 2) == lat.v_edge(0, 0)


def test_patches_are_column_windows(lat):
    assert lat.patch(0) == (0, 2, 4)
    assert lat.patch(3) == (3, 5, 7)
    assert len(lat.patches()) == 4
    with pytest.raises(ValueError):
        lat.patch(4)


def test_matchings_tile_all_qubits(lat):
    for layer in (0, 1):
        pairs = lat.matching(layer)
        flat = [q for pair in pairs for q in pair]
        assert sorted(flat) == list(range(lat.n_qubits))
    assert lat.matching(0) != lat.matching(1)


def test_stars_and_plaquettes_commute(lat):
    stars = [phases.star_operator(lat, i, j) for i in range(2) for j in range(2)]
    plaqs = [phases.plaquette_operator(lat, i, j)
             for i in range(2) for j in range(2)]
    for a in stars:
        np.testing.assert_allclose(a @ a, np.eye(256), atol=1e-12)
        for b in plaqs:
            np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def test_toric_ground_is_stabilized(lat, toric):
    assert np.linalg.norm(toric) == pytest.approx(1.0)
    for i in range(2):
        for j in range(2):
            a = phases.star_operator(lat, i, j)
            b = phases.plaquette_operator(lat, i, j)
            np.testing.assert_allclose(a @ toric, toric, atol=1e-12)
            np.testing.assert_allclose(b @ toric, toric, atol=1e-12)


def test_product_state_breaks_star_symmetry(lat, toric):
    psi = phases.product_state(2)
    a = phases.star_operator(lat, 0, 0)
    assert np.linalg.norm(a @ psi - psi) > 1.0  # X-type flip moves it
    overlap = abs(np.vdot(psi, toric))
    assert 0.0 < overlap < 0.5


# ---------------------------------------------------------------------------
# Clifford layers
# ---------------------------------------------------------------------------


def _canonical_phase(u):
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-8))
    return u * (np.conj(flat[idx]) / abs(flat[idx]))


def _matrix_key(u):
    return (np.round(u, 9) + 0.0).tobytes()


def reference_two_qubit_cliffords():
    """The closure one matrix at a time, in (frontier, generator) order."""
    h, s, eye2 = qcore.HADAMARD, qcore.S_GATE, np.eye(2)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    gens = [np.kron(h, eye2), np.kron(eye2, h), np.kron(s, eye2),
            np.kron(eye2, s), cz]
    start = _canonical_phase(np.eye(4, dtype=complex))
    seen = {_matrix_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                cand = _canonical_phase(g @ u)
                key = _matrix_key(cand)
                if key not in seen:
                    seen[key] = cand
                    nxt.append(cand)
        frontier = nxt
    return np.array(list(seen.values()))


def test_two_qubit_clifford_group_size():
    group = phases.two_qubit_cliffords()
    assert group.shape == (11520, 4, 4)
    assert not group.flags.writeable
    assert np.array_equal(group[0], np.eye(4))
    assert len(set(phases._matrix_keys(group))) == 11520
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, 11520, size=5):
        u = group[idx]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)


def test_two_qubit_cliffords_match_one_at_a_time_closure():
    group = phases.two_qubit_cliffords()
    want = reference_two_qubit_cliffords()
    assert np.array_equal(group, want)
    assert group.tobytes() == want.tobytes()  # signed zeros too


def dense_lowdepth_state(lat, depth, rng, psi):
    """The same RNG draws as random_lowdepth_circuit, as one dense circuit matrix."""
    n = lat.n_qubits
    cliffords = phases.two_qubit_cliffords()
    u = np.eye(1 << n, dtype=complex)
    for layer in range(depth):
        for a, b in lat.matching(layer):
            gate = cliffords[int(rng.integers(len(cliffords)))]
            u = embed_two(gate, a, b, n) @ u
    return u @ psi


def test_lowdepth_circuit_depth_zero_is_identity(lat, toric):
    out = phases.random_lowdepth_circuit(lat, 0, np.random.default_rng(0), toric)
    assert np.array_equal(out, toric)


@pytest.mark.parametrize("depth", [1, 3])  # depth 2: the test below
def test_lowdepth_circuit_matches_dense_product(lat, toric, depth):
    out = phases.random_lowdepth_circuit(lat, depth, np.random.default_rng(depth),
                                         toric)
    want = dense_lowdepth_state(lat, depth, np.random.default_rng(depth), toric)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-14)


def test_lowdepth_circuit_unitary_and_deterministic(lat, toric):
    rng = np.random.default_rng(5)
    psi = rng.normal(size=toric.size) + 1j * rng.normal(size=toric.size)
    psi /= np.linalg.norm(psi)
    u1 = phases.random_lowdepth_circuit(lat, 2, np.random.default_rng(5), psi)
    u2 = phases.random_lowdepth_circuit(lat, 2, np.random.default_rng(5), psi)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1) == pytest.approx(1.0, abs=1e-12)
    want = dense_lowdepth_state(lat, 2, np.random.default_rng(5), psi)
    np.testing.assert_allclose(u1, want, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Patch tomography
# ---------------------------------------------------------------------------


def test_patch_rdm_estimates_converge(lat, toric):
    rdms = phases.patch_rdms(lat, toric, 10_000, np.random.default_rng(0))
    assert len(rdms) == 4
    rho_full = qcore.pure_density(toric)
    for sites, est in zip(lat.patches(), rdms):
        assert est.shape == (8, 8)
        assert np.trace(est).real == pytest.approx(1.0)
        assert qcore.is_hermitian(est)
        exact = qcore.partial_trace(rho_full, sites, 8)
        assert trace_distance(est, exact) < 0.15


def test_patch_rdms_match_per_shot_snapshot_sum(lat, toric):
    psi = phases.random_lowdepth_circuit(lat, 2, np.random.default_rng(5), toric)
    rdms = phases.patch_rdms(lat, psi, 900, np.random.default_rng(2))
    records = estimator.run_campaign(psi, ensembles.local_clifford(lat.n_qubits),
                                     900, np.random.default_rng(2))
    bits = estimator._site_bits(records.b, lat.n_qubits)
    snap = phases._snapshot_factors()
    for sites, got in zip(lat.patches(), rdms):
        factors = [snap[records.bases[:, q], bits[:, q]] for q in sites]
        want = np.einsum("nab,ncd,nef->acebdf", *factors).reshape(8, 8) / 900
        want = 0.5 * (want + want.conj().T)
        want /= np.trace(want).real
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_psd_projection_improves_noisy_estimate(lat, toric):
    rdms = phases.patch_rdms(lat, toric, 1500, np.random.default_rng(3))
    raw = rdms[0]
    assert np.linalg.eigvalsh(raw).min() < -1e-3  # genuinely indefinite
    proj = phases.psd_project(raw)
    assert np.linalg.eigvalsh(proj).min() >= -1e-12
    assert np.trace(proj).real == pytest.approx(1.0)
    exact = qcore.partial_trace(qcore.pure_density(toric), lat.patch(0), 8)
    assert trace_distance(proj, exact) < trace_distance(raw, exact)
    np.testing.assert_allclose(phases.psd_project(proj), proj, atol=1e-12)


def test_psd_projection_rejects_negative_mass():
    with pytest.raises(NumericalDegeneracyError):
        phases.psd_project(-np.eye(4))


def test_stacked_psd_projection_matches_one_at_a_time(lat, toric):
    rdms = phases.patch_rdms(lat, toric, 1500, np.random.default_rng(3))
    got = phases.psd_project(rdms)
    assert got.shape == (4, 8, 8)
    for raw, proj in zip(rdms, got):
        assert np.array_equal(proj, phases.psd_project(raw))
    with pytest.raises(NumericalDegeneracyError):
        phases.psd_project(np.stack([rdms[0], -np.eye(8), rdms[1]]))


# ---------------------------------------------------------------------------
# Patch features
# ---------------------------------------------------------------------------


def test_identity_feature_is_exact(rng):
    rho = np.eye(8) / 8.0
    feats = phases.patch_features(rho[None], 50, rng)[0]
    idx = [i for i, s in enumerate(visible.enumerate_sets(3))
           if s.counts == (0, 0, 0)]
    assert len(idx) == 1
    assert feats[idx[0]] == pytest.approx(1.0 / np.sqrt(8.0), abs=1e-12)


def test_maximally_mixed_features_vanish(rng):
    rho = np.eye(8) / 8.0
    n_shots = 4000
    feats = phases.patch_features(rho[None], n_shots, rng)[0]
    ens = ensembles.global_su2(3)
    sets = list(visible.enumerate_sets(3))
    for i in (1, 9, 20, 37):
        if sets[i].counts == (0, 0, 0):
            continue
        k = estimator.kernel_cs(visible.build_B(sets[i]), ens)
        sigma = np.sqrt(estimator.var_under_state(k, rho) / n_shots)
        assert abs(feats[i]) < 5.0 * sigma


def test_patch_features_match_per_feature_einsum(lat, toric):
    rdm = phases.patch_rdms(lat, toric, 800, np.random.default_rng(1))[0]
    feats = phases.patch_features(rdm[None], 300, np.random.default_rng(5))[0]
    records = estimator.run_campaign(phases.psd_project(rdm),
                                     ensembles.global_su2(3), 300,
                                     np.random.default_rng(5))
    u = ensembles.su2_matrix(records.thetas, 0.0, records.psis)
    bits = estimator._site_bits(records.b, 3)
    idx = np.arange(len(records))
    phi = np.ones((len(records), 1), dtype=complex)
    for site in range(3):
        rows = np.conj(u[idx, bits[:, site], :])
        phi = (phi[:, :, None] * rows[:, None, :]).reshape(len(records), -1)
    want = [np.real(np.einsum("ni,ij,nj->n", phi.conj(), op, phi)).mean()
            for op in phases._patch_inverse_ops(3)]
    np.testing.assert_allclose(feats, want, rtol=0, atol=1e-12)


def per_patch_features(rdms, n_su2, rng):
    """One global-SU(2) campaign per patch: its outcome rows as one C-ordered
    table, summed over axis 0, and the inverse channel of every patch's mean
    row in one stacked call."""
    sums = []
    for r in rdms:
        records = estimator.run_campaign(phases.psd_project(r), ensembles.global_su2(3),
                                         n_su2, rng)
        u = ensembles.su2_matrix(records.thetas, 0.0, records.psis)
        w = visible.axes_table(visible.bloch_axes(u), 3)
        sums.append(np.ascontiguousarray(visible.outcome_rows(w, records.b, 3)).sum(axis=0))
    return channels.msu2_amplitudes(3, np.stack(sums).T / n_su2, True).T


@pytest.mark.parametrize("n_su2, circuit_seed", [
    pytest.param(n_su2, seed, id=str(n_su2))
    for n_su2, seed in [(400, 4), (5000, 4), (1725, 4), (3449, 0)]])
def test_batched_features_match_per_patch_campaigns(lat, toric, n_su2, circuit_seed):
    """One pass over a state's patches draws every shot and sums its outcome
    row as the per-patch campaigns do (5000 shots are two chunks per patch,
    and their blocks straddle the chunk and patch boundaries), bit for bit.
    At 1725 and 3449 shots a patch's last shot sits alone in a 1724-row block
    of its campaign, and alone among its patch's rows in a block of the pass."""
    psi = phases.random_lowdepth_circuit(lat, 1, np.random.default_rng(circuit_seed),
                                         toric)
    rdms = phases.patch_rdms(lat, psi, 2500, np.random.default_rng(6))
    got = phases.patch_features(rdms, n_su2, np.random.default_rng(8))
    assert got.shape == (4, 38)
    assert np.array_equal(got, per_patch_features(rdms, n_su2, np.random.default_rng(8)))
    # the generator goes on as after the per-patch campaigns
    after = np.random.default_rng(8)
    per_patch_features(rdms, n_su2, after)
    rng = np.random.default_rng(8)
    phases.patch_features(rdms, n_su2, rng)
    assert rng.spawn(1)[0].random() == after.spawn(1)[0].random()


def test_feature_pass_memory_stays_below_one_patch_campaign(lat, toric):
    """At 2^16 shots a patch, one state's pass peaks below one patch's
    campaign read as a whole, which holds a (shots, 38) table of outcome rows."""
    rdms = phases.patch_rdms(lat, toric, 2000, np.random.default_rng(1))
    peaks = []
    for run in (lambda: phases.patch_features(rdms, 1 << 16, np.random.default_rng(2)),
                lambda: per_patch_features(rdms[:1], 1 << 16, np.random.default_rng(2))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_features_track_exact_patch_values(lat, toric):
    exact_rdm = qcore.partial_trace(qcore.pure_density(toric), lat.patch(0), 8)
    n_shots = 4000
    feats = phases.patch_features(exact_rdm[None], n_shots, np.random.default_rng(2))[0]
    ens = ensembles.global_su2(3)
    sets = list(visible.enumerate_sets(3))
    checked = 0
    for i in (0, 5, 13, 24, 31):
        b_s = visible.build_B(sets[i])
        want = np.trace(exact_rdm @ b_s).real
        k = estimator.kernel_cs(b_s, ens)
        sigma = np.sqrt(estimator.var_under_state(k, exact_rdm) / n_shots)
        assert abs(feats[i] - want) <= max(5.0 * sigma, 1e-12)
        checked += 1
    assert checked == 5


# ---------------------------------------------------------------------------
# Kernel and PCA
# ---------------------------------------------------------------------------


def test_default_lambda_formula():
    feats = np.ones((2, 1, 4))  # total square sum = 8
    assert phases.default_lambda(feats) == pytest.approx(2.0 / 24.0)
    with pytest.raises(ValueError):
        phases.default_lambda(np.zeros((2, 1, 4)))


def test_kernel_matrix_properties(rng):
    feats = rng.normal(size=(6, 4, 38)) * 0.3
    k = phases.build_kernel(feats)
    m = k.matrix
    np.testing.assert_allclose(m, m.T, atol=1e-14)
    np.testing.assert_allclose(np.diag(m), 1.0)
    assert np.all(m > 0) and np.all(m <= 1.0 + 1e-12)


def test_identical_features_give_flat_kernel():
    feats = np.tile(np.linspace(0.1, 0.5, 38), (4, 2, 1))
    k = phases.build_kernel(feats)
    np.testing.assert_allclose(k.matrix, 1.0, atol=1e-12)


def test_build_kernel_rejects_overflowing_lambda(rng):
    feats = rng.normal(size=(6, 4, 38)) * 0.3
    with pytest.raises(ConfigError, match="lam = 1e\\+300 .* largest usable value") as err:
        phases.build_kernel(feats, lam=1e300)
    largest = float(str(err.value).rsplit(" ", 1)[1])
    k = phases.build_kernel(feats, lam=largest)  # no overflow warning
    assert np.isfinite(k.matrix).all()
    with pytest.raises(ConfigError):
        phases.build_kernel(feats, lam=np.nextafter(largest, np.inf))


def test_build_kernel_validates_shape():
    with pytest.raises(ValueError):
        phases.build_kernel(np.ones((3, 38)))


def test_pca_separates_two_blocks():
    m = np.ones((6, 6))
    m[:3, 3:] = m[3:, :3] = 0.2
    coords = phases.kernel_pca_1d(phases.PhaseKernel(m, lam=1.0))
    assert coords[0] >= 0  # sign convention
    labels = np.array(["a"] * 3 + ["b"] * 3)
    assert phases.separation_margin(coords, labels) > 0.5


def test_pca_equivariant_up_to_sign(rng):
    feats = rng.normal(size=(8, 4, 38)) * 0.2
    k = phases.build_kernel(feats)
    c1 = phases.kernel_pca_1d(k)
    perm = rng.permutation(8)
    k2 = phases.PhaseKernel(k.matrix[np.ix_(perm, perm)], lam=k.lam)
    c2 = phases.kernel_pca_1d(k2)
    dev = min(np.abs(c2 - c1[perm]).max(), np.abs(c2 + c1[perm]).max())
    assert dev < 1e-10


def test_separation_margin_signs():
    coords = np.array([-1.0, -0.5, 0.5, 1.0])
    labels = ["a", "a", "b", "b"]
    assert phases.separation_margin(coords, labels) == pytest.approx(1.0)
    mixed = np.array([-1.0, 0.6, 0.5, 1.0])
    assert phases.separation_margin(mixed, labels) < 0
    with pytest.raises(ValueError):
        phases.separation_margin(coords, ["a", "b", "c", "a"])


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_run():
    return phases.run_phase_classification(
        L=2, depth=0, states_per_phase=3, n_rp=3000, n_su2=400,
        rng=np.random.default_rng(0))


def test_pipeline_separates_phases_at_depth_zero(mini_run):
    res = mini_run
    assert res.labels == [phases.TRIVIAL] * 3 + [phases.TORIC] * 3
    assert res.features.shape == (6, 4, 38)
    margin = phases.separation_margin(res.coords, res.labels)
    assert margin > 0.2  # measured 0.377 for this seed


def test_pipeline_deterministic():
    kw = dict(L=2, depth=1, states_per_phase=2, n_rp=1000, n_su2=200)
    r1 = phases.run_phase_classification(rng=np.random.default_rng(9), **kw)
    r2 = phases.run_phase_classification(rng=np.random.default_rng(9), **kw)
    assert np.array_equal(r1.coords, r2.coords)
    assert np.array_equal(r1.features, r2.features)


def test_features_do_not_depend_on_threads():
    """At n_rp = 5000 the random-Pauli campaign is two chunks, which two
    threads draw at once."""
    kw = dict(L=2, depth=1, states_per_phase=1, n_rp=5000, n_su2=200)
    r1 = phases.run_phase_classification(rng=np.random.default_rng(3), threads=1, **kw)
    r2 = phases.run_phase_classification(rng=np.random.default_rng(3), threads=2, **kw)
    assert np.array_equal(r1.features, r2.features)
    assert np.array_equal(r1.kernel.matrix, r2.kernel.matrix)


def test_result_serialization(mini_run):
    doc = json.loads(phases.result_to_json(mini_run, metadata={"seed": "0"}))
    assert doc["seed"] == "0"
    assert len(doc["states"]) == 6
    assert doc["states"][0]["phase_label"] == phases.TRIVIAL
    assert doc["states"][0]["depth"] == 0

    text = phases.kernel_to_csv(mini_run.kernel, metadata={"seed": "0"})
    lines = text.splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1].startswith("# lambda=")
    assert lines[2] == "s0,s1,s2,s3,s4,s5"
    assert len(lines) == 9
