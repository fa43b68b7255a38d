import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reshadow import ensembles, estimator, qcore, visible

from conftest import random_hermitian
from references import diagonal


def test_set_counts_match_closed_form():
    # 2^n (n^2 + 7n + 8) / 8
    expected = [4, 13, 38, 104, 272]
    for n, want in zip(range(1, 6), expected):
        assert visible.expected_set_count(n) == want
        assert len(visible.enumerate_sets(n)) == want


def test_family_size_multinomial():
    s = visible.FixedIdSet(3, 0, 1, 1, 1)
    assert s.size == 6
    assert len(s.members()) == 6


def test_classify_inverts_membership():
    for s in visible.enumerate_sets(2):
        for p in s.members():
            assert visible.classify(p) == s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_visible_basis_orthonormal(n):
    mats = [visible.build_B(s) for s in visible.enumerate_sets(n)]
    gram = np.array([[qcore.hs_inner(a, b) for b in mats] for a in mats])
    assert np.allclose(gram, np.eye(len(mats)), atol=1e-12)


def test_bperp_orthogonal_within_family():
    s = visible.FixedIdSet(2, 0, 1, 0, 1)  # XZ family, size 2
    b = visible.build_B(s)
    bp = visible.build_Bperp(s, 1)
    assert abs(qcore.hs_inner(b, bp)) < 1e-12
    assert np.isclose(qcore.hs_norm(bp), 1.0)
    with pytest.raises(ValueError):
        visible.build_Bperp(visible.FixedIdSet(1, 0, 1, 0, 0), 1)


def test_family_coefficients_roundtrip(rng):
    n = 2
    sets_n = visible.enumerate_sets(n)
    amps = rng.normal(size=len(sets_n))
    a = visible.visible_from_family_coefficients(n, amps)
    assert np.allclose(visible.family_coefficients(a), amps)


def test_project_visible_idempotent_and_orthogonal(rng):
    a = random_hermitian(2, rng)
    p = visible.project_visible(a)
    assert np.allclose(visible.project_visible(p), p)
    # residual orthogonal to every basis element
    resid = a - p
    for s in visible.enumerate_sets(2):
        assert abs(qcore.hs_inner(visible.build_B(s), resid)) < 1e-10
    assert np.isclose(visible.family_split(p)[1], 0.0, atol=1e-10)
    assert visible.family_split(a)[1] >= 0.0


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_identity_padding_changes_family_not_counts(nx, ny, nz):
    free = nx + ny + nz
    if free == 0 or free > 3:
        return
    n = free + 1
    mask = 1 << (n - 1)  # identity on site 0
    s = visible.FixedIdSet(n, mask, nx, ny, nz)
    assert s.counts == (nx, ny, nz)


# ---------------------------------------------------------------------------
# Global rotations in family coordinates
# ---------------------------------------------------------------------------


def global_gates(n, rng):
    """SU(2) quadrature nodes, Haar subsample members and the Cl(2) members."""
    nodes, _ = estimator.su2_quadrature_angles(n)
    picks = rng.choice(len(nodes), size=6, replace=False)
    sub = ensembles.subsample_su2(5, rng, n=n)
    return np.concatenate([
        estimator._node_gates([nodes[i] for i in picks]),
        estimator._member_gates(sub),
        estimator._member_gates(ensembles.global_cl2(n)),
    ])


@pytest.mark.parametrize("n", range(1, 9))
def test_rotated_diagonal_matches_references(n):
    rng = np.random.default_rng(40 + n)
    u = global_gates(n, rng)
    dense = np.stack([qcore.kron_all([g] * n) for g in u])
    a = random_hermitian(n, rng)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for op in (a, rho):  # a Hermitian operator and a density matrix
        got = visible.rotated_diagonal(visible.family_coefficients(op).real, u, n)
        scale = np.abs(op).sum()
        want = np.real(np.einsum("rbi,ij,rbj->rb", dense, op, dense.conj()))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(got, diagonal(op, u), rtol=0, atol=1e-12 * scale)


def test_rotated_diagonal_runs_in_blocks():
    # 5000 rotations at n = 5 (272 families) span 21 blocks of 240 rows
    n, rng = 5, np.random.default_rng(2)
    thetas, _, psis = ensembles.haar_su2_angles(5000, rng)
    u = ensembles.su2_matrix(thetas, 0.0, psis)
    a = random_hermitian(n, rng)
    amps = visible.family_coefficients(a).real
    np.testing.assert_allclose(visible.rotated_diagonal(amps, u, n), diagonal(a, u),
                               rtol=0, atol=1e-12 * np.abs(a).sum())


def test_family_table_entries_are_measured_basis_elements():
    """W[j, S] (-1)^{popcount(b & F_S)} = <b|V_j B_S V_j†|b>, signs included,
    and a shot's row of outcome_rows is that table at its outcome."""
    n, rng = 3, np.random.default_rng(3)
    u = global_gates(n, rng)
    got = (visible.axes_table(visible.bloch_axes(u), n)[:, :, None]
           * visible.family_signs(n)[None, :, :])
    basis = np.stack([visible.build_B(s) for s in visible.enumerate_sets(n)])
    dense = np.stack([qcore.kron_all([g] * n) for g in u])
    want = np.real(np.einsum("rbi,sij,rbj->rsb", dense, basis, dense.conj()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    b = rng.integers(0, 1 << n, size=len(u))  # one measured outcome per row
    rows = visible.outcome_rows(visible.axes_table(visible.bloch_axes(u), n), b, n)
    assert np.array_equal(rows, got[np.arange(len(u)), :, b])


@pytest.mark.parametrize("n", range(1, 9))
def test_family_table_matches_power_formula(n):
    rng = np.random.default_rng(60 + n)
    thetas, _, psis = ensembles.haar_su2_angles(50, rng)
    # the identity and a bit flip have the axes (0, 0, +1) and (0, 0, -1)
    flip = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    u = np.concatenate([ensembles.su2_matrix(thetas, 0.0, psis),
                        np.stack([np.eye(2, dtype=complex), flip])])
    ab = u[:, 0, 0] * u[:, 0, 1].conj()
    m = np.stack([2.0 * ab.real, 2.0 * ab.imag,
                  abs(u[:, 0, 0]) ** 2 - abs(u[:, 0, 1]) ** 2], axis=1)
    sets = visible.enumerate_sets(n)
    counts = np.array([s.counts for s in sets])
    scale = np.sqrt([s.size / (1 << n) for s in sets])
    want = scale * np.prod(m[:, None, :] ** counts[None, :, :], axis=2)
    got = visible.axes_table(visible.bloch_axes(u), n)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    ones = (counts[:, 0] == 0) & (counts[:, 1] == 0)
    np.testing.assert_array_equal(got[-2:, ones],
                                  scale[ones] * [[1.0], [-1.0]] ** counts[ones, 2])


def test_family_basis_stacks_the_basis_elements():
    n = 3
    basis = visible.family_basis(n)
    want = [visible.build_B(s).ravel() for s in visible.enumerate_sets(n)]
    assert np.array_equal(basis, want)
    assert not basis.flags.writeable


def test_family_signs_are_plus_and_minus_one():
    # parity is uint8: 1 - 2 * parity would wrap to 255 where it is odd
    n = 4
    signs = visible.family_signs(n)
    free = [((1 << n) - 1) ^ s.r_mask for s in visible.enumerate_sets(n)]
    want = [[(-1.0) ** bin(b & f).count("1") for b in range(1 << n)] for f in free]
    assert signs.dtype == np.float64
    assert np.array_equal(signs, want)
    assert (signs == -1.0).sum() == (signs == 1.0).sum() - (1 << n)


def test_family_forms_reject_per_site_gates():
    u = np.broadcast_to(np.eye(2, dtype=complex), (4, 3, 2, 2))
    with pytest.raises(ValueError, match="per row"):
        visible.rotated_diagonal(np.ones(38), u, 3)
    with pytest.raises(ValueError, match="per row"):
        visible.bloch_axes(u)


def test_bloch_axes_do_not_depend_on_table_length():
    # a table of 20000 rotations (a full block at n = 1 holds 16384) gives
    # every row the axes it gets in a table of its own
    thetas, _, psis = ensembles.haar_su2_angles(20000, np.random.default_rng(3))
    u = ensembles.su2_matrix(thetas, 0.0, psis)
    alone = np.concatenate([visible.bloch_axes(u[j:j + 1]) for j in range(len(u))], axis=1)
    assert np.array_equal(visible.bloch_axes(u), alone)


@pytest.mark.parametrize("n", range(1, 6))
def test_axes_table_from_angles_matches_family_table(n):
    """The channel Monte Carlo's table from the Bloch axes of its angles
    equals the table of the rotations su2_matrix(θ, 0, ψ), poles included."""
    thetas, _, psis = ensembles.haar_su2_angles(200, np.random.default_rng(80 + n))
    thetas = np.concatenate([thetas, [0.0, np.pi, 0.0, np.pi]])
    psis = np.concatenate([psis, [0.0, 0.0, 1.3, 4.0 * np.pi - 0.1]])
    got = visible.axes_table(ensembles.su2_axis(thetas, psis), n)
    want = visible.axes_table(
        visible.bloch_axes(ensembles.su2_matrix(thetas, 0.0, psis)), n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
