import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reshadow import ensembles, lgt, qcore
from reshadow.errors import RepresentabilityError

from test_records_csv import from_params_text, params_text

angles = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@given(angles, angles, angles)
def test_su2_matrix_is_special_unitary(theta, phi, psi):
    u = ensembles.su2_matrix(theta, phi, psi)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert np.isclose(np.linalg.det(u), 1.0, atol=1e-12)


@given(angles, angles, angles, st.integers(0, 3))
def test_outcome_projector_ignores_leading_phase_angle(theta, phi, psi, b):
    """V(theta,phi,psi)†|b><b|V depends only on (theta, psi); the leading
    z-rotation sits next to the diagonal projector and cancels."""
    with_phi = ensembles.su2_matrix(theta, phi, psi)
    without = ensembles.su2_matrix(theta, 0.0, psi)
    v1 = np.kron(with_phi, with_phi)
    v2 = np.kron(without, without)
    proj1 = np.outer(v1.conj().T[:, b], v1[b, :])
    proj2 = np.outer(v2.conj().T[:, b], v2[b, :])
    assert np.allclose(proj1, proj2, atol=1e-10)


def test_haar_angles_moments(rng):
    thetas, phis, psis = ensembles.haar_su2_angles(200_000, rng)
    # cos(theta) uniform on [-1, 1]
    c = np.cos(thetas)
    assert abs(c.mean()) < 0.01
    assert abs((c**2).mean() - 1.0 / 3.0) < 0.01
    assert 0 <= phis.min() and phis.max() <= 2 * np.pi
    assert 0 <= psis.min() and psis.max() <= 4 * np.pi


def test_basis_rotations_diagonalize_their_pauli():
    for letter in ensembles.CL2_BASES:
        u = ensembles.basis_rotation(letter)
        p = qcore.PauliString.from_word(letter).to_dense()
        assert np.allclose(u @ p @ u.conj().T, np.diag([1.0, -1.0]), atol=1e-12)


def test_realize_global_broadcasts_single_qubit(rng):
    theta, phi, psi = (float(a[0]) for a in ensembles.haar_su2_angles(1, rng))
    v = ensembles.SampledUnitary(ensembles.KIND_GLOBAL_SU2, 3,
                                 theta=theta, phi=phi, psi=psi)
    u1 = v.single_qubit()
    assert np.allclose(ensembles.realize(v), np.kron(np.kron(u1, u1), u1))


def test_local_clifford_word_realization():
    v = ensembles.SampledUnitary(ensembles.KIND_LOCAL_CLIFFORD, 2, word="XZ")
    expect = np.kron(ensembles.basis_rotation("X"), ensembles.basis_rotation("Z"))
    assert np.allclose(ensembles.realize(v), expect)


def test_params_text_roundtrip(rng):
    ens = ensembles.subsample_su2(4, rng)
    for m in ens.members:
        back = from_params_text(m.kind, m.n, params_text(m))
        assert back == dataclasses.replace(m, phi=0.0)  # records do not keep phi


def test_with_n_reregisters_members(rng):
    ens = ensembles.subsample_su2(5, rng, n=3)
    ens2 = ens.with_n(2)
    assert ens2.n == 2 and all(m.n == 2 for m in ens2.members)
    assert ens2.members[0].theta == ens.members[0].theta
    with pytest.raises(ValueError):
        ensembles.local_clifford(3).with_n(2)


def test_subsample_representability_gate(rng):
    link = lgt.link_local(1.0, 1.0)
    # six generic axes span the symmetric two-qubit component
    ens = ensembles.subsample_su2(6, rng, targets=(link,), n=2)
    assert len(ens.members) == 6
    # three axes almost surely cannot represent XX+YY+ZZ-type content
    with pytest.raises(RepresentabilityError):
        ensembles.subsample_su2(3, np.random.default_rng(1), targets=(link,), n=2)
