import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reshadow import qcore
from reshadow.errors import DimensionCapError

words = st.text(alphabet="IXYZ", min_size=1, max_size=5)


def test_qubit_cap():
    qcore.check_qubit_count(14)
    with pytest.raises(DimensionCapError):
        qcore.check_qubit_count(15)


def test_pauli_word_roundtrip():
    p = qcore.PauliString.from_word("IXYZ")
    assert p.word == "IXYZ"
    assert p.weight == 3


@given(words)
def test_pauli_dense_is_hermitian_unitary(word):
    m = qcore.PauliString.from_word(word).to_dense()
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(m.shape[0]))


def test_site_convention_leftmost_is_msb():
    # site 0 is the leftmost Kronecker factor: Z on site 0 of 2 qubits
    z0 = qcore.PauliString.from_word("ZI").to_dense()
    assert np.allclose(z0, np.kron(np.diag([1.0, -1.0]), np.eye(2)))
    # bit of site 0 in outcome index b is the msb
    assert qcore.bits_of(0b10, 2, [0]) == 1
    assert qcore.bits_of(0b10, 2, [1]) == 0


def test_pauli_decompose_recompose_roundtrip(rng):
    from conftest import random_hermitian

    a = random_hermitian(3, rng)
    coeffs = qcore.pauli_decompose(a)
    assert np.allclose(qcore.pauli_recompose(coeffs), a)
    # Parseval in the normalized convention
    assert np.isclose((np.abs(coeffs) ** 2).sum() * (1 << 3),
                      qcore.hs_norm(a) ** 2)


def test_fwht_is_hadamard_transform():
    a = np.array([1.0, 2.0, 3.0, 5.0])
    h = np.array([[1, 1], [1, -1]], dtype=float)
    h2 = np.kron(h, h)
    want = h2 @ a
    assert qcore._fwht(a) is a  # in place
    assert np.allclose(a, want)


def test_partial_trace_ghz_pair():
    ghz = (qcore.basis_state(3, 0) + qcore.basis_state(3, 7)) / np.sqrt(2)
    rho = qcore.pure_density(ghz)
    reduced = qcore.partial_trace(rho, [0, 1])
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.allclose(reduced, expect)
    assert np.isclose(np.trace(reduced).real, 1.0)


def test_partial_trace_product_factor(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi /= np.linalg.norm(phi)
    rho = qcore.pure_density(np.kron(psi, phi))
    assert np.allclose(qcore.partial_trace(rho, [0]), qcore.pure_density(psi))
    assert np.allclose(qcore.partial_trace(rho, [1, 2]), qcore.pure_density(phi))


def test_born_probabilities_sum_and_match_amplitudes(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    v = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
    p = qcore.born_probabilities(qcore.pure_density(psi), v)
    assert np.isclose(p.sum(), 1.0)
    assert np.allclose(p, np.abs(v @ psi) ** 2)


def test_spectral_norm_matches_eigh(rng):
    from conftest import random_hermitian

    a = random_hermitian(3, rng)
    assert np.isclose(qcore.spectral_norm(a),
                      np.abs(np.linalg.eigvalsh(a)).max(), atol=1e-7)


def test_spectral_norm_is_exact_on_near_degenerate_spectrum():
    # power iteration stalled at 0.99999990 here: |1| and |-0.9999999| are
    # too close for its stopping rule
    a = np.diag([1.0, -0.9999999, 0.3]).astype(complex)
    assert qcore.spectral_norm(a) == pytest.approx(1.0, rel=1e-15)


def test_spectral_norm_matches_largest_singular_value():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    want = np.linalg.svd(a, compute_uv=False).max()
    assert qcore.spectral_norm(a) == pytest.approx(want, rel=1e-13)
    assert qcore.spectral_norm(np.zeros((4, 4))) == 0.0


@given(rows=st.integers(1, 9), dim_bits=st.integers(1, 12),
       shots=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_invert_cdf_with_rows_matches_gathered_table(rows, dim_bits, shots, seed):
    rng = np.random.default_rng(seed)
    probs = rng.random((rows, 1 << dim_bits)) ** 4
    probs /= probs.sum(axis=1, keepdims=True)
    pick = rng.integers(0, rows, size=shots)
    want = qcore.sample_bits(probs[pick], np.random.default_rng(9))
    got = qcore.invert_cdf(np.cumsum(probs, axis=1),
                           np.random.default_rng(9).random(shots), pick)
    assert np.array_equal(got, want)
