import numpy as np
import pytest

from reshadow import channels, qcore, visible
from reshadow.errors import NotVisibleError


def pauli(word):
    return qcore.PauliString.from_word(word).to_dense()


def test_msu2_single_qubit_eigenvalues():
    for word in "XYZ":
        assert np.allclose(channels.apply_msu2(pauli(word)), pauli(word) / 3.0,
                           atol=1e-14)
    eye = np.eye(2, dtype=complex)
    assert np.allclose(channels.apply_msu2(eye), eye, atol=1e-14)


def test_msu2_preserves_trace_and_hermiticity(rng):
    from conftest import random_hermitian

    a = random_hermitian(2, rng)
    out = channels.apply_msu2(a)
    assert np.isclose(np.trace(out), np.trace(a))
    assert np.allclose(out, out.conj().T)


def test_msu2_mixes_within_families_only(rng):
    # a pure XX input leaks into the same fixed-identity family (XX, YY, ZZ
    # share counts-compatible families) but never into other supports
    out = channels.apply_msu2(pauli("XX"))
    coeffs = qcore.pauli_decompose(out)
    assert abs(coeffs[0b00, 0b00]) < 1e-14  # no identity component
    assert abs(coeffs[0b10, 0b00]) < 1e-14  # no single-site XI


def test_inverse_msu2_roundtrip_on_visible(rng):
    n = 2
    sets_n = visible.enumerate_sets(n)
    amps = rng.normal(size=len(sets_n))
    a = visible.visible_from_family_coefficients(n, amps)
    out = channels.apply_msu2(channels.inverse_msu2(a))
    assert np.allclose(out, a, atol=1e-9)


def test_inverse_msu2_rejects_invisible():
    s = visible.FixedIdSet(2, 0, 1, 0, 1)
    with pytest.raises(NotVisibleError):
        channels.inverse_msu2(visible.build_Bperp(s, 1))


def test_mcl2_global_xk_eigenvalue():
    for k in range(1, 5):
        xk = pauli("X" * k)
        assert np.allclose(channels.apply_mcl2(xk), xk / 3.0, atol=1e-14)


def test_mcl2_mixed_word_annihilated():
    # XZ has no shared-basis representation, so global Cl(2) kills it
    assert np.allclose(channels.apply_mcl2(pauli("XZ")), 0.0, atol=1e-14)


def test_mcl2_unital(rng):
    dim = 4
    eye = np.eye(dim, dtype=complex)
    assert np.allclose(channels.apply_mcl2(eye / dim), eye / dim, atol=1e-12)


def test_shadow_norm_cl2_xk():
    for k in range(1, 5):
        assert abs(channels.shadow_norm_cl2(pauli("X" * k)) - 3.0) < 1e-9


def test_shadow_map_cl2_quadratic_scaling(rng):
    o = pauli("XX")
    assert np.allclose(channels.shadow_map_cl2(2.0 * o),
                       4.0 * channels.shadow_map_cl2(o), atol=1e-12)
