"""The per-site gate kernels against dense Kronecker products."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reshadow import gates, qcore

from conftest import random_hermitian
from references import diagonal


def random_unitaries(shape, rng):
    z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return np.linalg.qr(z)[0]


def embed_two(gate, a, b, n):
    """Dense n-qubit operator acting with the 4x4 `gate` on sites (a, b)."""
    rest = [q for q in range(n) if q not in (a, b)]
    order = [a, b] + rest
    big = np.kron(gate, np.eye(1 << (n - 2), dtype=complex))
    t = big.reshape([2] * (2 * n))
    inv = np.argsort(order)
    t = t.transpose(list(inv) + [n + k for k in inv])
    return t.reshape(1 << n, 1 << n)


def test_embed_two_reference_places_factors():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1.0, 1j])
    np.testing.assert_allclose(embed_two(np.kron(h, s), 1, 0, 2), np.kron(s, h),
                               atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rotate_pair_matches_dense_embedding(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gate = np.linalg.qr(z)[0]
    states = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            t = states.copy()
            gates.rotate_pair(t, a, b, gate)
            want = states @ embed_two(gate, a, b, n).T
            np.testing.assert_allclose(t, want, rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(n=st.integers(1, 6), count=st.integers(1, 5), shared=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_rows_and_diagonal_match_dense(n, count, shared, seed):
    """shared: the same rotation for every row (a read-only broadcast view)."""
    rng = np.random.default_rng(seed)
    g = random_unitaries((1 if shared else count,), rng)
    if shared:
        g = np.broadcast_to(g, (count, 2, 2))
    dense = np.stack([qcore.kron_all([g[r]] * n) for r in range(count)])

    dim = 1 << n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    np.testing.assert_allclose(gates.rows(g, n, psi), dense @ psi, rtol=0,
                               atol=1e-12 * np.linalg.norm(psi))
    starts = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    want = np.einsum("rij,rj->ri", dense, starts)
    np.testing.assert_allclose(gates.rows(g, n, starts), want, rtol=0,
                               atol=1e-12 * np.abs(starts).sum(axis=1).max())

    a = random_hermitian(n, rng)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for op in (a, rho):  # a Hermitian operator and a density matrix
        want = np.real(np.einsum("rbi,ij,rbj->rb", dense, op, dense.conj()))
        np.testing.assert_allclose(diagonal(op, g), want, rtol=0,
                                   atol=1e-12 * np.abs(op).sum())


def test_diagonal_runs_in_blocks():
    # more rows than one block holds at n = 4: several blocks, same result
    n, count = 4, 3 * (gates.BLOCK >> 8) + 5
    rng = np.random.default_rng(1)
    g = random_unitaries((count,), rng)
    a = random_hermitian(n, rng)
    dense = [qcore.kron_all([u] * n) for u in g]
    want = np.stack([np.real(np.diag(v @ a @ v.conj().T)) for v in dense])
    np.testing.assert_allclose(diagonal(a, g), want, rtol=0,
                               atol=1e-12 * np.abs(a).sum())


def test_blocks_cover_rows_within_budget():
    for count, size in [(448, 4096), (5, 1 << 16), (3, 1 << 18), (20000, 16)]:
        spans = [range(count)[b] for b in gates.blocks(count, size)]
        assert [i for s in spans for i in s] == list(range(count))
        assert all(len(s) * size <= max(gates.BLOCK, size) for s in spans)
    assert len(list(gates.blocks(448, 4096))) == 28  # the n = 6 quadrature
