"""Pauli-table transforms against the per-term loops they replaced.

The references below walk Pauli words one x row, one (x, z) pair or one
family at a time, the way the package used to. Transforms and family ids
must match them exactly; sums in another order must match to 1e-14 of the
operator's scale.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reshadow import biasvar, channels, lgt, qcore, visible

qubits = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)


def random_operator(n, rng):
    dim = 1 << n
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------


def ref_fwht(a):
    """Walsh-Hadamard transform along the last axis, a new array per stage."""
    h = 1
    size = a.shape[-1]
    while h < size:
        a = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack([top, bot], axis=-2).reshape(a.shape[:-3] + (size,))
        h *= 2
    return a


def same_bits(a, b):
    """Equal values and dtypes, negative zeros included."""
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def ref_pauli_decompose(a):
    n = qcore.num_qubits(a)
    dim = 1 << n
    rows = np.arange(dim)
    coeffs = np.empty((dim, dim), dtype=complex)
    for x in range(dim):
        wh = ref_fwht(a[rows ^ x, rows])
        coeffs[x, :] = wh * ((-1.0j) ** np.bitwise_count(x & np.arange(dim)))
    return coeffs / dim


def ref_pauli_recompose(coeffs):
    dim = coeffs.shape[0]
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        line = coeffs[x, :] * ((-1.0j) ** np.bitwise_count(x & np.arange(dim)))
        out[rows, rows ^ x] += ref_fwht(line)
    return out


@lru_cache(maxsize=8)
def ref_family_index_table(n):
    """(set id per (x, z), flat member indices per family), one word at a time."""
    sets = visible.enumerate_sets(n)
    lookup = {s: i for i, s in enumerate(sets)}
    dim = 1 << n
    table = np.empty((dim, dim), dtype=np.int64)
    members = [[] for _ in sets]
    for x in range(dim):
        for z in range(dim):
            s = visible.classify(qcore.PauliString(n, x, z))
            table[x, z] = lookup[s]
            members[lookup[s]].append(x * dim + z)
    return table, members


def ref_family_coefficients(a):
    n = qcore.num_qubits(a)
    coeffs = ref_pauli_decompose(a).ravel()
    _, members = ref_family_index_table(n)
    return np.array([np.sqrt((1 << n) / s.size) * coeffs[m].sum()
                     for s, m in zip(visible.enumerate_sets(n), members)])


def ref_visible_from_family_coefficients(n, amps):
    dim = 1 << n
    _, members = ref_family_index_table(n)
    coeffs = np.zeros(dim * dim, dtype=complex)
    for amp, s, m in zip(amps, visible.enumerate_sets(n), members):
        coeffs[m] = amp / np.sqrt(dim * s.size)
    return ref_pauli_recompose(coeffs.reshape(dim, dim))


def ref_project_visible(o):
    n = qcore.num_qubits(o)
    dim = 1 << n
    coeffs = ref_pauli_decompose(o).ravel()
    out = np.zeros_like(coeffs)
    for m in ref_family_index_table(n)[1]:
        out[m] = coeffs[m].mean()
    return ref_pauli_recompose(out.reshape(dim, dim))


def ref_cl2_masks(n):
    """Flat masks of the X-only, Y-only and Z-only words (identity in all)."""
    dim = 1 << n
    x = np.repeat(np.arange(dim), dim)
    z = np.tile(np.arange(dim), dim)
    return z == 0, x == z, x == 0


def ref_apply_mcl2(a, inverse=False):
    n = qcore.num_qubits(a)
    dim = 1 << n
    coeffs = ref_pauli_decompose(a).ravel()
    fam_x, fam_y, fam_z = ref_cl2_masks(n)
    in_family = fam_x | fam_y | fam_z
    out = np.zeros_like(coeffs)
    out[in_family] = coeffs[in_family] * 3.0 if inverse else coeffs[in_family] / 3.0
    out[0] = coeffs[0]
    return ref_pauli_recompose(out.reshape(dim, dim))


def ref_shadow_map_cl2(o):
    n = qcore.num_qubits(o)
    dim = 1 << n
    coeffs = ref_pauli_decompose(o).ravel()
    out = np.zeros((dim, dim), dtype=complex)
    for fam in ref_cl2_masks(n):
        fam_coeffs = np.zeros_like(coeffs)
        fam_coeffs[fam] = coeffs[fam]
        g = ref_pauli_recompose(fam_coeffs.reshape(dim, dim))
        out += g @ g
    return out / 3.0


def ref_operator_support(o, tol=1e-12):
    n = qcore.num_qubits(o)
    xs, zs = np.nonzero(np.abs(ref_pauli_decompose(o)) > tol)
    sites = set()
    for x, z in zip(xs, zs):
        for i in range(n):
            if ((int(x) | int(z)) >> (n - 1 - i)) & 1:
                sites.add(i)
    return tuple(sorted(sites))


def ref_reduce_to_support(o, support):
    n = qcore.num_qubits(o)
    l = len(support)
    coeffs = ref_pauli_decompose(o)
    local = np.zeros((1 << l, 1 << l), dtype=complex)
    xs, zs = np.nonzero(np.abs(coeffs) > 1e-14)
    for x, z in zip(xs, zs):
        local += coeffs[x, z] * qcore.pauli_dense(
            l, qcore.bits_of(int(x), n, support), qcore.bits_of(int(z), n, support))
    return local


def ref_term_dense_full(term, n):
    l = len(term.sites)
    coeffs = ref_pauli_decompose(term.operator)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    xs, zs = np.nonzero(np.abs(coeffs) > 1e-14)
    for x, z in zip(xs, zs):
        x_g = z_g = 0
        for pos, site in enumerate(term.sites):
            bit = 1 << (n - 1 - site)
            if (int(x) >> (l - 1 - pos)) & 1:
                x_g |= bit
            if (int(z) >> (l - 1 - pos)) & 1:
                z_g |= bit
        out += coeffs[x, z] * qcore.pauli_dense(n, x_g, z_g)
    return out


def random_local_term(n, rng, diagonal):
    """A random (or random diagonal) operator on 1..min(n, 4) ordered sites."""
    sites = tuple(int(s) for s in rng.permutation(n)[:rng.integers(1, min(n, 4) + 1)])
    op = random_operator(len(sites), rng)
    return lgt.HamTerm("link", sites, np.diag(np.diag(op)) if diagonal else op,
                       1.0, 1.0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=30)
@given(n=qubits, seed=seeds)
def test_transforms_match_per_x_loops(n, seed):
    rng = np.random.default_rng(seed)
    a = random_operator(n, rng)
    a[rng.random(a.shape) < 0.25] = 0.0  # zeros, so that signs of zero show
    coeffs = qcore.pauli_decompose(a)
    assert same_bits(coeffs, ref_pauli_decompose(a))
    assert same_bits(qcore.pauli_decompose(a.real), ref_pauli_decompose(a.real))
    assert same_bits(qcore.pauli_recompose(coeffs), ref_pauli_recompose(coeffs))
    assert same_bits(qcore.pauli_recompose(coeffs.real),
                     ref_pauli_recompose(coeffs.real))
    table = a.copy()
    assert qcore._fwht(table) is table  # in place
    assert same_bits(table, ref_fwht(a))
    # one Pauli word: its table is all zeros but one entry, so that the
    # signs of zero in the phases show
    word = qcore.pauli_dense(n, *(int(v) for v in rng.integers(0, 1 << n, size=2)))
    coeffs = qcore.pauli_decompose(word * (1 + 2j))
    assert same_bits(coeffs, ref_pauli_decompose(word * (1 + 2j)))
    assert same_bits(qcore.pauli_recompose(coeffs), ref_pauli_recompose(coeffs))


def test_transforms_memory_is_bounded():
    # at n = 10 a table is 16 MiB: decompose holds its gathered table and a
    # half-size butterfly buffer, recompose its working table and the output;
    # index and phase tables go a row block at a time
    dim = 1 << 10
    rng = np.random.default_rng(10)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for transform, tables in ((qcore.pauli_decompose, 2),
                              (qcore.pauli_recompose, 2.5)):
        tracemalloc.start()
        try:
            transform(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables * 16 * 2**20, transform.__name__


@settings(max_examples=12)
@given(n=qubits)
def test_family_ids_match_word_by_word_table(n):
    ids, sizes = visible._family_index_table(n)
    table, members = ref_family_index_table(n)
    assert np.array_equal(ids, table.ravel())
    assert np.array_equal(sizes, [len(m) for m in members])
    assert np.array_equal(sizes, [s.size for s in visible.enumerate_sets(n)])
    assert not ids.flags.writeable and not sizes.flags.writeable


@settings(max_examples=30)
@given(n=qubits, seed=seeds)
def test_family_sums_and_projections_match_per_family_loops(n, seed):
    rng = np.random.default_rng(seed)
    a = random_operator(n, rng)
    tol = 1e-14 * qcore.hs_norm(a)
    amps = visible.family_coefficients(a)
    assert np.abs(amps - ref_family_coefficients(a)).max() <= tol
    assert (np.abs(visible.visible_from_family_coefficients(n, amps)
                   - ref_visible_from_family_coefficients(n, amps)).max() <= tol)
    assert np.abs(visible.project_visible(a) - ref_project_visible(a)).max() <= tol


@settings(max_examples=30)
@given(n=qubits, seed=seeds)
def test_cl2_channel_matches_family_masks(n, seed):
    rng = np.random.default_rng(seed)
    a = random_operator(n, rng)
    out = channels.apply_mcl2(a)
    assert np.array_equal(out, ref_apply_mcl2(a))
    assert np.array_equal(channels.inverse_mcl2(out), ref_apply_mcl2(out, inverse=True))
    assert np.array_equal(channels.shadow_map_cl2(a), ref_shadow_map_cl2(a))
    fam_x, fam_y, fam_z = ref_cl2_masks(n)
    assert channels.cl2_visible_dimension(n) == int((fam_x | fam_y | fam_z).sum())


@settings(max_examples=30)
@given(n=qubits, seed=seeds, diagonal=st.booleans())
def test_support_maps_match_pauli_term_loops(n, seed, diagonal):
    rng = np.random.default_rng(seed)
    term = random_local_term(n, rng, diagonal)
    big = lgt.term_dense_full(term, n)
    tol = 1e-14 * qcore.hs_norm(big)
    assert np.abs(big - ref_term_dense_full(term, n)).max() <= tol
    support = biasvar._operator_support(big)
    assert support == ref_operator_support(big) == tuple(sorted(term.sites))
    assert (np.abs(biasvar._reduce_to_support(big, support)
                   - ref_reduce_to_support(big, support)).max() <= tol)
