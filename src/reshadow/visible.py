"""Visible and invisible operator spaces under global SU(2) control.

The visible space (the span of V†|b><b|V) has an orthonormal basis indexed by
fixed-identity permutation-invariant Pauli families: all strings sharing the
identity positions R and the letter counts (n_X, n_Y, n_Z). For each family S

    B_S        = (1 / sqrt(2^n |S|)) * sum_j P_j
    Bperp_S_k  = (1 / sqrt(2^n k (k+1))) * (sum_{j<=k} P_j  -  k * P_{k+1})

with k = 1 .. |S|-1. The B_S span the visible space, the Bperp elements span
its orthogonal complement, and together they form an orthonormal basis of the
full operator space. Member ordering inside a family is lexicographic on the
Pauli word with X < Y < Z (identity positions fixed), which pins down the
Bperp elements.

Under a global rotation V = u^{⊗n} every member of a family has the same
measured diagonal. With the Bloch axis m = (<0|u σ_a u†|0>) for a = x, y, z
and the family's free (non-identity) mask F,

    <b|V B_S V†|b> = W_S (-1)^{popcount(b & F)},
    W_S = sqrt(|S| / 2^n) m_x^{n_X} m_y^{n_Y} m_z^{n_Z},

so diag(V A V†) is one Walsh-Hadamard transform over F of the sums of
W_S tr(B_S A) over the families with free mask F, and only the visible part
of A enters (``axes_diagonal``). A measured shot (V, b) is read as its row
of the table W_S (-1)^{popcount(b & F)} (``outcome_rows``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gates, qcore
from .qcore import PauliString


@dataclass(frozen=True)
class FixedIdSet:
    """Family of Pauli words with identity exactly on ``r_mask`` and fixed counts."""

    n: int
    r_mask: int  # integer-bit-space mask of identity sites
    n_x: int
    n_y: int
    n_z: int

    def __post_init__(self):
        free = self.n - int(np.bitwise_count(self.r_mask))
        if self.n_x + self.n_y + self.n_z != free:
            raise ValueError("letter counts must fill the non-identity sites")
        if min(self.n_x, self.n_y, self.n_z) < 0:
            raise ValueError("negative letter count")

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.n_x, self.n_y, self.n_z)

    @property
    def size(self) -> int:
        """|S| = multinomial(n_free; n_X, n_Y, n_Z)."""
        from math import factorial

        free = self.n_x + self.n_y + self.n_z
        return factorial(free) // (
            factorial(self.n_x) * factorial(self.n_y) * factorial(self.n_z)
        )

    def members(self) -> list[PauliString]:
        """Family members in lexicographic word order (X < Y < Z)."""
        free_sites = [i for i in range(self.n) if not (self.r_mask >> (self.n - 1 - i) & 1)]
        letters = "X" * self.n_x + "Y" * self.n_y + "Z" * self.n_z
        out = []
        for perm in sorted(set(itertools.permutations(letters))):
            word = ["I"] * self.n
            for site, ch in zip(free_sites, perm):
                word[site] = ch
            out.append(PauliString.from_word("".join(word)))
        return out


def classify(p: PauliString) -> FixedIdSet:
    """The unique family containing a given Pauli word."""
    full = (1 << p.n) - 1
    r_mask = full & ~(p.x | p.z)
    n_x = int(np.bitwise_count(p.x & ~p.z))
    n_y = int(np.bitwise_count(p.x & p.z))
    n_z = int(np.bitwise_count(p.z & ~p.x))
    return FixedIdSet(p.n, r_mask, n_x, n_y, n_z)


@lru_cache(maxsize=8)
def enumerate_sets(n: int) -> tuple[FixedIdSet, ...]:
    """All families for n sites; the count matches 2^n (n^2 + 7n + 8) / 8.

    Order is fixed (identity mask ascending, then counts) so that feature
    vectors indexed by this enumeration are stable.
    """
    qcore.check_qubit_count(n)
    sets = []
    for r_mask in range(1 << n):
        free = n - int(np.bitwise_count(r_mask))
        for n_x in range(free, -1, -1):
            for n_y in range(free - n_x, -1, -1):
                sets.append(FixedIdSet(n, r_mask, n_x, n_y, free - n_x - n_y))
    return tuple(sets)


def expected_set_count(n: int) -> int:
    return (1 << n) * (n * n + 7 * n + 8) // 8


def build_B(s: FixedIdSet) -> np.ndarray:
    """Visible basis element for the family."""
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=complex)
    for p in s.members():
        out += p.to_dense()
    return out / np.sqrt(dim * s.size)


def build_Bperp(s: FixedIdSet, k: int) -> np.ndarray:
    """Invisible basis element number k (1 <= k <= |S|-1)."""
    size = s.size
    if size < 2:
        raise ValueError("family with a single member has no orthogonal complement")
    if not 1 <= k <= size - 1:
        raise ValueError(f"k must lie in 1..{size - 1}")
    members = s.members()
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=complex)
    for p in members[:k]:
        out += p.to_dense()
    out -= k * members[k].to_dense()
    return out / np.sqrt(dim * k * (k + 1))


@lru_cache(maxsize=8)
def _family_index_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Family id of every Pauli word, and the family sizes.

    Returns (set_id over the flat index x * 2^n + z, |S| per family), both
    read-only and in enumerate_sets order.
    """
    sets = enumerate_sets(n)
    keys = np.array([(s.r_mask, s.n_x, s.n_y) for s in sets]).T
    lookup = np.empty((1 << n, n + 1, n + 1), dtype=np.int64)
    lookup[tuple(keys)] = np.arange(len(sets))
    x, z = (v.ravel() for v in np.indices((1 << n, 1 << n)))
    ids = lookup[((1 << n) - 1) & ~(x | z), np.bitwise_count(x & ~z),
                 np.bitwise_count(x & z)]
    sizes = np.bincount(ids, minlength=len(sets))
    ids.flags.writeable = sizes.flags.writeable = False
    return ids, sizes


def _family_sums(n: int, coeffs: np.ndarray) -> np.ndarray:
    """Sum of a Pauli coefficient table over each family's words."""
    ids, sizes = _family_index_table(n)
    flat = coeffs.ravel()
    sums = np.empty(sizes.size, dtype=complex)
    sums.real = np.bincount(ids, flat.real, sizes.size)
    sums.imag = np.bincount(ids, flat.imag, sizes.size)
    return sums


# An operator is representable (or visible) when the part of it that the
# solve or channel cannot reach stays below this share of max(1, ||O||_F).
REPRESENTABILITY_TOL = 1e-8


def residual_limit(o: np.ndarray) -> float:
    """Largest unreached Hilbert-Schmidt norm at which o counts as representable."""
    return REPRESENTABILITY_TOL * max(1.0, qcore.hs_norm(o))


def family_coefficients(a: np.ndarray) -> np.ndarray:
    """tr(B_S a) for every family S, in enumerate_sets order."""
    n = qcore.num_qubits(a)
    _, sizes = _family_index_table(n)
    return np.sqrt((1 << n) / sizes) * _family_sums(n, qcore.pauli_decompose(a))


def family_split(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(family_coefficients(a), Hilbert-Schmidt norm of the component of a
    outside the visible space) from one Pauli decomposition.

    The invisible part's Pauli coefficients are those of a minus their family
    means. Its norm comes from them: ||a||^2 - sum |tr(B_S a)|^2 would cancel.
    """
    n = qcore.num_qubits(a)
    ids, sizes = _family_index_table(n)
    coeffs = qcore.pauli_decompose(a)
    sums = _family_sums(n, coeffs)
    outside = coeffs.ravel() - (sums / sizes)[ids]
    return (np.sqrt((1 << n) / sizes) * sums,
            float(np.sqrt(1 << n) * np.linalg.norm(outside)))


def visible_from_family_coefficients(n: int, amps: np.ndarray) -> np.ndarray:
    """Dense operator sum_S amps[S] * B_S."""
    dim = 1 << n
    ids, sizes = _family_index_table(n)
    coeffs = (amps / np.sqrt(dim * sizes))[ids]
    return qcore.pauli_recompose(coeffs.reshape(dim, dim))


def project_visible(o: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto span{B_S}.

    In Pauli-coefficient space this is simply averaging the coefficients
    within each family (every word belongs to exactly one family, and B_S is
    the flat unit vector over its members).
    """
    n = qcore.num_qubits(o)
    dim = 1 << n
    ids, sizes = _family_index_table(n)
    means = _family_sums(n, qcore.pauli_decompose(o)) / sizes
    return qcore.pauli_recompose(means[ids].reshape(dim, dim))


@lru_cache(maxsize=8)
def _family_layout(n: int) -> tuple[np.ndarray, ...]:
    """Letter counts (3, sets), sqrt(|S| / 2^n) and free masks of the
    families in enumerate_sets order, and the first family of each identity
    mask (identity masks ascend, each with at least one family)."""
    sets = enumerate_sets(n)
    _, sizes = _family_index_table(n)
    counts = np.array([s.counts for s in sets]).T
    r_masks = np.array([s.r_mask for s in sets])
    starts = np.searchsorted(r_masks, np.arange(1 << n))
    out = (counts, np.sqrt(sizes / (1 << n)), ((1 << n) - 1) ^ r_masks, starts)
    for a in out:
        a.flags.writeable = False
    return out


def bloch_axes(u: np.ndarray) -> np.ndarray:
    """(3, rows) Bloch axes m_j = (<0|u_j σ_a u_j†|0>) for a = x, y, z of a
    (rows, 2, 2) table of global rotations, one gate for every site."""
    if u.ndim != 3 or u.shape[1:] != (2, 2):
        raise ValueError("family forms need one 2x2 rotation per row, shared by "
                         f"every site; got gates of shape {u.shape}")
    a, b = u[:, 0, 0], u[:, 0, 1]  # <0|u = (a, b)
    # not a * b.conj(): numpy multiplies a temporary of 16384 or more
    # entries in place, in the other order, which rounds differently
    ab = np.multiply(a, b.conj())
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2])


def axes_table(m: np.ndarray, n: int) -> np.ndarray:
    """(rows, families) table W[j, S] = sqrt(|S|/2^n) m_x^{n_X} m_y^{n_Y} m_z^{n_Z}
    of the (3, rows) Bloch axes m. For m = bloch_axes(u),
    W[j, S] (-1)^{popcount(b & F_S)} = <b|V_j B_S V_j†|b> for V_j = u_j^{⊗n}."""
    # powers[c, k] = m_c^k by repeated products (so m^0 = 1 also for m = 0)
    powers = np.empty((3, n + 1, m.shape[1]))
    powers[:, 0] = 1.0
    powers[:, 1] = m
    for k in range(2, n + 1):
        np.multiply(powers[:, k - 1], powers[:, 1], out=powers[:, k])
    counts, scale, _, _ = _family_layout(n)
    w = powers[0].T[:, counts[0]] * scale
    w *= powers[1].T[:, counts[1]]
    w *= powers[2].T[:, counts[2]]
    return w


@lru_cache(maxsize=8)
def family_basis(n: int) -> np.ndarray:
    """(families, 4^n) read-only stack of vec(B_S) in enumerate_sets order."""
    basis = np.stack([build_B(s).ravel() for s in enumerate_sets(n)])
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=8)
def _walsh_signs(n: int) -> np.ndarray:
    """Read-only (2^n, 2^n) int8 table of (-1)^{popcount(b & F)} over every
    outcome b and mask F, built as a Sylvester Hadamard matrix: 4^n bytes,
    where a column per family would take 2^n F(n) (4 MiB against 103 MiB at
    n = 11)."""
    signs = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        signs = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int8), signs)
    signs.flags.writeable = False
    return signs


def family_signs(n: int) -> np.ndarray:
    """(families, 2^n) table of (-1)^{popcount(b & F_S)}."""
    _, _, free, _ = _family_layout(n)
    return _walsh_signs(n)[free].astype(float)


def outcome_rows(w: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """In place: row j of the axes_table w of V_j times (-1)^{popcount(b_j & F_S)},
    so that it holds <b_j|V_j B_S V_j†|b_j> for the outcome b_j; w is returned.
    The signs are two gathers from the Walsh table: its rows at b, then their
    columns at the families' free masks."""
    _, _, free, _ = _family_layout(n)
    w *= np.take(np.take(_walsh_signs(n), b, axis=0), free, axis=1)
    return w


def axes_diagonal(w: np.ndarray, amps: np.ndarray, n: int) -> np.ndarray:
    """Re <b|V_j a V_j†|b> for every outcome b, from the axes_table w of the
    V_j and amps = Re tr(B_S a). Each row's sums over the families of every
    free mask go through one Walsh-Hadamard transform, which turns masks
    into outcomes."""
    _, _, _, starts = _family_layout(n)
    # identity masks ascend, so their complements, the free masks, descend
    sums = np.add.reduceat(w * amps, starts, axis=1)[:, ::-1]
    return qcore._fwht(np.ascontiguousarray(sums))


def rotated_diagonal(amps: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Re <b|V_j a V_j†|b> for V_j = u_j^{⊗n}, from amps = Re tr(B_S a): the
    axes_diagonal of the rotations, in blocks of at most gates.BLOCK table
    entries."""
    out = np.empty((len(u), 1 << n))
    for block in gates.blocks(len(u), amps.size):
        out[block] = axes_diagonal(axes_table(bloch_axes(u[block]), n), amps, n)
    return out
