"""Dense complex linear algebra for small qubit registers.

Operators, states and density matrices are plain ``numpy`` arrays of shape
``(2**n, 2**n)`` / ``(2**n,)``; this module provides the constructors,
validators and Pauli-algebra helpers the rest of the package builds on.

Conventions used package-wide:

* site ``i`` is the ``i``-th Kronecker factor (site 0 leftmost);
* a basis bitstring is an integer ``b`` whose bit for site ``i`` is
  ``(b >> (n - 1 - i)) & 1``, i.e. site 0 is the most significant bit, so
  ``f"{b:0{n}b}"`` reads left to right as sites ``0..n-1``;
* Pauli strings are bit-packed into ``(x, z)`` masks living in the same
  integer-bit space as ``b``.

Everything is capped at ``n = 14`` — dense ``2^14 x 2^14`` complex is the
desk-scale ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, NumericalDegeneracyError
from .gates import blocks

N_CAP = 14

I2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


def check_qubit_count(n: int) -> int:
    if not 1 <= n <= N_CAP:
        raise DimensionCapError(f"qubit count {n} outside supported range 1..{N_CAP}")
    return n


def num_qubits(a: np.ndarray) -> int:
    """Number of qubits of a state vector or square operator."""
    dim = a.shape[0]
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return check_qubit_count(n)


def kron_all(factors) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def pure_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a† b)."""
    return complex(np.sum(a.conj() * b))


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


# ---------------------------------------------------------------------------
# Pauli strings, bit-packed
# ---------------------------------------------------------------------------

_SYMBOL_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def parity(values: np.ndarray | int) -> np.ndarray | int:
    """Parity (popcount mod 2) of non-negative integers, vectorized."""
    return np.bitwise_count(values) & 1


@dataclass(frozen=True)
class PauliString:
    """An n-site word over {I, X, Y, Z} packed into (x, z) bit masks.

    Site ``i`` has X iff bit ``n-1-i`` of ``x`` is set, Z iff the same bit of
    ``z`` is set, and Y iff both are. Multiplication is phase-free (mask XOR),
    which is all the package needs: the families it multiplies internally are
    mutually commuting with real products.
    """

    n: int
    x: int
    z: int

    def __post_init__(self):
        check_qubit_count(self.n)
        full = (1 << self.n) - 1
        if self.x & ~full or self.z & ~full:
            raise ValueError("mask bits outside register")

    @classmethod
    def from_word(cls, word: str) -> "PauliString":
        n = len(word)
        x = z = 0
        for i, ch in enumerate(word):
            bit = 1 << (n - 1 - i)
            if ch == "X":
                x |= bit
            elif ch == "Y":
                x |= bit
                z |= bit
            elif ch == "Z":
                z |= bit
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(n, x, z)

    @property
    def word(self) -> str:
        letters = []
        for i in range(self.n):
            bit = 1 << (self.n - 1 - i)
            letters.append(_SYMBOL_FROM_BITS[(bool(self.x & bit), bool(self.z & bit))])
        return "".join(letters)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return int(np.bitwise_count(self.x | self.z))

    def to_dense(self) -> np.ndarray:
        """Dense realization; Hilbert-Schmidt norm² is 2^n."""
        return pauli_dense(self.n, self.x, self.z)


def pauli_dense(n: int, x: int, z: int) -> np.ndarray:
    """Dense matrix of the Pauli word with the given masks.

    A Pauli string is a signed permutation: row r has its only entry at
    column r XOR x, with value (-i)^{#Y} (-1)^{popcount(r & z)}.
    """
    check_qubit_count(n)
    dim = 1 << n
    rows = np.arange(dim)
    n_y = int(np.bitwise_count(x & z))
    vals = ((-1.0) ** parity(rows & z)) * ((-1.0j) ** n_y)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, rows ^ x] = vals
    return out


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform along the last axis (unnormalized).

    a must be C-contiguous, so that the reshapes below are views of it; it is
    returned. One half-size buffer holds the differences of a stage.
    """
    size = a.shape[-1]
    diff = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < size:
        v = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top, bot = v[..., 0, :], v[..., 1, :]
        d = diff.reshape(top.shape)
        np.subtract(top, bot, out=d)
        top += bot
        bot[...] = d
        h *= 2
    return a


def _times_y_phases(t: np.ndarray) -> np.ndarray:
    """In place: t[x, z] *= (-i)^{#Y}, #Y = popcount(x & z), from an
    (n+1)-entry table of the powers, a block of x rows at a time; t is
    returned."""
    dim = t.shape[0]
    phases = (-1.0j) ** np.arange(dim.bit_length())
    rows = np.arange(dim)
    for block in blocks(dim, dim):
        t[block] *= phases[np.bitwise_count(rows[block, None] & rows)]
    return t


def pauli_decompose(a: np.ndarray) -> np.ndarray:
    """Coefficients c[x, z] = tr(P_{x,z} a) / 2^n for every Pauli string.

    The returned table satisfies a = sum_{x,z} c[x,z] * P_{x,z}.
    """
    dim = 1 << num_qubits(a)
    rows = np.arange(dim)
    # row x gathers the entries P_{x,z} hits, a[r ^ x, r]; the transform over
    # r gives z
    t = np.asarray(a[rows ^ rows[:, None], rows], dtype=complex)
    t = _times_y_phases(_fwht(t))
    t /= dim
    return t


def pauli_recompose(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`."""
    dim = coeffs.shape[0]
    t = _fwht(_times_y_phases(np.array(coeffs, dtype=complex)))
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    # the transform over z gives a function of r, the row-r entry of P_{x,z}
    # sitting at column r ^ x; adding onto zeros leaves no negative zero
    for block in blocks(dim, dim):
        out[rows, rows ^ rows[block, None]] += t[block]
    return out


# ---------------------------------------------------------------------------
# Born sampling / spectra / reductions
# ---------------------------------------------------------------------------


def born_probabilities(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P(b) = <b| V rho V† |b> for all bitstrings b."""
    w = v @ rho @ v.conj().T
    probs = np.real(np.diag(w)).copy()
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise NumericalDegeneracyError(f"outcome probabilities sum to {total}")
    probs[probs < 0.0] = 0.0
    return probs / probs.sum()


def sample_bits(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sampling: one outcome per row of a (batch, dim) prob table."""
    return invert_cdf(np.cumsum(probs, axis=1), rng.random(len(probs)))


def invert_cdf(cdf: np.ndarray, u: np.ndarray,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Outcome of each uniform u[j]: the number of entries of its table row
    (row j, or row rows[j]) below u[j] once the running sums of every row
    are normalized, here in place, to end at 1."""
    cdf /= cdf[:, -1:].copy()  # a view of cdf would make numpy copy all of cdf
    out = np.empty(u.size, dtype=np.intp)
    for block in blocks(u.size, cdf.shape[1]):
        table = cdf[block] if rows is None else cdf[rows[block]]
        out[block] = (table < u[block, None]).sum(axis=1)
    return out


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value (exact, from the SVD)."""
    return float(np.linalg.norm(a, 2))


def partial_trace(rho: np.ndarray, keep, n: int | None = None) -> np.ndarray:
    """Reduced density matrix on the (sorted) kept sites."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    if n is None:
        n = num_qubits(rho)
    drop = [i for i in range(n) if i not in keep]
    t = rho.reshape([2] * (2 * n))
    for count, site in enumerate(drop):
        site_now = site - count  # axes shift left after each trace
        t = np.trace(t, axis1=site_now, axis2=t.ndim // 2 + site_now)
    d = 1 << len(keep)
    return t.reshape(d, d)


def bits_of(b: int | np.ndarray, n: int, sites) -> int | np.ndarray:
    """Pack the bits of `b` at the given sites (in order) into a small integer."""
    out = 0
    k = len(sites)
    for pos, site in enumerate(sites):
        bit = (b >> (n - 1 - site)) & 1
        out = out | (bit << (k - 1 - pos))
    return out


def basis_state(n: int, b: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[b] = 1.0
    return psi
