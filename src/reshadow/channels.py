"""Exact measurement channels, inverses, and shadow maps for global control.

Global SU(2): the Haar-averaged channel acts within the visible basis as
M(a) = sum_{S,S'} c_{S,S'} tr(B_{S'} a) B_S with the closed-form coefficient

    c_{S,S'} = 2 * [n_X! n_Y! n_Z! n'_X! n'_Y! n'_Z!]^{-1/2}
                 * prod_a (n_a + n'_a)! / ((n_a + n'_a)/2)!
                 * K! (K+1)! / (2K+2)!,        K = (1/2) sum_a (n_a + n'_a),

non-zero only when the identity sets agree and every n_a + n'_a is even. The
coefficient matrix is block diagonal over (identity mask, letter-count parity
triple); inversion is per-block pseudo-inverse with singular values below
1e-10 dropped. Both act on family amplitudes (``msu2_amplitudes``).

Global Cl(2): three effective bases; the channel keeps the identity, scales
every non-identity member of the three single-letter Pauli families
(I/X-only, I/Y-only, I/Z-only words) by 1/3, and kills everything else. The
shadow map is Lambda(O) = (1/3) sum_sigma G_sigma^2 with
G_sigma = sum_{P in family sigma} tr(P O) P / 2^n ... assembled densely.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from . import qcore, visible
from .errors import NotVisibleError
from .visible import FixedIdSet

_SV_CUTOFF = 1e-10


def su2_coeff(s: FixedIdSet, s2: FixedIdSet) -> float:
    """Channel coefficient c_{S,S'}; exact integer arithmetic, cast to float."""
    if s.n != s2.n:
        raise ValueError("site-count mismatch")
    if s.r_mask != s2.r_mask:
        return 0.0
    pair_sums = [s.n_x + s2.n_x, s.n_y + s2.n_y, s.n_z + s2.n_z]
    if any(t % 2 for t in pair_sums):
        return 0.0
    big_k = sum(pair_sums) // 2
    num = 2 * factorial(big_k) * factorial(big_k + 1)
    for t in pair_sums:
        num *= factorial(t) // factorial(t // 2)
    den = factorial(2 * big_k + 2)
    norm = 1.0
    for c in (s.n_x, s.n_y, s.n_z, s2.n_x, s2.n_y, s2.n_z):
        norm *= factorial(c)
    return num / (den * np.sqrt(norm))


@lru_cache(maxsize=8)
def _su2_blocks(n: int):
    """Visible-space block structure of the SU(2) channel.

    Returns (blocks, inverses) where each block is (set_ids, C submatrix) and
    inverses holds the pseudo-inverse of each C.
    """
    sets = visible.enumerate_sets(n)
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(sets):
        key = (s.r_mask, s.n_x % 2, s.n_y % 2, s.n_z % 2)
        groups.setdefault(key, []).append(i)
    blocks = []
    inverses = []
    for ids in groups.values():
        sub = np.array([[su2_coeff(sets[i], sets[j]) for j in ids] for i in ids])
        blocks.append((np.asarray(ids), sub))
        inverses.append(np.linalg.pinv(sub, rcond=_SV_CUTOFF))
    return blocks, inverses


def msu2_amplitudes(n: int, amps: np.ndarray, inverse: bool) -> np.ndarray:
    """tr(B_S M(a)), or tr(B_S M^{-1}(a)) if ``inverse``, from amps = tr(B_S a).
    A 2-D ``amps`` holds one column per operator a."""
    blocks, inverses = _su2_blocks(n)
    out = np.zeros_like(amps)
    for (ids, sub), inv in zip(blocks, inverses):
        mat = inv if inverse else sub
        out[ids] = mat @ amps[ids]
    return out


def apply_msu2(a: np.ndarray) -> np.ndarray:
    """Measurement channel of global SU(2) control (kills invisible parts)."""
    n = qcore.num_qubits(a)
    amps = msu2_amplitudes(n, visible.family_coefficients(a), False)
    return visible.visible_from_family_coefficients(n, amps)


def inverse_msu2(a: np.ndarray) -> np.ndarray:
    """Inverse channel on the visible space; errors on invisible input."""
    n = qcore.num_qubits(a)
    amps, resid = visible.family_split(a)
    if resid > visible.residual_limit(a):
        raise NotVisibleError(f"operator has invisible component of norm {resid:.3e}")
    return visible.visible_from_family_coefficients(n, msu2_amplitudes(n, amps, True))


# ---------------------------------------------------------------------------
# Global Cl(2)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _cl2_inverse_scale(n: int) -> np.ndarray:
    """Eigenvalue of the inverse Cl(2) channel on every Pauli word, indexed [x, z].

    1 on the identity, 3 on the other words of the X (z = 0), Y (x = z) and
    Z (x = 0) families, 0 on the invisible words. Dividing by it applies the
    channel and multiplying inverts it, each with one rounding per entry.
    """
    dim = 1 << n
    scale = 3.0 * np.eye(dim)
    scale[:, 0] = scale[0, :] = 3.0
    scale[0, 0] = 1.0
    scale.flags.writeable = False
    return scale


def apply_mcl2(a: np.ndarray) -> np.ndarray:
    """Cl(2) channel: identity kept, single-letter family words scaled by 1/3."""
    scale = _cl2_inverse_scale(qcore.num_qubits(a))
    coeffs = qcore.pauli_decompose(a)
    out = np.divide(coeffs, scale, out=np.zeros_like(coeffs), where=scale > 0)
    return qcore.pauli_recompose(out)


def inverse_mcl2(a: np.ndarray) -> np.ndarray:
    """Inverse Cl(2) channel; errors when the input leaves the visible space."""
    n = qcore.num_qubits(a)
    scale = _cl2_inverse_scale(n)
    coeffs = qcore.pauli_decompose(a)
    outside = np.linalg.norm(coeffs[scale == 0]) * np.sqrt(1 << n)
    if outside > visible.residual_limit(a):
        raise NotVisibleError(
            f"operator has Cl(2)-invisible component of norm {outside:.3e}")
    return qcore.pauli_recompose(coeffs * scale)


def shadow_map_cl2(o: np.ndarray) -> np.ndarray:
    """Lambda(O) = (1/(3 4^n)) sum_sigma sum_{P1,P2 in sigma} tr(P1 O) tr(P2 O) P1 P2.

    Within one family all members commute and multiply without phases, so the
    double sum is just the matrix square of G_sigma = sum_P tr(P O) P.
    """
    n = qcore.num_qubits(o)
    dim = 1 << n
    coeffs = qcore.pauli_decompose(o)  # tr(P O) / 2^n
    words = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for xs, zs in ((words, 0), (words, words), (0, words)):  # X, Y, Z families
        fam_coeffs = np.zeros_like(coeffs)
        fam_coeffs[xs, zs] = coeffs[xs, zs]
        g = qcore.pauli_recompose(fam_coeffs)
        out += g @ g
    return out / 3.0


def shadow_norm_cl2(o: np.ndarray) -> float:
    """Largest eigenvalue of Lambda(M^{-1}(O)) — the squared shadow norm."""
    lam = shadow_map_cl2(inverse_mcl2(o))
    return float(np.linalg.eigvalsh(lam).max())
