"""Product rotations applied site by site to tables of amplitudes.

Every implementable unitary of the package is a product of few-qubit gates:
a global rotation puts one 2x2 gate on every site, a random-Pauli word one
gate per site, and a low-depth circuit 4x4 gates on site pairs. They act in
place on (rows, 2^n) tables, one gate per row, site 0 being the most
significant bit of a column index. No dense V is formed: a row <b|V that
is needed is the conjugate of V†|b>, the table of one basis state rotated
by the conjugate-transposed gates.
"""

from __future__ import annotations

import numpy as np

# Complex elements a blocked kernel works on at once (rows x row length).
BLOCK = 1 << 16


def rotate_site(t: np.ndarray, site: int, g: np.ndarray) -> None:
    """In place: row r of t (rows, 2^sites) gets the 2x2 gate g[r] on `site`.

    t must be C-contiguous, so that the reshape below is a view of it.
    """
    v = t.reshape(len(t), 1 << site, 2, t.shape[1] >> (site + 1))
    v0, v1 = v[:, :, 0], v[:, :, 1]
    g = g[:, :, :, None, None]
    out0 = v0 * g[:, 0, 0]
    out0 += v1 * g[:, 0, 1]
    v1 *= g[:, 1, 1]
    v1 += v0 * g[:, 1, 0]
    v0[...] = out0


def rotate_pair(t: np.ndarray, a: int, b: int, gate: np.ndarray) -> None:
    """In place: every row of t (rows, 2^n) gets the 4x4 gate on sites (a, b).

    The gate's index is 2 i_a + i_b: its first factor acts on site a.
    """
    n = t.shape[1].bit_length() - 1
    v = np.moveaxis(t.reshape((t.shape[0],) + (2,) * n), (1 + a, 1 + b), (-2, -1))
    v[...] = np.einsum("abcd,...cd->...ab", gate.reshape(2, 2, 2, 2), v)


def blocks(count: int, size: int):
    """Slices over `count` rows of `size` elements each, at most BLOCK
    elements (and at least one row) per slice."""
    step = max(1, BLOCK // size)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def rows(g: np.ndarray, n: int, start: np.ndarray) -> np.ndarray:
    """The (rows, 2^n) table of V_r start_r for V_r = g[r]^{⊗n}, one (2, 2)
    gate per row of g; ``start`` is a 2^n state, or one per row."""
    t = np.array(np.broadcast_to(start, (len(g), 1 << n)), dtype=complex)
    for site in range(n):
        rotate_site(t, site, g)
    return t
