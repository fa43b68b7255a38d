"""Product rotations applied site by site to tables of amplitudes.

Every implementable unitary of the package is a product of few-qubit gates:
a global rotation puts one 2x2 gate on every site, a random-Pauli word one
gate per site, and a low-depth circuit 4x4 gates on site pairs. They act in
place on (rows, 2^n) tables, one gate per row, site 0 being the most
significant bit of a column index. A dense V is formed only where its
entries are needed, by Kronecker doubling: a (rows, d, d) stack times the
next site's (rows, 2, 2) gates gives (rows, 2d, 2d).

A measured diagonal diag(V A V†) runs vec(A) as 2n sites with each site's
row and column bit side by side (g on the row bit, conj(g) on the column
bit). Once a site is rotated its off-diagonal half is dropped, because later
gates never touch it and only the diagonal is read, so the row length halves
at every site, from 4^n down to 2^n.
"""

from __future__ import annotations

import numpy as np

# Complex elements a blocked kernel works on at once (rows x row length).
BLOCK = 1 << 16


def rotate_site(t: np.ndarray, site: int, g: np.ndarray) -> None:
    """In place: row r of t (rows, 2^sites) gets the 2x2 gate g[r] on `site`.

    t must be C-contiguous, so that the reshape below is a view of it.
    """
    v = t.reshape(t.shape[0], 1 << site, 2, -1)
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


def _site_gates(g: np.ndarray, site: int) -> np.ndarray:
    return g if g.ndim == 3 else g[:, site]


def blocks(count: int, size: int):
    """Slices over `count` rows of `size` elements each, at most BLOCK
    elements (and at least one row) per slice."""
    step = max(1, BLOCK // size)
    return (slice(start, start + step) for start in range(0, count, step))


def rows(g: np.ndarray, n: int, start: np.ndarray | None = None) -> np.ndarray:
    """Product rotations V_r = g[r, 0] ⊗ ... ⊗ g[r, n-1], one per row of g.

    g is (rows, n, 2, 2), or (rows, 2, 2) for the same gate on every site.
    With ``start`` (a 2^n state, or one per row) the result is the
    (rows, 2^n) table of V_r start_r; without, the (rows, 2^n, 2^n) stack of
    the V_r themselves.
    """
    if start is not None:
        t = np.array(np.broadcast_to(start, (len(g), 1 << n)), dtype=complex)
        for site in range(n):
            rotate_site(t, site, _site_gates(g, site))
        return t
    v = np.ones((len(g), 1, 1), dtype=complex)
    for site in range(n):
        d = v.shape[1]
        gate = _site_gates(g, site)[:, None, :, None, :]
        v = (v[:, :, None, :, None] * gate).reshape(len(g), 2 * d, 2 * d)
    return v


def vectorized(a: np.ndarray) -> np.ndarray:
    """vec(a) as one row of 2n sites: row bit, column bit, row bit, ..."""
    n = a.shape[0].bit_length() - 1
    row_col = np.arange(2 * n).reshape(2, n).T.ravel()
    t = np.asarray(a, dtype=complex).reshape((2,) * 2 * n).transpose(row_col)
    return t.reshape(1, -1)


def measure_site(t: np.ndarray, site: int, g: np.ndarray) -> np.ndarray:
    """Rotate `site` of vectorized rows t by g[r] and drop its off-diagonal half.

    Sites before `site` must already be measured (one bit each). Returns the
    new, half-length table.
    """
    rotate_site(t, site, g)
    rotate_site(t, site + 1, g.conj())
    diag = t.reshape(len(t), 1 << site, 2, 2, -1)[:, :, [0, 1], [0, 1]]
    return diag.reshape(len(t), -1)


def diagonal(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real part of diag(V_r a V_r†) for each product rotation of g (as in `rows`).

    Rows go through in blocks of at most BLOCK elements (rows x 4^n, or one
    row when 4^n is larger), so memory stays bounded by one block and the
    (rows, 2^n) result.
    """
    n = a.shape[0].bit_length() - 1
    vec = vectorized(a)
    out = np.empty((len(g), 1 << n))
    for block in blocks(len(g), vec.size):
        part = g[block]
        t = np.repeat(vec, len(part), axis=0)
        for site in range(n):
            t = measure_site(t, site, _site_gates(part, site))
        out[block] = t.real
    return out
