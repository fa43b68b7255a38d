"""Dense and site-by-site references that the package's closed forms replaced.

`diagonal` is the measured diagonal diag(V A V†) of global rotations,
computed by rotating vec(A) one site at a time; `stacked_system` is the
real/imaginary-stacked least-squares system whose columns are the dense
outcome projectors sqrt(p_j) vec(V_j†|b><b|V_j). Neither goes through the
visible family basis, so they check the family forms of `reshadow.visible` and
`reshadow.estimator` from outside. `channel_contributions` is the dense
V†diag(K)V of the channel Monte Carlo, `ridge_gram_solve` the
per-lambda normal-equation solve that the one-SVD ridge grid replaced, and
`minimize_alpha_loop` the alpha-cost descent that halves each backtracking
step one trial point at a time.
"""

import math

import numpy as np

from reshadow import biasvar, estimator, gates, qcore, visible


def vectorized(a):
    """vec(a) as one row of 2n sites: row bit, column bit, row bit, ..."""
    n = a.shape[0].bit_length() - 1
    row_col = np.arange(2 * n).reshape(2, n).T.ravel()
    t = np.asarray(a, dtype=complex).reshape((2,) * 2 * n).transpose(row_col)
    return t.reshape(1, -1)


def measure_site(t, site, g):
    """Rotate `site` of vectorized rows t by g[r] and drop its off-diagonal half.

    Sites before `site` must already be measured (one bit each). Returns the
    new, half-length table.
    """
    gates.rotate_site(t, site, g)
    gates.rotate_site(t, site + 1, g.conj())
    diag = t.reshape(len(t), 1 << site, 2, 2, -1)[:, :, [0, 1], [0, 1]]
    return diag.reshape(len(t), -1)


def diagonal(a, g):
    """Real part of diag(V_r a V_r†) for each global rotation V_r = g[r]^{⊗n}.

    vec(a) runs as 2n sites with each site's row and column bit side by side
    (g on the row bit, conj(g) on the column bit). Once a site is rotated
    its off-diagonal half is dropped, so rows halve at every site. Rows go
    through in blocks of at most gates.BLOCK elements.
    """
    n = a.shape[0].bit_length() - 1
    vec = vectorized(a)
    out = np.empty((len(g), 1 << n))
    for block in gates.blocks(len(g), vec.size):
        part = g[block]
        t = np.repeat(vec, len(part), axis=0)
        for site in range(n):
            t = measure_site(t, site, part)
        out[block] = t.real
    return out


def stacked_system(o, ens):
    """Real-stacked system A y = o_vec with columns sqrt(p) vec(V†|b><b|V)."""
    n = ens.n
    sqrt_p = np.sqrt(ens.weights)
    v = np.stack([qcore.kron_all([u] * n)  # row b of V_j is <b|V_j
                  for u in estimator._member_gates(ens)])
    cols = v.conj()[:, :, :, None] * v[:, :, None, :]
    cols *= sqrt_p[:, None, None, None]
    cols = cols.reshape(-1, 1 << 2 * n)
    a_real = np.concatenate([cols.real, cols.imag], axis=1).T
    b_real = np.concatenate([o.ravel().real, o.ravel().imag])
    return a_real, b_real, sqrt_p


def least_squares_kernel(o, ens):
    """(K table, residual ||A y - o_vec||) of the stacked system's minimum-norm y."""
    a, b, sqrt_p = stacked_system(o, ens)
    y, *_ = np.linalg.lstsq(a, b, rcond=None)
    values = y.reshape(len(ens.members), 1 << ens.n) / sqrt_p[:, None]
    return values, float(np.linalg.norm(a @ y - b))


def channel_contributions(a, u):
    """Dense V†diag(<b|V a V†|b>)V for each global rotation V = u[r]^{⊗n}."""
    n = a.shape[0].bit_length() - 1
    v = np.stack([qcore.kron_all([g] * n) for g in u])  # row b of V is <b|V
    diag = np.einsum("rbi,ij,rbj->rb", v, a, v.conj())
    return np.einsum("rb,rbi,rbj->rij", diag, v.conj(), v)


def ridge_gram_solve(o, ens, lam):
    """K table of (M^T M + lam I) y = M^T c on the family rows."""
    a, b, sqrt_p, _ = estimator.stacked_system(o, ens)
    gram = a.T @ a
    gram[np.diag_indices_from(gram)] += lam
    y = np.linalg.solve(gram, a.T @ b)
    return y.reshape(len(ens.members), 1 << ens.n) / sqrt_p[:, None]


def minimize_alpha_loop(o, a, sqrt_p, alpha, shots, m_observables, delta, y0):
    """biasvar._minimize_alpha with one cost evaluation (and one eigvalsh)
    per trial step: the search halves the step until the Armijo test passes."""
    n = qcore.num_qubits(o)
    dim = 1 << n
    g_op = visible.family_basis(n).T @ a
    o_vec = np.asarray(o, dtype=complex).ravel()
    c_var = 2.0 * estimator.confidence_log(m_observables, delta) / shots
    g = np.repeat(sqrt_p, dim) / dim

    def split_cost(y):
        r = o_vec - g_op @ y
        res = r.reshape(dim, dim)
        bias = float(np.abs(np.linalg.eigvalsh(0.5 * (res + res.conj().T))).max())
        var = float(y @ y) / dim - float(g @ y) ** 2
        return alpha * bias + math.sqrt(max(c_var * var, 0.0)), r, var

    def gradient(y, r, var):
        res = r.reshape(dim, dim)
        res = 0.5 * (res + res.conj().T)
        evals, evecs = np.linalg.eigh(res)
        top = int(np.abs(evals).argmax())
        w = evecs[:, top]
        outer = (np.conj(w)[:, None] * w[None, :]).ravel()
        grad = -alpha * np.sign(evals[top]) * (outer @ g_op).real
        stat = math.sqrt(max(c_var * var, 0.0))
        if stat > 1e-14:
            grad = grad + c_var * (y / dim - float(g @ y) * g) / stat
        return grad

    y = y0.copy()
    f, r, var = split_cost(y)
    best_y, best_f = y.copy(), f
    stall = 0
    for _ in range(biasvar.MAX_ITER):
        grad = gradient(y, r, var)
        gn2 = float(grad @ grad)
        if gn2 < 1e-24:
            return best_y, best_f, True
        step = 1.0 / math.sqrt(gn2)
        accepted = False
        for _ in range(biasvar.HALVINGS):
            trial = y - step * grad
            f_t, r_t, var_t = split_cost(trial)
            if f_t < f - 1e-4 * step * gn2:
                accepted = True
                break
            step *= 0.5
        if accepted:
            change = (f - f_t) / max(abs(f), 1e-30)
            y, f, r, var = trial, f_t, r_t, var_t
            if f < best_f:
                best_y, best_f = y.copy(), f
        else:
            change = 0.0
        stall = stall + 1 if change < biasvar.STOP_REL_CHANGE else 0
        if stall >= biasvar.STOP_PATIENCE:
            return best_y, best_f, True
    return best_y, best_f, False
