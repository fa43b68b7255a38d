"""Bias-variance tradeoff for kernel estimators.

A kernel that reproduces the target operator exactly can have a large
variance; deliberately representing a nearby operator O~ instead trades a
systematic error ||O - O~||_inf against a smaller statistical one. The cost

    cost = alpha ||O - O~||_inf + sqrt( (2/N) Var_mixed[K] ln(M / 2 delta) )

is convex in the kernel entries (the variance under the maximally mixed state
is a positive-semidefinite quadratic form), so each alpha admits a global
minimum; a ridge penalty on the solved vector is the cheap one-parameter
version of the same idea. Scanning either parameter produces the bowl whose
interior minimum beats both the unbiased and the fully-biased endpoints.

All solves happen in the sqrt(p)-weighted vector y = sqrt(p) K of the
family-row reconstruction system (one real row per visible family), whose
squared 2-norm is exactly 2^n E_mixed[K^2] — the quantity the variance bound
is made of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts, estimator, gates, qcore, visible
from .ensembles import Ensemble
from .errors import ConvergenceError, DimensionCapError
from .estimator import Budget, KernelTable

STOP_REL_CHANGE = 1e-8
STOP_PATIENCE = 10
MAX_ITER = 500
HALVINGS = 40  # trial steps per backtracking search
# largest register of alpha_scan. Its dense map G = family_basis(n)^T M starts
# from visible.family_basis(n), F(n) * 4^n complex entries of 16 bytes for
# F(n) = visible.expected_set_count(n): 45 MB at n = 6, where a whole alpha
# run on a Cl(2) ensemble peaks at 124 MB of RSS, but 445 MB at n = 7, where
# it peaks at 894 MB.
ALPHA_N_CAP = 6


# ---------------------------------------------------------------------------
# Bias and variance
# ---------------------------------------------------------------------------


def mixed_variance(k: KernelTable) -> float:
    """Var[K] when every outcome is equally likely (state = identity / 2^n)."""
    _, weights, vals = k.terms
    second = float(np.dot(weights, (vals**2).mean(axis=1)))
    mean = float(np.dot(weights, vals.mean(axis=1)))
    return second - mean**2


def _residual_norms(o_vec: np.ndarray, approx: np.ndarray) -> tuple:
    """||O - O~||_inf for each row vec(O~) of ``approx``, and the residuals
    vec(O - O~); the Hermitian parts of all rows share one batched eigvalsh."""
    r = o_vec - approx
    res = r.reshape(len(r), math.isqrt(o_vec.size), -1)
    herm = 0.5 * (res + res.conj().transpose(0, 2, 1))
    return np.abs(np.linalg.eigvalsh(herm)).max(axis=1), r


def kernel_biases(o: np.ndarray, kernels: list) -> list:
    """||O - O~||_inf of each discrete kernel of one ensemble, O~ =
    estimator.reconstruct(k), from one family-row matrix M for all kernels.
    O~ is recomposed from its family amplitudes rather than taken as G y:
    visible.family_basis, behind _minimize_alpha's G, is 4.3 GB at n = 8."""
    m, sqrt_p = estimator._family_rows(kernels[0].ens)
    o_vec = np.asarray(o, dtype=complex).ravel()
    biases = []
    for blk in gates.blocks(len(kernels), o_vec.size):
        approx = np.stack([estimator._represented(k, m, sqrt_p).ravel()
                           for k in kernels[blk]])
        biases += _residual_norms(o_vec, approx)[0].tolist()
    return biases


# ---------------------------------------------------------------------------
# Scan results
# ---------------------------------------------------------------------------


@dataclass
class BiasScanResult:
    lambda_or_alpha: float
    kernel: KernelTable
    bias: float
    var_bound: float
    error_bound: float


def _assemble(param: float, k: KernelTable, bias: float, shots: int,
              m_observables: int, delta: float) -> BiasScanResult:
    var_bound = estimator.var_max_bound(k)
    error_bound = bias + math.sqrt(
        2.0 * var_bound * estimator.confidence_log(m_observables, delta) / shots)
    return BiasScanResult(param, k, bias, var_bound, error_bound)


def shots_at(r: BiasScanResult, epsilon: float, delta: float,
             m_observables: int) -> float:
    """Measurement count the error-budget formula demands for this kernel."""
    if r.bias >= epsilon:
        return math.inf
    q = estimator.kernel_q(r.kernel)
    return estimator.theorem1_shots(Budget(
        m_observables, epsilon, delta, (r.var_bound,), (q,), biases=(r.bias,)))


def scan_to_csv(rows: list, epsilon: float, delta: float, m_observables: int,
                metadata: dict | None = None) -> str:
    return artifacts.csv_text(
        metadata, ("lambda_or_alpha", "bias", "var_bound", "error_bound", "shots_at"),
        ((r.lambda_or_alpha, r.bias, r.var_bound, r.error_bound,
          shots_at(r, epsilon, delta, m_observables)) for r in rows))


# ---------------------------------------------------------------------------
# Ridge biasing
# ---------------------------------------------------------------------------


def default_lambda_grid() -> np.ndarray:
    """lambda = 0 and 25 log-spaced points from 1e-4 to 1e2."""
    return np.concatenate([[0.0], np.logspace(-4.0, 2.0, 25)])


def _ridge_factors(o: np.ndarray, ens: Ensemble) -> tuple:
    """The family-row system (M, c, sqrt(p), unreached) of o and the thin SVD
    M = U diag(s) V^T as (s, V^T, U^T c)."""
    a, b, sqrt_p, unreached = estimator.stacked_system(o, ens)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return a, b, sqrt_p, unreached, s, vt, u.T @ b


def ridge_bias(o: np.ndarray, ens: Ensemble, lam: float,
               factors: tuple | None = None) -> KernelTable:
    """Minimum-norm solution of (M^T M + lambda I) y = M^T c, K = y/sqrt(p),
    for the family-row system M y = c of estimator.stacked_system:
    y = V diag(s / (s^2 + lambda)) U^T c. ``factors`` is _ridge_factors(o,
    ens), shared by the lambdas of one grid (see ridge_kernels).

    lambda = 0 reproduces the unbiased least-squares kernel; lambda -> inf
    drives K to zero (bias -> ||O||_inf).
    """
    if lam < 0:
        raise ValueError("ridge parameter must be non-negative")
    a, b, sqrt_p, unreached, s, vt, projected = factors or _ridge_factors(o, ens)
    if lam == 0.0:
        y, _ = estimator._solve_min_norm(a, b, unreached)
    else:
        y = vt.T @ (s / (s * s + lam) * projected)
    return estimator._kernel_from_y(ens, y, sqrt_p)


def ridge_kernels(o: np.ndarray, ens: Ensemble, lambdas) -> list:
    """ridge_bias at every lambda of a grid, from one system and one SVD."""
    factors = _ridge_factors(o, ens)
    return [ridge_bias(o, ens, float(lam), factors) for lam in lambdas]


def ridge_scan(o: np.ndarray, ens: Ensemble, lambdas, shots: int,
               m_observables: int, delta: float) -> list:
    kernels = ridge_kernels(o, ens, lambdas)
    return [_assemble(float(lam), k, bias, shots, m_observables, delta)
            for lam, k, bias in zip(lambdas, kernels, kernel_biases(o, kernels))]


# ---------------------------------------------------------------------------
# alpha-parameterized convex minimization
# ---------------------------------------------------------------------------


def _minimize_alpha(o, a, sqrt_p, alpha, shots, m_observables, delta, y0):
    """Subgradient descent with backtracking on the convex alpha-cost over the
    family-row system (a, sqrt(p)) of estimator.stacked_system.

    G = sum_S vec(B_S) M[S, :] maps y to vec(O~), so a stack of points costs
    one stacked product for the residual operators O - O~ and one batched
    eigvalsh. Each backtracking search evaluates all HALVINGS trial points
    y - 2^-k step grad at once and takes the first k that passes the Armijo
    test: scaling by 2^-k is exact, so these are the points, and this is the
    choice, of a search that halves the step one trial at a time. A search
    that no trial passes ends the descent at once: nothing moves, so every
    later iteration would repeat it, and the flag is the one those
    repetitions would reach.
    """
    n = qcore.num_qubits(o)
    dim = 1 << n
    g_op = visible.family_basis(n).T @ a
    o_vec = np.asarray(o, dtype=complex).ravel()
    c_var = 2.0 * estimator.confidence_log(m_observables, delta) / shots
    # tr(O~)/2^n is linear in y; the column for member j, outcome b carries
    # trace sqrt(p_j) (projector trace 1)
    g = np.repeat(sqrt_p, dim) / dim
    halvings = 0.5 ** np.arange(HALVINGS)

    def split_cost(ys):
        """Cost, residual vec(O - O~) and variance of every row of ys.

        The stacked matrix-vector products round as G y does for one point;
        ys @ G^T would not. y.y and g.y are stacked (1 x P)(P x 1) products,
        which can differ from y @ y on a fresh array in the last bit when
        the variance cancels to rounding (a 3-member Cl(2) system does).
        """
        bias, r = _residual_norms(
            o_vec, np.matmul(g_op, ys.astype(complex)[:, :, None])[:, :, 0])
        yy = np.matmul(ys[:, None, :], ys[:, :, None])[:, 0, 0]
        gy = np.matmul(g, ys[:, :, None])[:, 0]
        var = yy / dim - gy**2
        return alpha * bias + np.sqrt(np.maximum(c_var * var, 0.0)), r, var

    def gradient(y, r, var):
        res = r.reshape(dim, dim)
        res = 0.5 * (res + res.conj().T)
        evals, evecs = np.linalg.eigh(res)
        top = int(np.abs(evals).argmax())
        w = evecs[:, top]
        # <w|O~|w> is linear in y, with gradient Re(vec(conj(w) w^T) @ G)
        outer = (np.conj(w)[:, None] * w[None, :]).ravel()
        grad = -alpha * np.sign(evals[top]) * (outer @ g_op).real
        stat = math.sqrt(max(c_var * var, 0.0))
        if stat > 1e-14:
            grad = grad + c_var * (y / dim - float(g @ y) * g) / stat
        return grad

    def pick(evaluated, k):
        f, r, var = evaluated
        return float(f[k]), r[k], float(var[k])

    y = y0.copy()
    f, r, var = pick(split_cost(y[None]), 0)
    stall = 0
    for it in range(MAX_ITER):
        grad = gradient(y, r, var)
        gn2 = float(grad @ grad)
        if gn2 < 1e-24:
            return y, f, True
        steps = 1.0 / math.sqrt(gn2) * halvings
        trials = y - steps[:, None] * grad
        evaluated = split_cost(trials)
        passed = np.flatnonzero(evaluated[0] < f - 1e-4 * steps * gn2)
        if not passed.size:
            # y, r and var stay as they are, so every later iteration repeats
            # this failed search, adding one to stall, until STOP_PATIENCE or
            # MAX_ITER ends the loop
            return y, f, stall + 1 + (MAX_ITER - 1 - it) >= STOP_PATIENCE
        f_t, r, var = pick(evaluated, passed[0])
        change = (f - f_t) / max(abs(f), 1e-30)
        y, f = trials[passed[0]].copy(), f_t
        stall = stall + 1 if change < STOP_REL_CHANGE else 0
        if stall >= STOP_PATIENCE:
            return y, f, True
    return y, f, False


def alpha_scan(o: np.ndarray, ens: Ensemble, shots: int, m_observables: int,
               delta: float, alphas) -> list:
    """Minimize the alpha-cost for each alpha; one row per alpha, in order.

    Registers above ALPHA_N_CAP qubits raise DimensionCapError before any
    system is built.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    n = qcore.num_qubits(o)
    if n > ALPHA_N_CAP:
        raise DimensionCapError(
            f"alpha mode is capped at {ALPHA_N_CAP} qubits (got {n}): its dense "
            f"map starts from visible.family_basis(n), "
            f"{visible.expected_set_count(n) * 16 * 4**n / 1e6:.0f} MB at n = {n}; "
            f"use mode = lambda")
    a, b, sqrt_p, unreached = estimator.stacked_system(o, ens)
    y0, _ = estimator._solve_min_norm(a, b, unreached)
    kernels = []
    for alpha in alphas:
        y, _, converged = _minimize_alpha(o, a, sqrt_p, float(alpha), shots,
                                          m_observables, delta, y0)
        kernels.append(estimator._kernel_from_y(ens, y, sqrt_p))
        if not converged:
            break
    rows = [_assemble(float(alpha), k, bias, shots, m_observables, delta)
            for alpha, k, bias in zip(alphas, kernels, kernel_biases(o, kernels))]
    if not converged:
        raise ConvergenceError(f"alpha={rows[-1].lambda_or_alpha}: no convergence "
                               f"in {MAX_ITER} iterations", best=rows[-1])
    return rows

