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

All solves happen in the sqrt(p)-weighted vector y = sqrt(p) K of the stacked
reconstruction system, whose squared 2-norm is exactly 2^n E_mixed[K^2] — the
quantity the variance bound is made of.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import artifacts, estimator, qcore
from .ensembles import Ensemble
from .errors import ConvergenceError, DimensionCapError
from .estimator import Budget, KernelTable

LOCAL_SUPPORT_CAP = 12

STOP_REL_CHANGE = 1e-8
STOP_PATIENCE = 10
MAX_ITER = 500


# ---------------------------------------------------------------------------
# Cost function
# ---------------------------------------------------------------------------


def mixed_variance(k: KernelTable) -> float:
    """Var[K] when every outcome is equally likely (state = identity / 2^n)."""
    if k.values is not None:
        second = float(np.dot(k.density, (k.values**2).mean(axis=1)))
        mean = float(np.dot(k.density, k.values.mean(axis=1)))
        return second - mean**2
    dim = 1 << k.n
    return estimator.var_under_state(k, np.eye(dim) / dim)


def cost(k: KernelTable, o: np.ndarray, shots: int, m_observables: int,
         delta: float, alpha: float) -> float:
    """alpha-weighted bias plus the mixed-state statistical error at N shots."""
    bias = qcore.spectral_norm(o - estimator.reconstruct(k))
    stat = (2.0 * mixed_variance(k) * estimator.confidence_log(m_observables, delta)
            / shots)
    return alpha * bias + math.sqrt(max(stat, 0.0))


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
    scan: tuple = field(default_factory=tuple, repr=False)


def _assemble(param: float, k: KernelTable, o: np.ndarray, shots: int,
              m_observables: int, delta: float) -> BiasScanResult:
    bias = qcore.spectral_norm(o - estimator.reconstruct(k))
    var_bound = estimator.var_max_bound(k)
    error_bound = bias + math.sqrt(
        2.0 * var_bound * estimator.confidence_log(m_observables, delta) / shots)
    return BiasScanResult(param, k, bias, var_bound, error_bound)


def shots_at(r: BiasScanResult, epsilon: float, delta: float,
             m_observables: int, q_variant: str = "theorem") -> float:
    """Measurement count the error-budget formula demands for this kernel."""
    if r.bias >= epsilon:
        return math.inf
    q = estimator.kernel_q(r.kernel, variant=q_variant)
    return estimator.theorem1_shots(Budget(
        m_observables, epsilon, delta, (r.var_bound,), (q,), biases=(r.bias,),
        q_variant=q_variant))


def scan_to_csv(rows: list, epsilon: float, delta: float, m_observables: int,
                metadata: dict | None = None, q_variant: str = "theorem") -> str:
    buf = io.StringIO()
    buf.write(artifacts.metadata_header(metadata))
    buf.write("lambda_or_alpha,bias,var_bound,error_bound,shots_at\n")
    for r in rows:
        n_shots = shots_at(r, epsilon, delta, m_observables, q_variant)
        buf.write(f"{r.lambda_or_alpha!r},{r.bias!r},{r.var_bound!r},"
                  f"{r.error_bound!r},{n_shots}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Ridge biasing
# ---------------------------------------------------------------------------


def default_lambda_grid(points: int = 25, low: float = 1e-4,
                        high: float = 1e2) -> np.ndarray:
    return np.concatenate([[0.0], np.logspace(math.log10(low), math.log10(high),
                                              points)])


def ridge_bias(o: np.ndarray, ens: Ensemble, lam: float) -> KernelTable:
    """Minimum-norm solution of (A^T A + lambda I) y = A^T o_vec, K = y/sqrt(p).

    lambda = 0 reproduces the unbiased least-squares kernel; lambda -> inf
    drives K to zero (bias -> ||O||_inf).
    """
    if lam < 0:
        raise ValueError("ridge parameter must be non-negative")
    a, b, sqrt_p = estimator.stacked_system(o, ens)
    if lam == 0.0:
        y, residual = estimator._solve_min_norm(a, b)
    else:
        gram = a.T @ a
        gram[np.diag_indices_from(gram)] += lam
        y = np.linalg.solve(gram, a.T @ b)
        residual = float(np.linalg.norm(a @ y - b))
    dim = 1 << ens.n
    values = y.reshape(len(ens.members), dim) / sqrt_p[:, None]
    return KernelTable(ens, values=values, residual=residual)


def ridge_scan(o: np.ndarray, ens: Ensemble, lambdas, shots: int,
               m_observables: int, delta: float) -> list:
    return [_assemble(float(lam), ridge_bias(o, ens, float(lam)), o, shots,
                      m_observables, delta) for lam in lambdas]


# ---------------------------------------------------------------------------
# alpha-parameterized convex minimization
# ---------------------------------------------------------------------------


def _unstack(vec: np.ndarray, dim: int) -> np.ndarray:
    half = dim * dim
    return (vec[:half] + 1j * vec[half:]).reshape(dim, dim)


def _minimize_alpha(o, ens, alpha, shots, m_observables, delta, y0,
                    max_iter=MAX_ITER):
    """Subgradient descent with backtracking on the convex alpha-cost."""
    a, b, sqrt_p = estimator.stacked_system(o, ens)
    dim = 1 << ens.n
    c_var = 2.0 * estimator.confidence_log(m_observables, delta) / shots
    # tr(O~)/2^n is linear in y; the column for member j, outcome b carries
    # trace sqrt(p_j) (projector trace 1)
    g = np.repeat(sqrt_p, dim) / dim

    def split_cost(y):
        r = b - a @ y
        res = _unstack(r, dim)
        bias = float(np.abs(np.linalg.eigvalsh(0.5 * (res + res.conj().T))).max())
        var = float(y @ y) / dim - float(g @ y) ** 2
        return alpha * bias + math.sqrt(max(c_var * var, 0.0)), r, var

    def gradient(y, r, var):
        res = _unstack(r, dim)
        res = 0.5 * (res + res.conj().T)
        evals, evecs = np.linalg.eigh(res)
        top = int(np.abs(evals).argmax())
        w = evecs[:, top]
        outer = (np.conj(w)[:, None] * w[None, :]).ravel()
        u = np.concatenate([outer.real, -outer.imag])
        grad = -alpha * np.sign(evals[top]) * (a.T @ u)
        stat = math.sqrt(max(c_var * var, 0.0))
        if stat > 1e-14:
            grad = grad + c_var * (y / dim - float(g @ y) * g) / stat
        return grad

    y = y0.copy()
    f, r, var = split_cost(y)
    best_y, best_f = y.copy(), f
    stall = 0
    for _ in range(max_iter):
        grad = gradient(y, r, var)
        gn2 = float(grad @ grad)
        if gn2 < 1e-24:
            return best_y, best_f, True
        step = 1.0 / math.sqrt(gn2)
        accepted = False
        for _ in range(40):
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
        stall = stall + 1 if change < STOP_REL_CHANGE else 0
        if stall >= STOP_PATIENCE:
            return best_y, best_f, True
    return best_y, best_f, False


def _table_from_y(y, ens, sqrt_p):
    dim = 1 << ens.n
    return KernelTable(ens, values=y.reshape(len(ens.members), dim) / sqrt_p[:, None])


def alpha_scan(o: np.ndarray, ens: Ensemble, shots: int, m_observables: int,
               delta: float, alphas, max_iter: int = MAX_ITER) -> BiasScanResult:
    """Minimize the alpha-cost for each alpha; return the scan's best row.

    "Best" means the smallest worst-case error bound assembled from the
    state-independent variance bound, mirroring the scan-then-select method.
    The full scan is attached as ``result.scan``.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    a, b, sqrt_p = estimator.stacked_system(o, ens)
    y0, _ = estimator._solve_min_norm(a, b)
    rows = []
    for alpha in alphas:
        y, _, converged = _minimize_alpha(o, ens, float(alpha), shots,
                                          m_observables, delta, y0, max_iter)
        row = _assemble(float(alpha), _table_from_y(y, ens, sqrt_p), o, shots,
                        m_observables, delta)
        if not converged:
            raise ConvergenceError(
                f"alpha={alpha}: no convergence in {max_iter} iterations",
                best=row)
        rows.append(row)
    best = min(rows, key=lambda r: r.error_bound)
    best.scan = tuple(rows)
    return best


# ---------------------------------------------------------------------------
# Local J(V, P) parameterization
# ---------------------------------------------------------------------------


@dataclass
class LocalParam:
    """Kernel written over identity/Z strings local to the operator support.

    values[j, z] = J(V_j, P_z) with z a bit mask over ``support`` (first
    support site = most significant bit), so that
    K(V, b) = sum_z J(V, P_z) (-1)^{f(b, P_z)} where f counts the support
    sites carrying both a Z and an outcome bit 1.
    """

    n: int
    support: tuple
    values: np.ndarray
    residual: float = 0.0

    @property
    def width(self) -> int:
        return len(self.support)


def _operator_support(o: np.ndarray, tol: float = 1e-12) -> tuple:
    n = qcore.num_qubits(o)
    xs, zs = np.nonzero(np.abs(qcore.pauli_decompose(o)) > tol)
    occupied = int(np.bitwise_or.reduce(xs | zs, initial=0))
    return tuple(i for i in range(n) if (occupied >> (n - 1 - i)) & 1)


def _reduce_to_support(o: np.ndarray, support: tuple) -> np.ndarray:
    """o = o_L (x) identity -> o_L on the support sites, in site order."""
    n = qcore.num_qubits(o)
    return qcore.partial_trace(o, support, n) / (1 << (n - len(support)))


def local_solve(o: np.ndarray, ens: Ensemble) -> LocalParam:
    """Solve the kernel on the operator's support and store its Z-string form.

    J(V, P) = (1/2^n) sum_b K(V, b) (-1)^{f(b,P)}; K is local to the support
    under a global ensemble, so the off-support outcome sum collapses and the
    table costs 2^{|support|} parameters per member instead of 2^n.
    """
    support = _operator_support(o)
    if len(support) > LOCAL_SUPPORT_CAP:
        raise DimensionCapError(
            f"support {len(support)} exceeds the local-parameterization cap "
            f"{LOCAL_SUPPORT_CAP}")
    n = qcore.num_qubits(o)
    if n != ens.n:
        raise ValueError("operator/ensemble dimension mismatch")
    l = len(support)
    o_local = _reduce_to_support(o, support) if l else np.array(
        [[np.trace(o).real / (1 << n)]], dtype=complex)
    if l:
        k_local = estimator.kernel_least_squares(o_local, ens.with_n(l))
        values = qcore._fwht(k_local.values.copy()) / (1 << l)
        residual = k_local.residual
    else:
        values = np.full((len(ens.members), 1), float(o_local[0, 0].real))
        residual = 0.0
    return LocalParam(n=n, support=support, values=values, residual=residual)


def local_to_kernel(lp: LocalParam, ens: Ensemble) -> KernelTable:
    """Expand the J table back into a full K(V, b) table (round-trip partner)."""
    if ens.n != lp.n or len(ens.members) != lp.values.shape[0]:
        raise ValueError("ensemble does not match the local parameterization")
    k_local = qcore._fwht(lp.values.copy())
    if lp.support:
        b_local = qcore.bits_of(np.arange(1 << lp.n), lp.n, lp.support)
    else:
        b_local = np.zeros(1 << lp.n, dtype=int)
    return KernelTable(ens, values=k_local[:, b_local], residual=lp.residual)
