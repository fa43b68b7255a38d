"""Truncated U(1) gauge theory on a stacked triangular strip.

The register holds s_max bosonic-mode qubits on each of the 3|T|/2 vertex
columns of a strip of |T| spatial triangles (periodic); every column is shared
by exactly two triangles. Per mode layer the Hamiltonian carries one magnetic
triangle term per spatial triangle,

    H_tri = -(1/(24 g^2)) (XXX - YYX - YXY - XYY),

and one electric link term per column coupling neighbouring modes,

    H_link = (g^2/3) ZZ + (alpha/(12 g^2)) (XX + YY),

for (5/2)|T| s_max terms on (3/2)|T| s_max qubits. Both term types live in
the global-SU(2) visible space, which is what makes the energy density
learnable under global-rotation measurements alone.

The four-strategy budget comparison prices the shot count N each measurement
strategy needs for epsilon-accurate estimates of every term: the plain
unbiased kernel, ridge-biased kernels, adaptively reweighted sampling, and
both combined. Each strategy minimizes N over its own feasible candidates
(grids include lambda = 0 and the original density), so the strategy classes
nest and the budget orderings hold by construction; the improvements beyond
the orderings are what the comparison is for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adaptive, artifacts, biasvar, estimator, qcore, visible
from .ensembles import Ensemble
from .errors import ConfigError

STRATEGIES = ("plain-CS", "bias-only", "adapt-only", "bias+adapt")


@dataclass(frozen=True)
class TriLattice:
    """Strip of n_triangles spatial triangles with s_max modes per link."""

    n_triangles: int
    s_max: int

    def __post_init__(self):
        if self.n_triangles < 2 or self.n_triangles % 2:
            raise ValueError("the strip needs an even number (>= 2) of triangles")
        if self.s_max < 2:
            raise ValueError("mode truncation needs s_max >= 2")

    @property
    def n_columns(self) -> int:
        return 3 * self.n_triangles // 2

    @property
    def n_qubits(self) -> int:
        return self.n_columns * self.s_max

    @property
    def n_terms(self) -> int:
        return 5 * self.n_triangles * self.s_max // 2

    def qubit_id(self, column: int, mode: int) -> int:
        return (column % self.n_columns) * self.s_max + mode % self.s_max

    def triangle_columns(self, t: int) -> tuple:
        base = (3 * t) // 2
        return tuple((base + d) % self.n_columns for d in range(3))


@dataclass(frozen=True)
class HamTerm:
    kind: str  # "triangle" | "link"
    sites: tuple
    operator: np.ndarray  # dense on the sites, in `sites` order


def triangle_local(g: float) -> np.ndarray:
    words = {"XXX": -1.0, "YYX": 1.0, "YXY": 1.0, "XYY": 1.0}
    out = np.zeros((8, 8), dtype=complex)
    for word, sign in words.items():
        p = qcore.PauliString.from_word(word)
        out += sign * p.to_dense()
    return out / (24.0 * g * g)


def link_local(g: float, alpha: float) -> np.ndarray:
    zz = qcore.PauliString.from_word("ZZ").to_dense()
    xx = qcore.PauliString.from_word("XX").to_dense()
    yy = qcore.PauliString.from_word("YY").to_dense()
    return (g * g / 3.0) * zz + alpha / (12.0 * g * g) * (xx + yy)


def build_terms(lat: TriLattice, g: float = 1.0, alpha: float = 1.0) -> list:
    tri_op = triangle_local(g)
    link_op = link_local(g, alpha)
    terms = []
    for s in range(lat.s_max):
        for t in range(lat.n_triangles):
            sites = tuple(lat.qubit_id(c, s) for c in lat.triangle_columns(t))
            terms.append(HamTerm("triangle", sites, tri_op))
        for j in range(lat.n_columns):
            sites = (lat.qubit_id(j, s), lat.qubit_id(j, s + 1))
            terms.append(HamTerm("link", sites, link_op))
    assert len(terms) == lat.n_terms
    return terms


def term_dense_full(term: HamTerm, n: int) -> np.ndarray:
    """Embed the local term operator into the full register."""
    qcore.check_qubit_count(n)
    l = len(term.sites)
    local = np.arange(1 << l)
    # register mask of every local mask: local bit `pos` lands on its site
    spread = sum(((local >> (l - 1 - pos)) & 1) << (n - 1 - site)
                 for pos, site in enumerate(term.sites))
    coeffs = np.zeros((1 << n, 1 << n), dtype=complex)
    coeffs[spread[:, None], spread[None, :]] = qcore.pauli_decompose(term.operator)
    return qcore.pauli_recompose(coeffs)


def total_hamiltonian(lat: TriLattice, g: float = 1.0, alpha: float = 1.0) -> np.ndarray:
    dim = 1 << lat.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in build_terms(lat, g, alpha):
        out += term_dense_full(term, lat.n_qubits)
    return out


# ---------------------------------------------------------------------------
# Visibility report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermVisibility:
    kind: str
    sites: tuple
    invisible_norm: float
    families: tuple  # (n_x, n_y, n_z) triples with non-zero B_S coefficient
    visible: bool  # invisible_norm within visible.residual_limit of the term


def check_visibility(terms: list) -> list:
    """Per-term invisible-component norm and the B_S families each term uses."""
    report = []
    for term in terms:
        o = term.operator
        amps, inv = visible.family_split(o)
        sets = visible.enumerate_sets(qcore.num_qubits(o))
        fams = tuple(sorted({sets[i].counts for i in np.flatnonzero(abs(amps) > 1e-12)}))
        report.append(TermVisibility(term.kind, term.sites, inv, fams,
                                     inv <= visible.residual_limit(o)))
    return report


# ---------------------------------------------------------------------------
# Four-strategy budget comparison
# ---------------------------------------------------------------------------


@dataclass
class BudgetRow:
    strategy: str
    n_qubits: int
    m_terms: int
    epsilon: float
    delta: float
    var_bound_link: float
    n_shots: int
    link_dominates: bool
    lambda_link: float
    lambda_triangle: float


@dataclass
class _Candidate:
    """Per-term-type (var, Q, bias) triple under one kernel + density choice."""

    var_link: float
    q_link: float
    bias_link: float
    var_tri: float
    q_tri: float
    bias_tri: float
    lambda_link: float
    lambda_tri: float

    def worst(self, epsilon: float):
        c_link = float(estimator.shot_factor(self.var_link, self.q_link, epsilon - self.bias_link))
        c_tri = float(estimator.shot_factor(self.var_tri, self.q_tri, epsilon - self.bias_tri))
        return max(c_link, c_tri), c_link >= c_tri


def _ridge_family(op: np.ndarray, ens: Ensemble, lambdas) -> list:
    kernels = biasvar.ridge_kernels(op, ens, lambdas)
    return list(zip(map(float, lambdas), kernels, biasvar.kernel_biases(op, kernels)))


def _scores(links: list, tris: list, p: np.ndarray, epsilon: float) -> np.ndarray:
    """Worst per-term cost of every (link lambda, triangle lambda, density)
    candidate, density 0 native and 1 the shared q_multi density.

    Under q the kernel K p/q has variance bound sum_j q_j (r_j max_b |K_jb|)^2
    and Q = max_j r_j max_b |K_jb|, with r = p/q; the row maxima are taken
    once per lambda and the density once per lambda pair.
    """
    def rows(entries):
        peak = np.array([np.abs(k.values).max(axis=1) for _, k, _ in entries])
        return peak, np.array([bias for _, _, bias in entries])

    (peak_l, bias_l), (peak_t, bias_t) = rows(links), rows(tris)
    w = p * np.maximum(peak_l[:, None], peak_t[None, :])  # (links, tris, members)
    total = w.sum(axis=2, keepdims=True)
    if (total <= 0).any():
        raise ValueError("kernels are identically zero")
    q = w / total
    ratio = np.divide(p, q, out=np.zeros_like(q), where=q > 0)
    slack_l, slack_t = epsilon - bias_l, epsilon - bias_t
    native = np.maximum(
        estimator.shot_factor(peak_l**2 @ p, peak_l.max(axis=1), slack_l)[:, None],
        estimator.shot_factor(peak_t**2 @ p, peak_t.max(axis=1), slack_t)[None, :])
    scaled_l, scaled_t = peak_l[:, None] * ratio, peak_t[None, :] * ratio
    adapt = np.maximum(
        estimator.shot_factor((q * scaled_l**2).sum(axis=2), scaled_l.max(axis=2),
                              slack_l[:, None]),
        estimator.shot_factor((q * scaled_t**2).sum(axis=2), scaled_t.max(axis=2),
                              slack_t[None, :]))
    return np.stack([native, adapt], axis=2)


def strategy_candidates(link_op: np.ndarray, tri_op: np.ndarray, ens: Ensemble,
                        epsilon: float) -> dict:
    """Winning (var, Q, bias) candidate per strategy, shared across lattice sizes.

    The N formula is a monotone function of the per-term worst contribution,
    so the winning candidate does not depend on the term count M and the scan
    is done once for all requested sizes. Each strategy's candidates are
    ranked on arrays (`_scores`); the winner is the first minimum in the
    order (link lambda, triangle lambda, density), and its figures are then
    priced like any single kernel's: estimator.var_max_bound and kernel_q,
    after adaptive.reweight when the strategy adapts.
    """
    lambdas = biasvar.default_lambda_grid()
    links = _ridge_family(link_op, ens.with_n(2), lambdas)
    tris = _ridge_family(tri_op, ens.with_n(3), lambdas)
    scores = _scores(links, tris, ens.weights, epsilon)

    def figures(k):
        return estimator.var_max_bound(k), estimator.kernel_q(k, "max_abs_k")

    def candidate(i, j, adapt):
        (lam_l, k_l, b_l), (lam_t, k_t, b_t) = links[i], tris[j]
        if adapt:
            q = adaptive.q_multi([k_l, k_t])
            k_l, k_t = adaptive.reweight(k_l, q), adaptive.reweight(k_t, q)
        return _Candidate(*figures(k_l), b_l, *figures(k_t), b_t, lam_l, lam_t)

    def first_min(table):
        return candidate(*np.unravel_index(int(np.argmin(table)), table.shape))

    return {
        "plain-CS": candidate(0, 0, False),
        "bias-only": first_min(scores[:, :, :1]),
        "adapt-only": first_min(scores[:1, :1]),
        "bias+adapt": first_min(scores),
    }


def energy_budget_comparison(lats, ens: Ensemble, epsilon: float = 0.1,
                             delta: float = 0.1, g: float = 1.0,
                             alpha: float = 1.0) -> list:
    """Shot budgets of the four strategies for each requested lattice.

    Budgets use the bare max|K| flavour of Q; the link term is expected to set
    the worst-case contribution and this is checked on the plain strategy.
    """
    link_op = link_local(g, alpha)
    tri_op = triangle_local(g)
    winners = strategy_candidates(link_op, tri_op, ens, epsilon)

    picks = {}
    for strategy, best in winners.items():
        worst, by_link = best.worst(epsilon)
        if not math.isfinite(worst):
            term, bias = ("link", best.bias_link) if by_link else ("triangle", best.bias_tri)
            raise ConfigError(f"{strategy}: at g = {g!r} the {term} term's bias "
                              f"{bias:.3g} exhausts epsilon = {epsilon!r} for "
                              "every candidate")
        picks[strategy] = (worst, by_link, best)
    if not picks["plain-CS"][1]:
        raise ConfigError(f"at g = {g!r}, epsilon = {epsilon!r} the triangle term, "
                          "not the link term, sets the plain-CS budget; only "
                          "link-dominated couplings are supported")

    rows = []
    for lat in lats:
        m = lat.n_terms
        for strategy in STRATEGIES:
            worst, by_link, c = picks[strategy]
            shots = estimator.shot_count(m, delta, worst)
            rows.append(BudgetRow(
                strategy=strategy, n_qubits=lat.n_qubits, m_terms=m,
                epsilon=epsilon, delta=delta, var_bound_link=c.var_link,
                n_shots=shots, link_dominates=by_link,
                lambda_link=c.lambda_link, lambda_triangle=c.lambda_tri))
    return rows


def budget_to_csv(rows: list, metadata: dict | None = None) -> str:
    return artifacts.csv_text(
        metadata, ("strategy", "n_qubits", "M_terms", "epsilon", "delta",
                   "var_bound_link", "Q_variant", "N_shots"),
        ((r.strategy, r.n_qubits, r.m_terms, r.epsilon, r.delta, r.var_bound_link,
          "max_abs_k", r.n_shots) for r in rows))
