"""Randomized-measurement campaigns, kernel representations and estimates.

A kernel K(V, b) expresses an operator O over the outcome-projector family:

    O = sum_V p(V) sum_b K(V, b) V†|b><b|V          (reconstruction identity)

so that the empirical mean of K(V_s, b_s) over measurement records is an
unbiased estimator of tr(rho O). Discrete ensembles store K as a dense
(members x 2^n) table; the continuous global-SU(2) ensemble stores the
channel-inverted operator and evaluates <b|V M^{-1}(O) V†|b> on demand.

Campaign sampling is deterministic for a fixed seed independent of the worker
count: shots are cut into fixed-size chunks, each chunk gets its own child
generator spawned up-front from the caller's RNG, and threads only schedule
chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import artifacts, channels, ensembles, gates, qcore
from .ensembles import (
    KIND_DISCRETE_SUBSAMPLE,
    KIND_GLOBAL_CL2,
    KIND_GLOBAL_SU2,
    KIND_LOCAL_CLIFFORD,
    Ensemble,
    SampledUnitary,
)
from .errors import NumericalDegeneracyError, RepresentabilityError

CHUNK = 4096

LSTSQ_RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------


KINDS = (KIND_GLOBAL_SU2, KIND_GLOBAL_CL2, KIND_LOCAL_CLIFFORD,
         KIND_DISCRETE_SUBSAMPLE)

_BASIS_CODES = np.frombuffer("".join(ensembles.CL2_BASES).encode(), dtype=np.uint8)
_BASIS_OF_CODE = np.full(128, -1, dtype=np.int8)
_BASIS_OF_CODE[_BASIS_CODES] = np.arange(len(ensembles.CL2_BASES))


def _words_text(bases: np.ndarray) -> list[str]:
    """Per-site basis indices (N, n) as N letter words over CL2_BASES."""
    n = bases.shape[1]
    codes = np.ascontiguousarray(_BASIS_CODES[bases])
    return codes.view(f"S{n}").ravel().astype(str).tolist()


class Records:
    """Columnar storage for a shot campaign.

    LocalClifford words are kept as ``bases``, an int8 (N, n) table of
    indices into CL2_BASES (site 0 first); ``words`` spells them as text.
    The campaign id is printable ASCII without ``,``, ``;`` or ``"``, so
    that it is a plain field of the record CSV.
    """

    def __init__(self, kind: str, n: int, campaign_id: str, b: np.ndarray,
                 member_idx: np.ndarray | None = None,
                 thetas: np.ndarray | None = None,
                 phis: np.ndarray | None = None,
                 psis: np.ndarray | None = None,
                 bases: np.ndarray | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r}")
        if (not (campaign_id.isascii() and campaign_id.isprintable())
                or any(ch in campaign_id for ch in ',;"')):
            raise ValueError(f"campaign_id {campaign_id!r} must be printable "
                             f"ASCII without ',', ';' or '\"'")
        self.kind = kind
        self.n = n
        self.campaign_id = campaign_id
        self.b = np.asarray(b, dtype=np.int64)
        self.member_idx = member_idx
        self.thetas = thetas
        self.phis = phis
        self.psis = psis
        self.bases = bases

    def __len__(self) -> int:
        return self.b.size

    @property
    def words(self) -> list[str] | None:
        return None if self.bases is None else _words_text(self.bases)


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------


@dataclass
class KernelTable:
    """K(V, b) over an ensemble, satisfying the reconstruction identity.

    ``values`` is the dense table for discrete kinds; for the continuous
    global-SU(2) kind it is None and ``inv_op`` holds M^{-1}(O), evaluated
    lazily as <b|V inv_op V†|b>. Nothing changes a table once it is made,
    so its quadrature terms are computed once.
    """

    ens: Ensemble
    values: np.ndarray | None = None
    inv_op: np.ndarray | None = None
    residual: float = 0.0

    @property
    def density(self) -> np.ndarray:
        return self.ens.weights

    @property
    def n(self) -> int:
        return self.ens.n

    @cached_property
    def terms(self) -> tuple:
        """(gates, weights, K rows) of the sum over V: the members of a
        discrete kernel, or the quadrature nodes of the continuous one."""
        if self.values is not None:
            return _member_gates(self.ens), self.density, self.values
        nodes, weights = su2_quadrature_angles(self.n)
        return (_node_gates(nodes), weights,
                _su2_node_values(self.inv_op, nodes, self.n))

    def evaluate_records(self, records: Records) -> np.ndarray:
        if records.n != self.n or records.kind != self.ens.kind:
            raise ValueError("records were drawn from a different ensemble")
        if self.values is not None:
            return self.values[records.member_idx, records.b]
        # <b|V A V†|b> = phi_b† A phi_b
        phi = _su2_phi(records.thetas, records.psis, records.b, self.n)
        return np.real(np.einsum("ni,ij,nj->n", phi.conj(), self.inv_op, phi))


def _site_bits(b: np.ndarray, n: int) -> np.ndarray:
    """(N, n) table of per-site bits, site 0 first."""
    shifts = np.arange(n - 1, -1, -1)
    return (b[:, None] >> shifts[None, :]) & 1


def _su2_phi(thetas, psis, b, n: int) -> np.ndarray:
    """(N, 2^n) rows phi = V†|b> for a batch of global rotations and outcomes."""
    u = ensembles.su2_matrix(thetas, 0.0, psis)
    b = np.asarray(b)
    start = np.zeros((b.size, 1 << n), dtype=complex)
    start[np.arange(b.size), b] = 1.0
    return gates.rows(np.conj(np.swapaxes(u, 1, 2)), n, start)


# ---------------------------------------------------------------------------
# Stacked least-squares system for discrete subsamples
# ---------------------------------------------------------------------------


def _member_angles(ens: Ensemble):
    """(thetas, phis, psis) arrays over the members of an ensemble."""
    return tuple(np.array([getattr(m, name) for m in ens.members])
                 for name in ("theta", "phi", "psi"))


def _member_gates(ens: Ensemble) -> np.ndarray:
    """(members, 2, 2) single-qubit rotation of each member of a global ensemble."""
    if ens.kind in (KIND_GLOBAL_SU2, KIND_DISCRETE_SUBSAMPLE):
        thetas, _, psis = _member_angles(ens)
        return ensembles.su2_matrix(thetas, 0.0, psis)
    return np.stack([m.single_qubit() for m in ens.members])


def stacked_system(o: np.ndarray, ens: Ensemble):
    """Real-stacked system A y = o_vec with columns sqrt(p) * vec(V†|b><b|V).

    The substitution y = sqrt(p) K makes the minimum-norm solution of this
    system the kernel with the smallest variance under the maximally mixed
    state while keeping the p-weighted reconstruction identity exact.
    """
    if not ens.is_discrete:
        raise ValueError("stacked system needs a discrete ensemble")
    n = qcore.num_qubits(o)
    if n != ens.n:
        raise ValueError("operator/ensemble dimension mismatch")
    sqrt_p = np.sqrt(ens.weights)
    v = gates.rows(_member_gates(ens), n)  # row b of V_j is <b|V_j
    # vec(V†|b><b|V) = conj(row_b) outer row_b, flattened row-major
    cols = v.conj()[:, :, :, None] * v[:, :, None, :]
    cols *= sqrt_p[:, None, None, None]
    cols = cols.reshape(-1, 1 << 2 * n)
    a_real = np.concatenate([cols.real, cols.imag], axis=1).T
    b_real = np.concatenate([o.ravel().real, o.ravel().imag])
    return a_real, b_real, sqrt_p


def _solve_min_norm(a: np.ndarray, b: np.ndarray):
    y, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ y - b))
    return y, residual


def representability_residual(o: np.ndarray, ens: Ensemble) -> float:
    """Least-squares residual of the stacked system (0 when o is representable)."""
    a, b, _ = stacked_system(o, ens)
    return _solve_min_norm(a, b)[1]


def kernel_least_squares(o: np.ndarray, ens: Ensemble) -> KernelTable:
    """Minimum-norm kernel for a discrete subsample (unbiased when representable)."""
    a, b, sqrt_p = stacked_system(o, ens)
    y, residual = _solve_min_norm(a, b)
    if residual > LSTSQ_RESIDUAL_TOL:
        raise RepresentabilityError(
            f"operator is not representable by this unitary set "
            f"(residual {residual:.3e})", residual=residual)
    dim = 1 << ens.n
    values = (y.reshape(len(ens.members), dim) / sqrt_p[:, None])
    return KernelTable(ens, values=values, residual=residual)


def kernel_cs(o: np.ndarray, ens: Ensemble) -> KernelTable:
    """Classical-shadow kernel K(V,b) = <b|V M^{-1}(O) V†|b>."""
    if ens.kind == KIND_GLOBAL_SU2:
        inv = channels.inverse_msu2(o)
        return KernelTable(ens, inv_op=inv)
    if ens.kind == KIND_GLOBAL_CL2:
        values = gates.diagonal(channels.inverse_mcl2(o), _member_gates(ens))
        return KernelTable(ens, values=values)
    raise ValueError("kernel_cs needs an analytic channel (GlobalSU2 or GlobalCl2)")


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _born_tables(rho: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P(b | V) rows of a state vector or density matrix for the product
    rotations V of g (as in gates.rows)."""
    n = qcore.num_qubits(rho)
    if rho.ndim == 1:
        probs = np.abs(gates.rows(g, n, rho)) ** 2
    else:
        probs = gates.diagonal(rho, g)
    total = probs.sum(axis=1)
    worst = int(np.abs(total - 1.0).argmax())
    if abs(total[worst] - 1.0) > 1e-8:
        raise NumericalDegeneracyError(f"outcome probabilities sum to {total[worst]}")
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _su2_chunk(rho, n, count, rng):
    thetas, phis, psis = ensembles.haar_su2_angles(count, rng)
    cdf = _born_tables(rho, ensembles.su2_matrix(thetas, 0.0, psis))
    np.cumsum(cdf, axis=1, out=cdf)
    return thetas, phis, psis, qcore.sample_cdf(cdf, rng)


_CL2_GATES = np.stack([ensembles.basis_rotation(ch) for ch in ensembles.CL2_BASES])


def _collapse(rho: np.ndarray, words: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each shot: rho measured in its basis word, one site at a time.

    At each site the shots' distinct (basis prefix, outcome prefix) rows are
    rotated once and split into their outcome-0 and outcome-1 halves, weighted
    by squared norm (a density matrix, run as the 2n-site row of
    gates.vectorized, keeps its (b, b) blocks, weighted by trace). A shot goes
    to half 1 when offset + p0 < u * total, which bisects the inverse-CDF
    search of sample_bits bit by bit, and never enters a half of weight 0.
    Only the chosen halves go on, so rows halve at every site.
    """
    count, n = words.shape
    density = rho.ndim == 2
    if density:
        t = gates.vectorized(rho)
        # the diagonal of a vectorized m-site remainder sits at the first 2^m
        # entries of trace: each site's (row, column) bit pair is 00 or 11
        trace = np.zeros(1, dtype=np.intp)
        for _ in range(n - 1):
            trace = (4 * trace[:, None] + [0, 3]).ravel()
    else:
        t = np.asarray(rho, complex).reshape(1, -1)
    row = np.zeros(count, dtype=np.intp)  # row of t holding each shot's branch
    offset = np.zeros(count)
    b = np.zeros(count, dtype=np.intp)
    for site in range(n):
        _, first, parent = np.unique(3 * row + words[:, site], return_index=True,
                                     return_inverse=True)
        t = t[row[first]]
        g = _CL2_GATES[words[first, site]]
        gates.rotate_site(t, 0, g)
        if density:
            gates.rotate_site(t, 1, g.conj())
            halves = t.reshape(len(t), 4, -1)[:, ::3]
            w = halves[..., trace[: 1 << (n - site - 1)]].real.sum(axis=-1)
        else:
            halves = t.reshape(len(t), 2, -1)
            w = np.square(halves.view(np.float64)).sum(axis=-1)
        np.clip(w, 0.0, None, out=w)
        p0, p1 = w[parent].T
        if site == 0:
            target = u * (p0 + p1)
        one = (p0 <= 0.0) | ((offset + p0 < target) & (p1 > 0.0))
        offset += np.where(one, p0, 0.0)
        b = 2 * b + one
        child, row = np.unique(2 * parent + one, return_inverse=True)
        t = halves[child >> 1, child & 1]
    return b


def _local_clifford_chunk(rho, n, count, rng):
    words = rng.integers(0, 3, size=(count, n))
    return words.astype(np.int8), _collapse(rho, words, rng.random(count))


def run_campaign(rho: np.ndarray, ens: Ensemble, shots: int, rng,
                 campaign_id: str = "c0", threads: int = 1) -> Records:
    """Simulate `shots` randomized measurements of rho under the ensemble.

    ``rho`` may be a state vector or a density matrix. The result is
    deterministic for a fixed generator state regardless of ``threads``.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    n = ens.n
    if qcore.num_qubits(rho) != n:
        raise ValueError("state/ensemble dimension mismatch")
    if shots < 1:
        raise ValueError("need at least one shot")
    sizes = [CHUNK] * (shots // CHUNK)
    if shots % CHUNK:
        sizes.append(shots % CHUNK)
    children = rng.spawn(len(sizes))

    if ens.is_discrete:
        tables = _born_tables(rho, _member_gates(ens))

        def work(count, child):
            idx = child.choice(len(ens.members), size=count, p=ens.weights)
            return idx, qcore.sample_cdf(np.cumsum(tables, axis=1), child, idx)

    elif ens.kind in (KIND_GLOBAL_SU2, KIND_LOCAL_CLIFFORD):
        chunk = _su2_chunk if ens.kind == KIND_GLOBAL_SU2 else _local_clifford_chunk

        def work(count, child):
            return chunk(rho, n, count, child)

    else:
        raise ValueError(f"cannot run campaigns over {ens.kind}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, sizes, children))
    else:
        results = list(map(work, sizes, children))
    columns = [np.concatenate(parts) for parts in zip(*results)]

    if ens.is_discrete:
        idx, b = columns
        thetas = phis = psis = None
        if ens.kind == KIND_DISCRETE_SUBSAMPLE:
            thetas, phis, psis = (a[idx] for a in _member_angles(ens))
        return Records(ens.kind, n, campaign_id, b, member_idx=idx,
                       thetas=thetas, phis=phis, psis=psis)
    if ens.kind == KIND_GLOBAL_SU2:
        thetas, phis, psis, b = columns
        return Records(ens.kind, n, campaign_id, b, thetas=thetas, phis=phis,
                       psis=psis)
    bases, b = columns
    return Records(ens.kind, n, campaign_id, b, bases=bases)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def default_batches(m_observables: int, delta: float) -> int:
    return math.ceil(2.0 * math.log(2.0 * m_observables / delta))


def estimate(records: Records, k: KernelTable, method: str = "mean",
             batches: int | None = None, m_observables: int = 1,
             delta: float = 0.1) -> float:
    """Empirical-average (or median-of-means) estimate of tr(rho O)."""
    if len(records) == 0:
        raise ValueError("no measurement records")
    vals = k.evaluate_records(records)
    if method == "mean":
        return float(vals.mean())
    if method == "median_of_means":
        if batches is None:
            batches = default_batches(m_observables, delta)
        batches = max(1, min(batches, vals.size))
        splits = np.array_split(vals, batches)
        return float(np.median([s.mean() for s in splits]))
    raise ValueError(f"unknown method {method!r}")


def var_max_bound(k: KernelTable) -> float:
    """State-independent variance bound sum_V p(V) max_b K(V,b)^2."""
    _, weights, vals = k.terms
    return float(np.dot(weights, (vals**2).max(axis=1)))


def var_under_state(k: KernelTable, rho: np.ndarray) -> float:
    """Exact Var[K] under P_rho(V, b) = p(V) <b|V rho V†|b>."""
    g, weights, vals = k.terms
    probs = _born_tables(rho, g)
    mean = float(np.dot(weights, (probs * vals).sum(axis=1)))
    second = float(np.dot(weights, (probs * vals**2).sum(axis=1)))
    return second - mean**2


def kernel_q(k: KernelTable, variant: str = "theorem") -> float:
    """The Q constant of the sampling-budget formula.

    ``theorem`` uses max|K| + the spectral norm of the represented operator;
    ``max_abs_k`` is the bare max|K| variant.
    """
    max_abs = float(np.abs(k.terms[2]).max())
    if variant == "max_abs_k":
        return max_abs
    if variant == "theorem":
        return max_abs + qcore.spectral_norm(reconstruct(k))
    raise ValueError(f"unknown Q variant {variant!r}")


@dataclass
class Budget:
    """Inputs of the measurement-count formula for M observables."""

    m_observables: int
    epsilon: float
    delta: float
    var_bounds: tuple
    q_values: tuple
    biases: tuple = field(default_factory=tuple)
    q_variant: str = "theorem"

    def __post_init__(self):
        if not 0 < self.epsilon <= 1 or not 0 < self.delta <= 1:
            raise ValueError("epsilon and delta must lie in (0, 1]")
        if self.m_observables < 1:
            raise ValueError("need at least one observable")
        if self.delta >= self.m_observables / 2.0:
            raise ValueError(f"delta={self.delta} must be below M/2 = "
                             f"{self.m_observables / 2.0:g}: the factor "
                             f"ln(M / 2 delta) is not positive there")
        if not self.biases:
            self.biases = tuple(0.0 for _ in self.var_bounds)
        if len(self.var_bounds) != len(self.q_values) or len(self.biases) != len(self.var_bounds):
            raise ValueError("per-observable lists must align")


def theorem1_shots(b: Budget) -> int:
    """N = ceil( 2 ln(M / 2 delta) * max_i (Var_i + eps_i Q_i / 3) / eps_i^2 )

    with eps_i = epsilon - bias_i (the error slack left for statistics).
    """
    worst = 0.0
    for var, q, bias in zip(b.var_bounds, b.q_values, b.biases):
        slack = b.epsilon - bias
        if slack <= 0:
            raise ValueError(f"bias {bias} consumes the whole error budget "
                             f"epsilon={b.epsilon}")
        worst = max(worst, (var + slack * q / 3.0) / slack**2)
    return math.ceil(2.0 * confidence_log(b.m_observables, b.delta) * worst)


def confidence_log(m_observables: int, delta: float) -> float:
    """ln(M / 2 delta), the confidence factor of the shot-count formula."""
    return math.log(m_observables / (2.0 * delta))


# ---------------------------------------------------------------------------
# Reconstruction (discrete sums and SU(2) quadrature)
# ---------------------------------------------------------------------------


def _realize_node(node, n: int) -> np.ndarray:
    return ensembles.realize(SampledUnitary(KIND_GLOBAL_SU2, n, theta=node[0],
                                            psi=node[1]))


def su2_quadrature_angles(n: int):
    """(theta, psi) nodes and weights integrating the Haar measure exactly
    for the polynomial degrees that global-rotation kernels produce."""
    n_theta = 2 * n + 4
    n_psi = 4 * n + 4
    u_nodes, u_weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(u_nodes)
    psi_nodes = 2.0 * np.pi * np.arange(n_psi) / n_psi
    nodes = [(t, p) for t in thetas for p in psi_nodes]
    weights = np.array([w / 2.0 / n_psi for w in u_weights for _ in range(n_psi)])
    return nodes, weights


def _node_gates(nodes) -> np.ndarray:
    thetas, psis = np.asarray(nodes).T
    return ensembles.su2_matrix(thetas, 0.0, psis)


def _su2_node_values(inv_op: np.ndarray, nodes, n: int) -> np.ndarray:
    """K(V, b) = <b|V inv_op V†|b> at each quadrature node (row) and outcome."""
    return gates.diagonal(inv_op, _node_gates(nodes))


def reconstruct(k: KernelTable) -> np.ndarray:
    """sum_V p(V) sum_b K(V,b) V†|b><b|V (quadrature for the continuous kind).

    The rows <b|V of a block of rotations, at most gates.BLOCK entries, are
    stacked as X, and the block adds X† (p K ⊙ X) in one product.
    """
    g, weights, vals = k.terms
    dim = 1 << k.n
    out = np.zeros((dim, dim), dtype=complex)
    for block in gates.blocks(len(g), dim * dim):
        x = gates.rows(g[block], k.n).reshape(-1, dim)
        pk = (weights[block, None] * vals[block]).reshape(-1, 1)
        out += x.conj().T @ (pk * x)
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
#
# One row per shot under ``# key=value`` metadata and a ``# n=`` line:
# campaign_id,shot_index,ensemble_kind,v_params,b. v_params is the basis
# word (LocalClifford), the basis letter (GlobalCl2), theta;phi;psi
# (GlobalSU2) or index;theta;phi;psi (DiscreteSubsample), angles as Python
# repr; b is the outcome as n binary digits, site 0 first. Both directions
# are columnar: a column is a NUL-padded (rows, width) byte table, and
# neither direction builds a Python object per row.

RECORD_COLUMNS = "campaign_id,shot_index,ensemble_kind,v_params,b"

_NEWLINE, _COMMA, _SEMICOLON, _ZERO = b"\n,;0"


def _field(raw: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """raw[start:stop] of every row as a NUL-padded (rows, width) table."""
    length = stop - start
    width = int(length.max())
    if width == 0:
        return np.zeros((start.size, 0), dtype=np.uint8)
    if start.max() + width > raw.size:
        raw = np.concatenate([raw, np.zeros(width, dtype=np.uint8)])
    cells = sliding_window_view(raw, width)[start]
    cells *= np.arange(width) < length[:, None]
    return cells


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)[None, :]


def _float_cells(values: np.ndarray) -> np.ndarray:
    """repr of each float, formatted once per distinct bit pattern."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = ",".join(map(repr, distinct.view(np.float64).tolist())) + ","
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    stop = np.flatnonzero(raw == _COMMA)
    return _field(raw, np.r_[0, stop[:-1] + 1], stop)[inverse]


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Decimal text of non-negative integers."""
    values = np.asarray(values, dtype=np.int64)
    if values.min() < 0:
        raise ValueError("member indices must be non-negative")
    width = len(str(int(values.max())))
    power = 10 ** np.arange(width - 1, -1, -1)
    digits = (values[:, None] // power % 10 + _ZERO).astype(np.uint8)
    skip = width - np.maximum((values[:, None] >= power).sum(axis=1), 1)
    at = np.arange(width) + skip[:, None]  # left-align: drop leading zeros
    return np.take_along_axis(digits, np.minimum(at, width - 1), axis=1) * (at < width)


def _join_cells(cells: list) -> bytes:
    """Rows laid out as the concatenation of their NUL-padded cells."""
    rows = max(c.shape[0] for c in cells)
    table = np.concatenate([np.broadcast_to(c, (rows, c.shape[1])) for c in cells],
                           axis=1)
    return table[table != 0].tobytes()


def records_to_csv(records: Records, metadata: dict | None = None) -> str:
    n, count = records.n, len(records)
    if count and not 0 <= records.b.min() <= records.b.max() < 1 << n:
        raise ValueError(f"outcomes must lie in [0, 2^{n})")
    parts = [artifacts.metadata_header(metadata), f"# n={n}\n{RECORD_COLUMNS}\n"]
    lead = _ascii(f"{records.campaign_id},")
    kind = _ascii(f",{records.kind},")
    comma, semicolon, newline = _ascii(","), _ascii(";"), _ascii("\n")
    for start in range(0, count, CHUNK):
        rows = slice(start, min(start + CHUNK, count))
        if records.kind == KIND_LOCAL_CLIFFORD:
            params = [_BASIS_CODES[records.bases[rows]]]
        elif records.kind == KIND_GLOBAL_CL2:
            params = [_BASIS_CODES[records.member_idx[rows]][:, None]]
        else:
            theta, phi, psi = (_float_cells(a[rows])
                               for a in (records.thetas, records.phis, records.psis))
            params = [theta, semicolon, phi, semicolon, psi]
            if records.kind == KIND_DISCRETE_SUBSAMPLE:
                params = [_int_cells(records.member_idx[rows]), semicolon] + params
        bits = (_site_bits(records.b[rows], n) + _ZERO).astype(np.uint8)
        cells = [lead, _int_cells(np.arange(rows.start, rows.stop)), kind,
                 *params, comma, bits, newline]
        parts.append(_join_cells(cells).decode("ascii"))
    return "".join(parts)


def _marks_per_row(marks, low, high, per_row: int) -> np.ndarray | None:
    """The sorted positions `marks` as a (rows, per_row) table, or None
    unless each row holds exactly per_row of them strictly inside
    (low, high). Rows are disjoint and in order, so it is enough that the
    count is right and each row's block of per_row marks lies inside it."""
    if marks.size != per_row * low.size:
        return None
    marks = marks.reshape(low.size, per_row)
    if (marks[:, 0] <= low).any() or (marks[:, -1] >= high).any():
        return None
    return marks


def _same_text(cells: np.ndarray, what: str) -> str:
    if (cells != cells[0]).any():
        raise ValueError(f"record rows disagree on {what}")
    return cells[0].tobytes().rstrip(b"\0").decode("ascii")


def _check_chars(cells: np.ndarray, alphabet: str, what: str) -> None:
    allowed = np.zeros(256, dtype=bool)
    allowed[list((alphabet + "\0").encode())] = True
    if cells.shape[1] == 0 or not (allowed[cells].all() and cells[:, 0].all()):
        raise ValueError(f"{what} must be a non-empty string over {alphabet!r}")


def _decimal(cells: np.ndarray, what: str) -> np.ndarray:
    """Non-negative decimal integers from NUL-padded digit cells."""
    _check_chars(cells, "0123456789", what)
    if cells.shape[1] > 18:
        raise ValueError(f"{what} has more than 18 digits")
    length = (cells != 0).sum(axis=1)
    power = length[:, None] - 1 - np.arange(cells.shape[1])
    digits = cells.astype(np.int64) - _ZERO
    return np.where(power >= 0, digits * 10 ** np.maximum(power, 0), 0).sum(axis=1)


def _fixed(raw, start, stop, width: int, what: str) -> np.ndarray:
    """(rows, width) table of a field that must be exactly `width` bytes long."""
    if (stop - start != width).any():
        raise ValueError(f"{what} must be exactly {width} characters")
    return raw[start[:, None] + np.arange(width)]


def records_from_csv(text: str) -> tuple[Records, dict]:
    """Inverse of records_to_csv, validating every row.

    Raises ValueError on a foreign header, a missing ``# n=`` line, rows
    without exactly 5 fields, rows that disagree on campaign_id or
    ensemble_kind, shot indices other than 0, 1, 2, ..., outcomes that are
    not n binary digits, and malformed v_params.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    metadata, body = artifacts.read_metadata_header(text)
    header, _, body = body.partition("\n")
    if header.rstrip() != RECORD_COLUMNS:
        raise ValueError("unrecognized record CSV header")
    try:
        n = int(metadata["n"])
    except KeyError:
        raise ValueError("record CSV has no '# n=' line") from None
    if not 1 <= n <= qcore.N_CAP:
        raise ValueError(f"record CSV has n={n}, outside 1..{qcore.N_CAP}")
    if not body:
        raise ValueError("record CSV holds a header but no records")
    if not body.endswith("\n"):
        body += "\n"
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    if not raw.all():
        raise ValueError("record CSV holds a NUL byte")

    ends = np.flatnonzero(raw == _NEWLINE)
    count = ends.size
    begins = np.r_[0, ends[:-1] + 1]
    commas = np.flatnonzero(raw == _COMMA)
    commas_by_row = _marks_per_row(commas, begins - 1, ends, 4)
    if commas_by_row is None:
        fields = np.bincount(np.searchsorted(ends, commas), minlength=count) + 1
        bad = int(np.flatnonzero(fields != 5)[0])
        raise ValueError(f"record row {bad} has {fields[bad]} fields, not 5")
    # field f of a row spans cut[:, f] + 1 .. cut[:, f + 1]
    cut = np.column_stack([begins - 1, commas_by_row, ends])
    start, stop = cut[:, :-1] + 1, cut[:, 1:]

    campaign_id = _same_text(_field(raw, start[:, 0], stop[:, 0]), "campaign_id")
    kind = _same_text(_field(raw, start[:, 2], stop[:, 2]), "ensemble_kind")
    if kind not in KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    index = _decimal(_field(raw, start[:, 1], stop[:, 1]), "shot_index")
    if not np.array_equal(index, np.arange(count)):
        raise ValueError("shot_index must number the rows 0, 1, 2, ...")
    bits = _fixed(raw, start[:, 4], stop[:, 4], n, "b")
    _check_chars(bits, "01", "b")
    b = (bits - _ZERO).astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))

    p_start, p_stop = start[:, 3], stop[:, 3]
    if kind == KIND_LOCAL_CLIFFORD:
        bases = _BASIS_OF_CODE[_fixed(raw, p_start, p_stop, n, "v_params")]
        if (bases < 0).any():
            raise ValueError("per-site words use letters outside X, Y, Z")
        return Records(kind, n, campaign_id, b, bases=bases), metadata
    if kind == KIND_GLOBAL_CL2:
        member_idx = _BASIS_OF_CODE[_fixed(raw, p_start, p_stop, 1, "v_params")[:, 0]]
        if (member_idx < 0).any():
            raise ValueError("Cl(2) bases must be X, Y or Z")
        return Records(kind, n, campaign_id, b,
                       member_idx=member_idx.astype(np.int64)), metadata

    # [index;]theta;phi;psi. The campaign id holds no ';' (Records checks it
    # below) and the other fields are checked above, so every ';' in the
    # body must sit in a v_params field.
    parts = 3 if kind == KIND_GLOBAL_SU2 else 4
    semis = _marks_per_row(np.flatnonzero(raw == _SEMICOLON), p_start - 1, p_stop,
                           parts - 1)
    if semis is None or ";" in campaign_id:
        raise ValueError(f"{kind} v_params need {parts} ';'-separated parts")
    cut = np.column_stack([p_start - 1, semis, p_stop])
    member_idx, spread = None, slice(None)
    if kind == KIND_DISCRETE_SUBSAMPLE:
        member_idx = _decimal(_field(raw, cut[:, 0] + 1, cut[:, 1]), "member index")
        _, first, inverse = np.unique(member_idx, return_index=True, return_inverse=True)
        params = _field(raw, p_start, p_stop)
        if np.array_equal(params, params[first[inverse]]):
            # every row of a member repeats its text: read its angles once
            cut, spread = cut[first], inverse
    start, stop = cut[:, -4:-1].T.ravel() + 1, cut[:, -3:].T.ravel()
    if (stop <= start).any():
        raise ValueError("empty angle in v_params")
    angles = _field(raw, start, stop)
    angles = angles.view(f"S{angles.shape[1]}").ravel().astype(np.float64)
    thetas, phis, psis = angles.reshape(3, -1)[:, spread]
    return Records(kind, n, campaign_id, b, member_idx=member_idx, thetas=thetas,
                   phis=phis, psis=psis), metadata
