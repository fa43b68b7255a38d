"""Randomized-measurement campaigns, kernel representations and estimates.

A kernel K(V, b) expresses an operator O over the outcome-projector family:

    O = sum_V p(V) sum_b K(V, b) V†|b><b|V          (reconstruction identity)

so that the empirical mean of K(V_s, b_s) over measurement records is an
unbiased estimator of tr(rho O). Discrete ensembles store K as a dense
(members x 2^n) table; the continuous global-SU(2) ensemble stores the real
family amplitudes a_S = tr(B_S M^{-1}(O)), and K(V, b) = sum_S a_S <b|V B_S V†|b>.
Every ensemble but local random Paulis applies one global rotation
V = u^{⊗n}, so its measured diagonals, its kernel sums and its
least-squares system are written in the visible family basis of
``visible`` (see ``visible.rotated_diagonal``).

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

from . import artifacts, channels, ensembles, gates, qcore, visible
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
    A global SU(2) rotation is kept as its (theta, psi): the outer Euler
    angle phi cancels in V†|b><b|V and is not recorded. The campaign id is
    printable ASCII without ``,``, ``;``, ``"`` or a trailing blank, which
    the ``# campaign_id=`` line of the record CSV would lose.
    """

    def __init__(self, kind: str, n: int, campaign_id: str, b: np.ndarray,
                 member_idx: np.ndarray | None = None,
                 thetas: np.ndarray | None = None,
                 psis: np.ndarray | None = None,
                 bases: np.ndarray | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r}")
        if (not (campaign_id.isascii() and campaign_id.isprintable())
                or any(ch in campaign_id for ch in ',;"')
                or campaign_id.endswith(" ")):
            raise ValueError(f"campaign_id {campaign_id!r} must be printable "
                             f"ASCII without ',', ';', '\"' or a trailing blank")
        self.kind = kind
        self.n = n
        self.campaign_id = campaign_id
        self.b = np.asarray(b, dtype=np.int64)
        self.member_idx = member_idx
        self.thetas = thetas
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
    global-SU(2) kind it is None and ``amps`` holds the real amplitudes
    tr(B_S M^{-1}(O)), read per shot by su2_shot_values. Nothing
    changes a table once it is made, so its quadrature terms are computed once.
    """

    ens: Ensemble
    values: np.ndarray | None = None
    amps: np.ndarray | None = None
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
                _su2_node_values(self.amps, nodes, self.n))

    def evaluate_records(self, records: Records) -> np.ndarray:
        if records.n != self.n or records.kind != self.ens.kind:
            raise ValueError("records were drawn from a different ensemble")
        if self.values is not None:
            return self.values[records.member_idx, records.b]
        return su2_shot_values(records, self.amps)


def su2_shot_values(records: Records, amps: np.ndarray) -> np.ndarray:
    """<b_j|V_j A V_j†|b_j> per global-SU(2) shot j: its visible.shot_rows row
    times the real family amplitudes ``amps`` of A (one column per A if 2-D)."""
    u = ensembles.su2_matrix(records.thetas, 0.0, records.psis)
    out = np.empty((len(records),) + amps.shape[1:])
    for blk in gates.blocks(len(records), len(amps)):
        out[blk] = visible.shot_rows(u[blk], records.b[blk], records.n) @ amps
    return out


def _site_bits(b: np.ndarray, n: int) -> np.ndarray:
    """(N, n) table of per-site bits, site 0 first."""
    shifts = np.arange(n - 1, -1, -1)
    return (b[:, None] >> shifts[None, :]) & 1


# ---------------------------------------------------------------------------
# Family-row least-squares system for discrete ensembles
# ---------------------------------------------------------------------------


def _member_angles(ens: Ensemble):
    """(thetas, psis) arrays over the members of an ensemble."""
    return tuple(np.array([getattr(m, name) for m in ens.members])
                 for name in ("theta", "psi"))


def _member_gates(ens: Ensemble) -> np.ndarray:
    """(members, 2, 2) single-qubit rotation of each member of a global ensemble."""
    if ens.kind in (KIND_GLOBAL_SU2, KIND_DISCRETE_SUBSAMPLE):
        thetas, psis = _member_angles(ens)
        return ensembles.su2_matrix(thetas, 0.0, psis)
    return np.stack([m.single_qubit() for m in ens.members])


def _family_rows(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Real (families, members x 2^n) matrix M of the kernel sum, and sqrt(p).

    M[S, (j, b)] = sqrt(p_j) <b|V_j B_S V_j†|b>, so M @ (sqrt(p) K).ravel()
    holds tr(B_S O~) for the operator O~ that a kernel table K represents.
    """
    if not ens.is_discrete:
        raise ValueError("stacked system needs a discrete ensemble")
    sqrt_p = np.sqrt(ens.weights)
    w = visible.family_table(_member_gates(ens), ens.n) * sqrt_p[:, None]
    m = w.T[:, :, None] * visible.family_signs(ens.n)[:, None, :]
    return m.reshape(len(m), -1), sqrt_p


def stacked_system(o: np.ndarray, ens: Ensemble):
    """Family-row system M y = Re tr(B_S O), one real row per visible family,
    as (M, Re tr(B_S O), sqrt(p), unreached).

    The substitution y = sqrt(p) K makes the minimum-norm solution of this
    system the kernel with the smallest variance under the maximally mixed
    state while keeping the p-weighted reconstruction identity exact.
    ``unreached`` is the part of ||O - O~||_F^2 that no kernel reaches: the
    imaginary family parts and the invisible part of O.
    """
    m, sqrt_p = _family_rows(ens)
    if qcore.num_qubits(o) != ens.n:
        raise ValueError("operator/ensemble dimension mismatch")
    amps, outside = visible.family_split(o)
    return m, amps.real, sqrt_p, float(amps.imag @ amps.imag + outside**2)


def _residual(misfit: np.ndarray, unreached: float) -> float:
    """||O - O~||_F from the family-row misfit M y - Re tr(B_S O) and the
    unreached part of stacked_system."""
    return float(np.sqrt(misfit @ misfit + unreached))


def _solve_min_norm(a: np.ndarray, b: np.ndarray, unreached: float):
    """Minimum-norm least-squares y of the system (a, b), and ||O - O~||_F."""
    y, *_ = np.linalg.lstsq(a, b, rcond=None)
    return y, _residual(a @ y - b, unreached)


def _kernel_from_y(ens: Ensemble, y: np.ndarray, sqrt_p: np.ndarray,
                   residual: float = 0.0) -> KernelTable:
    """The kernel table K = y / sqrt(p) of a family-row solution y."""
    values = y.reshape(len(ens.members), -1) / sqrt_p[:, None]
    return KernelTable(ens, values=values, residual=residual)


def representability_residual(o: np.ndarray, ens: Ensemble) -> float:
    """||O - O~||_F of the least-squares kernel (0 when o is representable)."""
    a, b, _, unreached = stacked_system(o, ens)
    return _solve_min_norm(a, b, unreached)[1]


def kernel_least_squares(o: np.ndarray, ens: Ensemble) -> KernelTable:
    """Minimum-norm kernel for a discrete subsample (unbiased when representable)."""
    a, b, sqrt_p, unreached = stacked_system(o, ens)
    y, residual = _solve_min_norm(a, b, unreached)
    if residual > visible.residual_limit(o):
        raise RepresentabilityError(
            f"operator is not representable by this unitary set "
            f"(residual {residual:.3e})", residual=residual)
    return _kernel_from_y(ens, y, sqrt_p, residual)


def kernel_cs(o: np.ndarray, ens: Ensemble) -> KernelTable:
    """Classical-shadow kernel K(V,b) = Re <b|V M^{-1}(O) V†|b>."""
    if qcore.num_qubits(o) != ens.n:
        raise ValueError("operator/ensemble dimension mismatch")
    if ens.kind == KIND_GLOBAL_SU2:
        amps = visible.family_coefficients(channels.inverse_msu2(o)).real
        return KernelTable(ens, amps=amps)
    if ens.kind == KIND_GLOBAL_CL2:
        amps = visible.family_coefficients(channels.inverse_mcl2(o)).real
        values = visible.rotated_diagonal(amps, _member_gates(ens), ens.n)
        return KernelTable(ens, values=values)
    raise ValueError("kernel_cs needs an analytic channel (GlobalSU2 or GlobalCl2)")


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _born_tables(rho: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P(b | V) rows of a state vector or density matrix for the global
    rotations V = g[j]^{⊗n} of a (rows, 2, 2) gate table."""
    n = qcore.num_qubits(rho)
    if rho.ndim == 1:
        probs = np.abs(gates.rows(g, n, rho)) ** 2
    else:
        probs = visible.rotated_diagonal(visible.family_coefficients(rho).real, g, n)
    total = probs.sum(axis=1)
    worst = int(np.abs(total - 1.0).argmax())
    if abs(total[worst] - 1.0) > 1e-8:
        raise NumericalDegeneracyError(f"outcome probabilities sum to {total[worst]}")
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _su2_chunk(rho, n, count, rng):
    thetas, _, psis = ensembles.haar_su2_angles(count, rng)
    cdf = _born_tables(rho, ensembles.su2_matrix(thetas, 0.0, psis))
    np.cumsum(cdf, axis=1, out=cdf)
    return thetas, psis, qcore.sample_cdf(cdf, rng)


_CL2_GATES = np.stack([ensembles.basis_rotation(ch) for ch in ensembles.CL2_BASES])


def _group(key: np.ndarray, size: int):
    """np.unique(key, return_inverse=True) for keys in [0, size), without a
    sort: mark the keys in a bool table, number the marks by a running sum."""
    seen = np.zeros(size, dtype=bool)
    seen[key] = True
    return np.flatnonzero(seen), np.cumsum(seen)[key] - 1


def _collapse(rho: np.ndarray, words: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each shot: rho measured in its basis word, one site at a time.

    At each site the shots' distinct (basis, row) pairs become rows, keyed
    basis · r + row for the r rows live there, so they come out in an X, a Y
    and a Z block. Each block is rotated by its one gate (Z is the identity),
    then split into its outcome-0 and outcome-1 halves, weighted by squared
    norm (a density matrix, run as the 2n-site row of gates.vectorized, keeps
    its (b, b) blocks, weighted by trace). A shot goes to half 1 when
    offset + p0 < u * total, which bisects the inverse-CDF search of
    sample_bits bit by bit, and never enters a half of weight 0. Only the
    chosen halves go on, so rows halve at every site.
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
        r = len(t)
        keys, parent = _group(r * words[:, site] + row, 3 * r)
        t = t[keys % r]
        x_end, y_end = np.searchsorted(keys, [r, 2 * r])
        for block, g in ((t[:x_end], _CL2_GATES[:1]), (t[x_end:y_end], _CL2_GATES[1:2])):
            gates.rotate_site(block, 0, g)
            if density:
                gates.rotate_site(block, 1, g.conj())
        if density:
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
        child, row = _group(2 * parent + one, 2 * len(t))
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
        thetas = psis = None
        if ens.kind == KIND_DISCRETE_SUBSAMPLE:
            thetas, psis = (a[idx] for a in _member_angles(ens))
        return Records(ens.kind, n, campaign_id, b, member_idx=idx,
                       thetas=thetas, psis=psis)
    if ens.kind == KIND_GLOBAL_SU2:
        thetas, psis, b = columns
        return Records(ens.kind, n, campaign_id, b, thetas=thetas, psis=psis)
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


def shot_factor(var, q, slack):
    """(Var + s Q / 3) / s^2 at the error slack s = epsilon - bias; inf where s <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slack > 0, (var + slack * q / 3.0) / slack**2, math.inf)


def shot_count(m_observables: int, delta: float, worst: float) -> int:
    """N = ceil(2 ln(M / 2 delta) * worst) for the largest shot_factor."""
    return math.ceil(2.0 * confidence_log(m_observables, delta) * worst)


def theorem1_shots(b: Budget) -> int:
    """N = ceil(2 ln(M / 2 delta) max_i (Var_i + s_i Q_i / 3) / s_i^2), s_i = epsilon - bias_i."""
    slack = b.epsilon - np.asarray(b.biases, dtype=float)
    if (slack <= 0).any():
        raise ValueError(f"bias {max(b.biases)} consumes the whole error budget "
                         f"epsilon={b.epsilon}")
    worst = shot_factor(np.asarray(b.var_bounds, dtype=float), np.asarray(b.q_values), slack)
    return shot_count(b.m_observables, b.delta, float(worst.max(initial=0.0)))


def confidence_log(m_observables: int, delta: float) -> float:
    """ln(M / 2 delta), the confidence factor of the shot-count formula."""
    return math.log(m_observables / (2.0 * delta))


# ---------------------------------------------------------------------------
# Reconstruction and the SU(2) quadrature
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


def _su2_node_values(amps: np.ndarray, nodes, n: int) -> np.ndarray:
    """K(V, b) = sum_S amps[S] <b|V B_S V†|b> at each quadrature node and b."""
    return visible.rotated_diagonal(amps, _node_gates(nodes), n)


def reconstruct(k: KernelTable) -> np.ndarray:
    """sum_V p(V) sum_b K(V,b) V†|b><b|V.

    It is sum_S tr(B_S O~) B_S: for the continuous kind the channel applied
    to the stored amplitudes of M^{-1}(O), for a discrete table the family
    amplitudes M @ (sqrt(p) K) of the family-row system.
    """
    if k.values is None:
        amps = channels.msu2_amplitudes(k.n, k.amps, False)
    else:
        m, sqrt_p = _family_rows(k.ens)
        amps = m @ (sqrt_p[:, None] * k.values).ravel()
    return visible.visible_from_family_coefficients(k.n, amps)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
#
# After the caller's ``# key=value`` metadata come four header lines,
# ``# n=``, ``# campaign_id=``, ``# ensemble_kind=`` and ``# shots=`` (the row
# count), then the column line and one row per shot: v_params,b. v_params is
# the basis word (LocalClifford), the basis letter (GlobalCl2), theta;psi
# (GlobalSU2) or index;theta;psi (DiscreteSubsample), angles as Python repr;
# b is the outcome as n binary digits, site 0 first. Both directions are
# columnar: a column is a NUL-padded (rows, width) byte table, and neither
# direction builds a Python object per row.

RECORD_COLUMNS = "v_params,b"
RECORD_KEYS = ("n", "campaign_id", "ensemble_kind", "shots")

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
    """The record CSV of `records` under the ``# key=value`` lines of
    `metadata`, which may not use a key of RECORD_KEYS."""
    n, count = records.n, len(records)
    if count and not 0 <= records.b.min() <= records.b.max() < 1 << n:
        raise ValueError(f"outcomes must lie in [0, 2^{n})")
    metadata = dict(metadata or {})
    reserved = sorted({str(key).strip() for key in metadata} & set(RECORD_KEYS))
    if reserved:
        raise ValueError(f"metadata keys {reserved} are reserved for the record header")
    metadata.update(zip(RECORD_KEYS, (n, records.campaign_id, records.kind, count)))
    parts = [artifacts.metadata_header(metadata), f"{RECORD_COLUMNS}\n"]
    comma, semicolon, newline = _ascii(","), _ascii(";"), _ascii("\n")
    for start in range(0, count, CHUNK):
        rows = slice(start, min(start + CHUNK, count))
        if records.kind == KIND_LOCAL_CLIFFORD:
            params = [_BASIS_CODES[records.bases[rows]]]
        elif records.kind == KIND_GLOBAL_CL2:
            params = [_BASIS_CODES[records.member_idx[rows]][:, None]]
        else:
            theta, psi = (_float_cells(a[rows]) for a in (records.thetas, records.psis))
            params = [theta, semicolon, psi]
            if records.kind == KIND_DISCRETE_SUBSAMPLE:
                params = [_int_cells(records.member_idx[rows]), semicolon] + params
        bits = (_site_bits(records.b[rows], n) + _ZERO).astype(np.uint8)
        parts.append(_join_cells([*params, comma, bits, newline]).decode("ascii"))
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
    """Inverse of records_to_csv, validating every row: the records and the
    caller's metadata, without the RECORD_KEYS lines.

    Raises ValueError on a column line other than RECORD_COLUMNS (a file of
    an older layout among them), a missing RECORD_KEYS line, a row count
    other than ``shots``, rows without exactly one ',', outcomes that are not
    n binary digits, and malformed v_params.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    metadata, body = artifacts.read_metadata_header(text)
    header, _, body = body.partition("\n")
    if header.rstrip() != RECORD_COLUMNS:
        raise ValueError(f"record CSV columns must be {RECORD_COLUMNS!r}, "
                         f"not {header.rstrip()!r}")
    try:
        n, campaign_id, kind, shots = (metadata.pop(key) for key in RECORD_KEYS)
    except KeyError as exc:
        raise ValueError(f"record CSV has no '# {exc.args[0]}=' line") from None
    n = int(n)
    if not 1 <= n <= qcore.N_CAP:
        raise ValueError(f"record CSV has n={n}, outside 1..{qcore.N_CAP}")
    if kind not in KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if not body:
        raise ValueError("record CSV holds a header but no records")
    if not body.endswith("\n"):
        body += "\n"
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    if not raw.all():
        raise ValueError("record CSV holds a NUL byte")

    ends = np.flatnonzero(raw == _NEWLINE)
    if str(ends.size) != shots:
        raise ValueError(f"record CSV holds {ends.size} rows, its header says "
                         f"shots={shots}")
    begins = np.r_[0, ends[:-1] + 1]
    commas = _marks_per_row(np.flatnonzero(raw == _COMMA), begins - 1, ends, 1)
    if commas is None:
        raise ValueError("each record row must be v_params,b with exactly one ','")
    p_start, p_stop = begins, commas[:, 0]
    bits = _fixed(raw, p_stop + 1, ends, n, "b")
    _check_chars(bits, "01", "b")
    b = (bits - _ZERO).astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))

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

    # [index;]theta;psi. The outcomes are checked above, so every ';' in the
    # body must sit in a v_params field.
    parts = 2 if kind == KIND_GLOBAL_SU2 else 3
    semis = _marks_per_row(np.flatnonzero(raw == _SEMICOLON), p_start - 1, p_stop,
                           parts - 1)
    if semis is None:
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
    start, stop = cut[:, -3:-1].T.ravel() + 1, cut[:, -2:].T.ravel()
    if (stop <= start).any():
        raise ValueError("empty angle in v_params")
    angles = _field(raw, start, stop)
    angles = angles.view(f"S{angles.shape[1]}").ravel().astype(np.float64)
    thetas, psis = angles.reshape(2, -1)[:, spread]
    return Records(kind, n, campaign_id, b, member_idx=member_idx, thetas=thetas,
                   psis=psis), metadata
