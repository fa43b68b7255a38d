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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import artifacts, channels, ensembles, gates, qcore, visible
from .ensembles import (
    KIND_DISCRETE_SUBSAMPLE,
    KIND_GLOBAL_CL2,
    KIND_GLOBAL_SU2,
    KIND_LOCAL_CLIFFORD,
    Ensemble,
    SampledUnitary,
)
from .errors import DimensionCapError, NumericalDegeneracyError, RepresentabilityError

CHUNK = 4096
# float64 entries of the largest family-row matrix M, F(n) x members x 2^n for
# F(n) = visible.expected_set_count(n). A bias scan peaks at about 4.7 x M of
# RSS (2.6 GB for the 534 MiB M of a 3-member Cl(2) scan at n = 10), so an
# 8 GB host holds an M of at most 8e9 / 4.7 / 8 = 2.1e8 entries. 2^27 = 1.3e8
# entries (1 GiB of M, a peak near 5 GB) leaves the rest of the host free.
FAMILY_ROWS_CAP = 1 << 27
# largest shot count of one campaign (`estimate` shots, `phase-classify` n_rp
# and n_su2). Peak RSS grows by about 192 bytes a shot in `estimate` on the
# default 25-member subsample (408 MB at 2e6 shots, 774 MB at 4e6): 32 bytes
# of records columns (b, member_idx, thetas, psis), their per-chunk copies
# before the concatenation, and about 120 bytes of record-CSV byte table and
# text. The n_rp campaign grows by 226 bytes a shot. One state's n_su2 pass
# (phases.patch_features) grows by about 129 bytes a shot, 32 for each of the
# four patches at L = 2: the angles, uniform and outcome of the shot, whose
# outcome row is summed as it comes (98 964 KiB more peak RSS from 2^18 to
# 2^20 shots). 2^22 shots stay below 1.6 GB.
SHOTS_CAP = 1 << 22
# largest m_observables: the confidence factors divide M as a float, which
# holds every integer up to 2^53 exactly
M_OBSERVABLES_CAP = 1 << 53


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
    angle phi cancels in V†|b><b|V and is not recorded. Angles must be
    finite; the record CSV writes each as the 16 hex digits of its IEEE-754
    bits, which read back bit for bit. The campaign id is printable ASCII
    without ``,``, ``;``, ``"`` or a trailing blank, which the
    ``# campaign_id=`` line of the record CSV would lose.
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
        for name, angles in (("thetas", thetas), ("psis", psis)):
            if angles is not None and not np.isfinite(angles).all():
                raise ValueError(f"{name} must be finite")
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
    """<b_j|V_j A V_j†|b_j> per global-SU(2) shot j: its visible.outcome_rows
    row against the real family amplitudes ``amps`` of A. Shots go through
    in blocks of at most gates.BLOCK table entries, each block's rotations,
    axes table and outcome rows formed as su2_shots forms them. A row is
    summed by einsum's own loop, not by a BLAS product, so a shot's value
    does not depend on where its block starts."""
    n = records.n
    out = np.empty(len(records))
    for blk in gates.blocks(len(records), len(amps)):
        u = ensembles.su2_matrix(records.thetas[blk], 0.0, records.psis[blk])
        w = visible.axes_table(visible.bloch_axes(u), n)
        out[blk] = np.einsum("sf,f->s", visible.outcome_rows(w, records.b[blk], n), amps)
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
    An M of more than FAMILY_ROWS_CAP entries raises DimensionCapError
    before anything is allocated.
    """
    if not ens.is_discrete:
        raise ValueError("stacked system needs a discrete ensemble")
    entries = visible.expected_set_count(ens.n) * len(ens.members) << ens.n
    if entries > FAMILY_ROWS_CAP:
        raise DimensionCapError(
            f"the family-row system is capped at FAMILY_ROWS_CAP = "
            f"{FAMILY_ROWS_CAP} float64 entries; n = {ens.n} with "
            f"{len(ens.members)} members needs {entries} ({entries * 8 / 2**30:.2f} GiB)")
    sqrt_p = np.sqrt(ens.weights)
    w = visible.axes_table(visible.bloch_axes(_member_gates(ens)), ens.n)
    w *= sqrt_p[:, None]
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


def _kernel_from_y(ens: Ensemble, y: np.ndarray, sqrt_p: np.ndarray) -> KernelTable:
    """The kernel table K = y / sqrt(p) of a family-row solution y."""
    return KernelTable(ens, values=y.reshape(len(ens.members), -1) / sqrt_p[:, None])


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
    return _kernel_from_y(ens, y, sqrt_p)


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


def _born_rows(probs: np.ndarray) -> np.ndarray:
    """In place: check that every row of an outcome table sums to 1 within
    1e-8, clip its negative entries and renormalize it; probs is returned."""
    total = probs.sum(axis=1)
    worst = int(np.abs(total - 1.0).argmax())
    if abs(total[worst] - 1.0) > 1e-8:
        raise NumericalDegeneracyError(f"outcome probabilities sum to {total[worst]}")
    np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _born_tables(rho: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P(b | V) rows of a state vector or density matrix for the global
    rotations V = g[j]^{⊗n} of a (rows, 2, 2) gate table."""
    n = qcore.num_qubits(rho)
    if rho.ndim == 1:
        probs = np.abs(gates.rows(g, n, rho)) ** 2
    else:
        probs = visible.rotated_diagonal(visible.family_coefficients(rho).real, g, n)
    return _born_rows(probs)


def chunk_sizes(shots: int) -> list:
    """Shot counts of a campaign's chunks: CHUNK each, then the remainder."""
    if shots < 1:
        raise ValueError("need at least one shot")
    return [CHUNK] * (shots // CHUNK) + ([shots % CHUNK] if shots % CHUNK else [])


def su2_shots(state: np.ndarray, n: int, sizes: list, children: list,
              moments: bool = False):
    """Global-SU(2) shots of one or more states, drawn chunk by chunk.

    ``state`` is a state vector, or a (states, families) table whose rows
    are the real family amplitudes Re tr(B_S rho) of density matrices. Each
    state is measured in chunks of ``sizes`` shots, and chunk i of state s
    draws from its own generator children[s * len(sizes) + i]: the Haar
    angles of its shots, then one uniform per shot, which picks the shot's
    outcome from the running sums of its Born row (qcore.invert_cdf).

    Shots go through in blocks of at most gates.BLOCK table entries, a row
    of ``state`` wide. A shot's rotation, Bloch axes and axes table are
    formed once; they give its Born row and, with ``moments`` (density-matrix
    states only), its visible.outcome_rows row <b|V B_S V†|b>.

    Returns (thetas, psis, b) over every shot, state after state, and with
    ``moments`` the (states, families) sums of each state's outcome rows,
    else None. The rows are added shot after shot, as numpy's axis-0 sum
    adds the rows of a C-ordered table: a sum of block sums would round
    differently.
    """
    if moments and state.ndim == 1:
        raise ValueError("outcome-row sums need the (states, families) table of "
                         "real family amplitudes, not a state vector")
    states, per_state = len(children) // len(sizes), sum(sizes)
    thetas, psis, uniform = (np.empty(states * per_state) for _ in range(3))
    offset = 0
    for count, child in zip(sizes * states, children):
        chunk = slice(offset, offset + count)
        thetas[chunk], _, psis[chunk] = ensembles.haar_su2_angles(count, child)
        child.random(out=uniform[chunk])
        offset += count
    b = np.empty(len(thetas), dtype=np.intp)
    sums = np.full(state.shape, -0.0) if moments else None
    for blk in gates.blocks(len(b), state.shape[-1]):
        start, stop = blk.start, blk.stop
        # (state, rows of the block) of every state the block reaches
        parts = [(s, slice(max(s * per_state, start) - start,
                           min(s * per_state + per_state, stop) - start))
                 for s in range(start // per_state, (stop - 1) // per_state + 1)]
        u = ensembles.su2_matrix(thetas[blk], 0.0, psis[blk])
        if state.ndim == 1:
            cdf = _born_tables(state, u)
        else:
            w = visible.axes_table(visible.bloch_axes(u), n)
            cdf = _born_rows(np.concatenate([visible.axes_diagonal(w[rows], state[s], n)
                                             for s, rows in parts]))
        np.cumsum(cdf, axis=1, out=cdf)
        b[blk] = qcore.invert_cdf(cdf, uniform[blk])
        if not moments:
            continue
        # axes_table is F-ordered, and numpy reduces a contiguous axis pairwise
        outcomes = np.ascontiguousarray(visible.outcome_rows(w, b[blk], n))
        for s, rows in parts:
            part = outcomes[rows]
            part[0] += sums[s]  # -0.0 + x is x, so a first part starts exactly
            sums[s] = np.add.reduce(part, axis=0)
    return thetas, psis, b, sums


_CL2_GATES = np.stack([ensembles.basis_rotation(ch) for ch in ensembles.CL2_BASES])


def _group(key: np.ndarray, size: int):
    """np.unique(key, return_inverse=True) for keys in [0, size), without a
    sort: mark the keys in a bool table, number the marks by a running sum."""
    seen = np.zeros(size, dtype=bool)
    seen[key] = True
    return np.flatnonzero(seen), np.cumsum(seen)[key] - 1


def _collapse(psi: np.ndarray, words: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each shot: state vector psi measured in its basis word, one
    site at a time.

    At each site the shots' distinct (basis, row) pairs become rows, keyed
    basis · r + row for the r rows live there, so they come out in an X, a Y
    and a Z block. Each block is rotated by its one gate (Z is the identity),
    then split into its outcome-0 and outcome-1 halves, weighted by squared
    norm. A shot goes to half 1 when offset + p0 < u * total, which bisects
    the inverse-CDF search of sample_bits bit by bit, and never enters a half
    of weight 0. Only the chosen halves go on, so rows halve at every site.
    """
    count, n = words.shape
    t = np.asarray(psi, complex).reshape(1, -1)
    row = np.zeros(count, dtype=np.intp)  # row of t holding each shot's branch
    offset = np.zeros(count)
    b = np.zeros(count, dtype=np.intp)
    for site in range(n):
        r = len(t)
        keys, parent = _group(r * words[:, site] + row, 3 * r)
        t = t[keys % r]
        x_end, y_end = np.searchsorted(keys, [r, 2 * r])
        gates.rotate_site(t[:x_end], 0, _CL2_GATES[:1])
        gates.rotate_site(t[x_end:y_end], 0, _CL2_GATES[1:2])
        halves = t.reshape(len(t), 2, -1)
        p0, p1 = np.square(halves.view(np.float64)).sum(axis=-1)[parent].T
        if site == 0:
            target = u * (p0 + p1)
        one = (p0 <= 0.0) | ((offset + p0 < target) & (p1 > 0.0))
        offset += np.where(one, p0, 0.0)
        b = 2 * b + one
        child, row = _group(2 * parent + one, 2 * len(t))
        t = halves[child >> 1, child & 1]
    return b


def run_campaign(rho: np.ndarray, ens: Ensemble, shots: int, rng,
                 threads: int = 1) -> Records:
    """Simulate `shots` randomized measurements of rho under the ensemble.

    ``rho`` is a state vector or a density matrix, except for local random
    Paulis, which measure a state vector only. The result, with campaign id
    "c0", is deterministic for a fixed generator state regardless of
    ``threads``.
    """
    rng = np.random.default_rng(rng)
    n = ens.n
    if qcore.num_qubits(rho) != n:
        raise ValueError("state/ensemble dimension mismatch")
    sizes = chunk_sizes(shots)
    children = rng.spawn(len(sizes))

    if ens.is_discrete:
        tables = _born_tables(rho, _member_gates(ens))

        def work(count, child):
            idx = child.choice(len(ens.members), size=count, p=ens.weights)
            return {"member_idx": idx, "b": qcore.invert_cdf(
                np.cumsum(tables, axis=1), child.random(count), idx)}

    elif ens.kind == KIND_GLOBAL_SU2:
        state = rho if rho.ndim == 1 else visible.family_coefficients(rho).real[None]

        def work(count, child):
            thetas, psis, b, _ = su2_shots(state, n, [count], [child])
            return {"thetas": thetas, "psis": psis, "b": b}

    elif ens.kind == KIND_LOCAL_CLIFFORD:
        if rho.ndim != 1:
            raise ValueError("local random-Pauli campaigns measure a state "
                             "vector, not a density matrix")

        def work(count, child):
            words = child.integers(0, 3, size=(count, n))
            return {"bases": words.astype(np.int8),
                    "b": _collapse(rho, words, child.random(count))}

    else:
        raise ValueError(f"cannot run campaigns over {ens.kind}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, sizes, children))
    else:
        results = list(map(work, sizes, children))
    columns = {name: np.concatenate([r[name] for r in results]) for name in results[0]}
    if ens.kind == KIND_DISCRETE_SUBSAMPLE:
        columns["thetas"], columns["psis"] = (
            a[columns["member_idx"]] for a in _member_angles(ens))
    return Records(ens.kind, n, "c0", **columns)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def default_batches(m_observables: int, delta: float) -> int:
    return math.ceil(2.0 * math.log(2.0 * m_observables / delta))


def estimate(records: Records, k: KernelTable, method: str = "mean",
             m_observables: int = 1, delta: float = 0.1) -> float:
    """Empirical-average (or median-of-means) estimate of tr(rho O); the
    median of means takes default_batches(m_observables, delta) batches."""
    if len(records) == 0:
        raise ValueError("no measurement records")
    vals = k.evaluate_records(records)
    if method == "mean":
        return float(vals.mean())
    if method == "median_of_means":
        batches = max(1, min(default_batches(m_observables, delta), vals.size))
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
        check_confidence(self.m_observables, self.delta)
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


def check_confidence(m_observables: int, delta: float) -> None:
    """ValueError unless M is at most M_OBSERVABLES_CAP and 2M / delta is
    finite, so that confidence_log and default_batches are."""
    if m_observables > M_OBSERVABLES_CAP:
        raise ValueError(f"m_observables = {m_observables} is above the cap "
                         f"2^53 = {M_OBSERVABLES_CAP}")
    if not math.isfinite(2.0 * m_observables / delta):
        raise ValueError(f"delta = {delta!r} overflows 2M / delta at M = "
                         f"{m_observables}: the smallest usable delta is "
                         f"{2.0 * m_observables / sys.float_info.max:.3g}")


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
        return visible.visible_from_family_coefficients(
            k.n, channels.msu2_amplitudes(k.n, k.amps, False))
    return _represented(k, *_family_rows(k.ens))


def _represented(k: KernelTable, m: np.ndarray, sqrt_p: np.ndarray) -> np.ndarray:
    """The operator O~ a discrete kernel table represents, from the family-row
    matrix M and sqrt(p) of its ensemble (_family_rows): sum_S tr(B_S O~) B_S
    for the family amplitudes M @ (sqrt(p) K)."""
    return visible.visible_from_family_coefficients(
        k.n, m @ (sqrt_p[:, None] * k.values).ravel())


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
#
# After the caller's ``# key=value`` metadata come four header lines,
# ``# n=``, ``# campaign_id=``, ``# ensemble_kind=`` and ``# shots=`` (the row
# count), then the column line and one row per shot: v_params,b. v_params is
# the basis word (LocalClifford), the basis letter (GlobalCl2), theta;psi
# (GlobalSU2) or index;theta;psi (DiscreteSubsample); b is the outcome as n
# binary digits, site 0 first. An angle is the 16 lowercase hex digits of its
# big-endian IEEE-754 bits, so it reads back bit for bit:
# ``struct.unpack(">d", bytes.fromhex(cell))[0]``. The member index is
# zero-padded to the digits of the largest index in the records. Every row of
# a file therefore has one width, and both directions work on one
# (rows, width) byte table, column slice by column slice.

RECORD_COLUMNS = "v_params,b"
RECORD_KEYS = ("n", "campaign_id", "ensemble_kind", "shots")

_NEWLINE, _COMMA, _SEMICOLON, _ZERO, _ONE = b"\n,;01"

_HEX_ANGLE = ("16 lowercase hex digits of its big-endian IEEE-754 bits, as "
              "struct.pack('>d', x).hex()")
_ROW_LAYOUTS = {
    KIND_LOCAL_CLIFFORD: "a word of one X, Y or Z per site",
    KIND_GLOBAL_CL2: "one basis letter X, Y or Z",
    KIND_GLOBAL_SU2: f"theta;psi, each angle {_HEX_ANGLE}",
    KIND_DISCRETE_SUBSAMPLE: f"index;theta;psi, each angle {_HEX_ANGLE}",
}

# byte -> its two hex digits read as one uint16, and back (256 if not two
# lowercase hex digits)
_HEX_PAIRS = np.frombuffer("".join(f"{i:02x}" for i in range(256)).encode(),
                           dtype=np.uint16)
_HEX_BYTE = np.full(1 << 16, 256, dtype=np.uint16)
_HEX_BYTE[_HEX_PAIRS] = np.arange(256)


def _hex_cells(values: np.ndarray) -> np.ndarray:
    """(rows, 16) table of the big-endian IEEE-754 bits of each float in hex."""
    octets = np.asarray(values, dtype=">f8").view(np.uint8).reshape(-1, 8)
    return np.take(_HEX_PAIRS, octets).view(np.uint8)


def _index_cells(values: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative integers, zero-padded to the largest."""
    values = np.asarray(values, dtype=np.int64)
    if values.min() < 0:
        raise ValueError("member indices must be non-negative")
    cells = np.empty((values.size, len(str(int(values.max())))), dtype=np.uint8)
    for j in range(cells.shape[1] - 1, -1, -1):  # numpy divides by a scalar fastest
        rest = values // 10
        cells[:, j] = values - 10 * rest + _ZERO
        values = rest
    return cells


def records_to_csv(records: Records, metadata: dict | None = None) -> str:
    """The record CSV of `records` under the ``# key=value`` lines of
    `metadata`, which may not use a key of RECORD_KEYS nor two keys that read
    back equal (the reader cuts a key at its first ``=`` and strips it)."""
    n, count = records.n, len(records)
    if not count:
        raise ValueError("no records to write: a record CSV holds at least one row")
    if not 0 <= records.b.min() <= records.b.max() < 1 << n:
        raise ValueError(f"outcomes must lie in [0, 2^{n})")
    metadata = dict(metadata or {})
    keys = [str(key).partition("=")[0].strip() for key in metadata]
    reserved = sorted(set(keys) & set(RECORD_KEYS))
    if reserved:
        raise ValueError(f"metadata keys {reserved} are reserved for the record header")
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"metadata keys {repeated} would read back twice")
    metadata.update(zip(RECORD_KEYS, (n, records.campaign_id, records.kind, count)))

    def mark(code):
        return np.full((count, 1), code, dtype=np.uint8)

    if records.kind == KIND_LOCAL_CLIFFORD:
        params = [_BASIS_CODES[records.bases]]
    elif records.kind == KIND_GLOBAL_CL2:
        params = [_BASIS_CODES[records.member_idx][:, None]]
    else:
        params = [_hex_cells(records.thetas), mark(_SEMICOLON), _hex_cells(records.psis)]
        if records.kind == KIND_DISCRETE_SUBSAMPLE:
            params = [_index_cells(records.member_idx), mark(_SEMICOLON), *params]
    bits = (_site_bits(records.b, n) + _ZERO).astype(np.uint8)
    table = np.concatenate([*params, mark(_COMMA), bits, mark(_NEWLINE)], axis=1)
    return (artifacts.metadata_header(metadata) + f"{RECORD_COLUMNS}\n"
            + table.tobytes().decode("ascii"))


def _hex_floats(cells: np.ndarray, kind: str) -> np.ndarray:
    """Floats from a (rows, 16) table of hex bit patterns."""
    octets = np.take(_HEX_BYTE, np.ascontiguousarray(cells).view(np.uint16))
    if (octets > 255).any():
        raise ValueError(f"{kind} angles must each be {_HEX_ANGLE}")
    return octets.astype(np.uint8).view(">f8").ravel().astype(np.float64)


def _member_indices(cells: np.ndarray) -> np.ndarray:
    """Non-negative integers from a (rows, digits) table of decimal digits."""
    if cells.shape[1] > 18:
        raise ValueError("member index has more than 18 digits")
    digits = cells.astype(np.int64) - _ZERO
    if ((digits < 0) | (digits > 9)).any():
        raise ValueError("member index must be decimal digits")
    return digits @ 10 ** np.arange(cells.shape[1] - 1, -1, -1)


def records_from_csv(text: str) -> tuple[Records, dict]:
    """Inverse of records_to_csv, validating every row: the records and the
    caller's metadata, without the RECORD_KEYS lines.

    Raises ValueError on a column line other than RECORD_COLUMNS (a file of
    an older layout among them), a missing RECORD_KEYS line, a first row
    that does not fit the kind's layout (decimal angles among them), a row of
    another width than the first, a row count other than ``shots``, outcomes
    that are not n binary digits, and malformed v_params.
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

    width = body.index("\n") + 1
    comma = width - n - 2  # v_params fill the row up to ',', b and '\n'
    fits = {KIND_LOCAL_CLIFFORD: comma == n, KIND_GLOBAL_CL2: comma == 1,
            KIND_GLOBAL_SU2: comma == 33, KIND_DISCRETE_SUBSAMPLE: comma >= 35}
    if not fits[kind]:
        raise ValueError(f"{kind} record rows must be v_params,b with b {n} binary "
                         f"digits and v_params {_ROW_LAYOUTS[kind]}")
    rows = raw.size // width
    table = raw[:rows * width].reshape(rows, width)
    if rows * width != raw.size or (table[:, -1] != _NEWLINE).any():
        lengths = np.diff(np.flatnonzero(raw == _NEWLINE), prepend=-1)
        row = int(np.flatnonzero(lengths != width)[0]) + 1
        raise ValueError(f"record rows must all be as wide as the first "
                         f"({width - 1} characters); row {row} is not")
    if str(rows) != shots:
        raise ValueError(f"record CSV holds {rows} rows, its header says "
                         f"shots={shots}")
    if (table[:, comma] != _COMMA).any():
        raise ValueError(f"each record row must end in ',' and the {n} digits of b")
    bits = table[:, comma + 1:-1]
    if not ((bits == _ZERO) | (bits == _ONE)).all():
        raise ValueError(f"b must be {n} binary digits")
    b = (bits == _ONE) @ (1 << np.arange(n - 1, -1, -1))
    params = table[:, :comma]

    if kind == KIND_LOCAL_CLIFFORD:
        bases = _BASIS_OF_CODE[params]
        if (bases < 0).any():
            raise ValueError("per-site words use letters outside X, Y, Z")
        return Records(kind, n, campaign_id, b, bases=bases), metadata
    if kind == KIND_GLOBAL_CL2:
        member_idx = _BASIS_OF_CODE[params[:, 0]]
        if (member_idx < 0).any():
            raise ValueError("Cl(2) bases must be X, Y or Z")
        return Records(kind, n, campaign_id, b,
                       member_idx=member_idx.astype(np.int64)), metadata

    # [index;]theta;psi: the angles fill the last 33 characters
    semis = [comma - 17] + ([comma - 34] if kind == KIND_DISCRETE_SUBSAMPLE else [])
    if (params[:, semis] != _SEMICOLON).any():
        raise ValueError(f"{kind} v_params must be {_ROW_LAYOUTS[kind]}")
    thetas, psis = (_hex_floats(params[:, at:at + 16], kind)
                    for at in (comma - 33, comma - 16))
    member_idx = None
    if kind == KIND_DISCRETE_SUBSAMPLE:
        member_idx = _member_indices(params[:, :comma - 34])
    return Records(kind, n, campaign_id, b, member_idx=member_idx, thetas=thetas,
                   psis=psis), metadata
