"""Topological-phase classification from restricted randomized measurements.

Pipeline: prepare trivial / toric-code ground states on the edges of an L x L
torus, scramble each with a low-depth random Clifford circuit, estimate every
3-qubit patch density matrix from random-Pauli (per-site) classical shadows,
estimate the 38 visible-space expectation values of each patch with global
SU(2) measurements, compare states through an exponentiated inner-product
kernel averaged over patches, and project onto the top principal axis of the
centered kernel. The 1-D coordinate separates the phases even though no
linear function of the visible data can.

Each state's patches go through the SU(2) stage together: one stacked PSD
projection, then one pass (estimator.su2_shots) that draws every patch's
campaign from its own chunk generators, spawned patch after patch, and sums
each patch's outcome rows as it goes. A classical-shadow estimate is the
inverse channel of the mean snapshot, so one msu2_amplitudes call per state
turns the mean rows into features. For every n_su2 they equal, bit for bit,
those of one run_campaign per patch whose outcome rows are summed in order.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import artifacts, channels, ensembles, estimator, gates, qcore, visible
from .errors import ConfigError, NumericalDegeneracyError


# ---------------------------------------------------------------------------
# Torus edge lattice and stabilizer states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeLattice:
    """Qubits on the 2 L^2 edges of an L x L torus.

    Edge ids: horizontal edge (row i, column j) -> 2 i L + j, vertical edge
    (i, j) -> (2 i + 1) L + j. Patch alpha holds qubits alpha, alpha + L,
    alpha + 2L (alpha indexes the topmost qubit of a 3-in-a-column window).
    """

    L: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("torus needs L >= 2")

    @property
    def n_qubits(self) -> int:
        return 2 * self.L * self.L

    @property
    def n_patches(self) -> int:
        return 2 * self.L * self.L - 2 * self.L

    def h_edge(self, i: int, j: int) -> int:
        return 2 * (i % self.L) * self.L + (j % self.L)

    def v_edge(self, i: int, j: int) -> int:
        return (2 * (i % self.L) + 1) * self.L + (j % self.L)

    def patch(self, alpha: int) -> tuple:
        if not 0 <= alpha < self.n_patches:
            raise ValueError(f"patch index {alpha} out of range")
        return (alpha, alpha + self.L, alpha + 2 * self.L)

    def patches(self) -> list:
        return [self.patch(a) for a in range(self.n_patches)]

    def star_sites(self, i: int, j: int) -> tuple:
        return (self.h_edge(i, j), self.h_edge(i, j - 1), self.v_edge(i, j),
                self.v_edge(i - 1, j))

    def plaquette_sites(self, i: int, j: int) -> tuple:
        return (self.h_edge(i, j), self.h_edge(i + 1, j), self.v_edge(i, j),
                self.v_edge(i, j + 1))

    def matching(self, layer: int) -> list:
        """Disjoint nearest-neighbour pairs; alternating tilings by parity."""
        pairs = []
        for i in range(self.L):
            for j in range(self.L):
                if layer % 2 == 0:
                    pairs.append((self.h_edge(i, j), self.v_edge(i, j)))
                else:
                    pairs.append((self.v_edge(i, j), self.h_edge(i + 1, j)))
        return pairs


def _pauli_on_sites(n: int, sites, letter: str) -> np.ndarray:
    x = z = 0
    for site in sites:
        bit = 1 << (n - 1 - site)
        if letter in ("X", "Y"):
            x |= bit
        if letter in ("Z", "Y"):
            z |= bit
    return qcore.pauli_dense(n, x, z)


def star_operator(lat: EdgeLattice, i: int, j: int) -> np.ndarray:
    return _pauli_on_sites(lat.n_qubits, lat.star_sites(i, j), "X")


def plaquette_operator(lat: EdgeLattice, i: int, j: int) -> np.ndarray:
    return _pauli_on_sites(lat.n_qubits, lat.plaquette_sites(i, j), "Z")


def product_state(L: int) -> np.ndarray:
    lat = EdgeLattice(L)
    return qcore.basis_state(lat.n_qubits, 0)


def toric_ground(L: int) -> np.ndarray:
    """Project |0...0> onto the +1 space of every star: Prod_v (1 + A_v)/2."""
    lat = EdgeLattice(L)
    qcore.check_qubit_count(lat.n_qubits)
    psi = product_state(L)
    for i in range(L):
        for j in range(L):
            psi = 0.5 * (psi + star_operator(lat, i, j) @ psi)
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise NumericalDegeneracyError("stabilizer projection annihilated the seed state")
    return psi / norm


# ---------------------------------------------------------------------------
# Random low-depth Clifford circuits
# ---------------------------------------------------------------------------


def _clifford_keys(u: np.ndarray) -> np.ndarray:
    """One complex key per phase-fixed Clifford of the stack u (16 entries
    each): every real and imaginary part must round (9 decimals) to 0, ±1/2,
    ±1/√2 or ±1, its digit is 4x + 4, and 16 base-9 digits make one float64
    exactly (9^16 < 2^53). Keys are equal exactly when rounded matrices are."""
    x = u.view(float).reshape(len(u), 32)
    d = (4 * x + 4.5).astype(np.uint8)
    grid = np.round([-1, -0.5 ** 0.5, -0.5, np.nan, 0, np.nan, 0.5, 0.5 ** 0.5, 1], 9)
    if not np.array_equal(np.round(x, 9), np.take(grid, d, mode="clip")):
        raise ValueError("a generator is not a Clifford: an entry is off the Clifford grid")
    return (d.reshape(-1, 2, 16) @ 9.0 ** np.arange(16)).view(complex).ravel()


@lru_cache(maxsize=1)
def two_qubit_cliffords() -> np.ndarray:
    """All 11520 two-qubit Cliffords (mod phase) by closure over generators.

    Breadth first from the identity: each level is every generator times
    every new element of the level before, phase-fixed (first entry of
    modulus > 1e-8 made real positive) and kept on first occurrence in
    (element, generator) order, 256 elements at a time against the sorted
    keys of all so far. Returns a read-only (11520, 4, 4) array.
    """
    h, s, eye2 = qcore.HADAMARD, qcore.S_GATE, np.eye(2)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    gens = np.stack([np.kron(h, eye2), np.kron(eye2, h), np.kron(s, eye2),
                     np.kron(eye2, s), cz])
    members = np.empty((11520, 4, 4), dtype=complex)
    members[0] = np.eye(4)
    seen = _clifford_keys(members[:1])  # the sorted keys of members[:stop]
    start, stop = 0, 1
    while start < stop:
        level, start = members[start:stop], stop
        for lo in range(0, len(level), 256):
            flat = np.matmul(gens[None], level[lo:lo + 256, None]).reshape(-1, 16)
            lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-8, axis=1)]
            # hypot, not np.abs: it rounds as the scalar abs(x) of a complex x
            flat *= (np.conj(lead) / np.hypot(lead.real, lead.imag))[:, None]
            keys, first = np.unique(_clifford_keys(flat), return_index=True)
            pos = np.searchsorted(seen, keys)
            new = np.take(seen, pos, mode="clip") != keys
            seen = np.insert(seen, pos[new], keys[new])
            fresh = flat[np.sort(first[new])].reshape(-1, 4, 4)
            members[stop:stop + len(fresh)] = fresh
            stop += len(fresh)
    if stop != len(members):
        raise ValueError(f"the generators give {stop} Cliffords, not {len(members)}")
    members.flags.writeable = False
    return members


def random_lowdepth_circuit(lat: EdgeLattice, depth: int,
                            rng: np.random.Generator,
                            state: np.ndarray) -> np.ndarray:
    """`state` after `depth` layers of random 2-qubit Cliffords on
    alternating matchings (gates act on the state; no circuit matrix)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    qcore.check_qubit_count(lat.n_qubits)
    t = np.array(state, dtype=complex).reshape(1, -1)
    cliffords = two_qubit_cliffords()
    for layer in range(depth):
        for a, b in lat.matching(layer):
            gate = cliffords[int(rng.integers(len(cliffords)))]
            gates.rotate_pair(t, a, b, gate)
    return t[0]


# ---------------------------------------------------------------------------
# Patch density matrices from random-Pauli shadows
# ---------------------------------------------------------------------------


def _snapshot_factors() -> np.ndarray:
    """snap[basis, bit] = 3 u†|bit><bit|u - identity (single-site inverse)."""
    snap = np.empty((3, 2, 2, 2), dtype=complex)
    for w, letter in enumerate(ensembles.CL2_BASES):
        u = ensembles.basis_rotation(letter)
        for bit in (0, 1):
            proj = np.outer(u.conj().T[:, bit], u[bit, :])
            snap[w, bit] = 3.0 * proj - np.eye(2)
    return snap


@lru_cache(maxsize=1)
def _patch_snapshots() -> np.ndarray:
    """(216, 64) read-only table: row 36 c_a + 6 c_b + c_c is the flattened
    snap_a ⊗ snap_b ⊗ snap_c of one shot, where c = 2 basis + bit per site."""
    snap = _snapshot_factors().reshape(6, 2, 2)
    table = np.einsum("iab,jcd,kef->ijkacebdf", snap, snap, snap).reshape(216, 64)
    table.flags.writeable = False
    return table


def patch_rdms(lat: EdgeLattice, state: np.ndarray, n_rp: int,
               rng, threads: int = 1) -> np.ndarray:
    """(patches, 8, 8) 3-qubit RDM estimates from one random-Pauli campaign.

    Each shot's snapshot of a patch takes one of 6^3 values, so a patch's
    estimate is its histogram of those values times their table.
    Returned matrices are Hermitized and trace-normalized but NOT projected
    to the PSD cone — project before using them as sampling states.
    """
    n = lat.n_qubits
    ens = ensembles.local_clifford(n)
    records = estimator.run_campaign(state, ens, n_rp, rng, threads=threads)
    code = 2 * records.bases + estimator._site_bits(records.b, n)
    patches = np.array(lat.patches())
    combo = code[:, patches] @ np.array([36, 6, 1]) + 216 * np.arange(len(patches))
    counts = np.bincount(combo.ravel(), minlength=216 * len(patches))
    rhos = (counts.reshape(-1, 216) @ _patch_snapshots()).reshape(-1, 8, 8)
    rhos /= len(records)
    rhos = 0.5 * (rhos + rhos.conj().mT)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return rhos


def psd_project(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace to 1, of one
    matrix or of every matrix of a (..., d, d) stack (one eigh call)."""
    evals, evecs = np.linalg.eigh(0.5 * (rho + rho.conj().mT))
    evals = np.clip(evals, 0.0, None)
    total = evals.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise NumericalDegeneracyError("density estimate has no positive weight")
    return (evecs * (evals / total)[..., None, :]) @ evecs.conj().mT


# ---------------------------------------------------------------------------
# Visible-space patch features under global SU(2)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _patch_inverse_ops(n: int = 3) -> np.ndarray:
    """M^{-1}(B_S) stacked (read-only) in the fixed visible-basis order."""
    ops = np.stack([channels.inverse_msu2(visible.build_B(s))
                    for s in visible.enumerate_sets(n)])
    ops.flags.writeable = False
    return ops


def patch_features(rdms: np.ndarray, n_su2: int, rng) -> np.ndarray:
    """Estimates of tr(rho B_S) for all visible basis elements of each patch.

    ``rdms`` is a (patches, d, d) stack of raw patch RDMs. Each is
    PSD-projected and measured by its own global-SU(2) campaign of n_su2
    shots, whose chunk generators are spawned from ``rng`` patch after patch
    as run_campaign spawns them. The campaigns run as one pass
    (estimator.su2_shots) that sums each patch's outcome rows
    <b|V B_S V†|b> as they come; the inverse channel, which is linear, then
    maps each patch's mean row to its shadow estimate. Returns the
    (patches, families) estimates.
    """
    rhos = psd_project(rdms)
    n = qcore.num_qubits(rhos[0])
    rng = np.random.default_rng(rng)
    sizes = estimator.chunk_sizes(n_su2)
    children = [child for _ in rhos for child in rng.spawn(len(sizes))]
    amps = np.stack([visible.family_coefficients(rho).real for rho in rhos])
    sums = estimator.su2_shots(amps, n, sizes, children, moments=True)[3]
    return channels.msu2_amplitudes(n, sums.T / n_su2, True).T


# ---------------------------------------------------------------------------
# Exponentiated kernel and 1-D kernel PCA
# ---------------------------------------------------------------------------


@dataclass
class PhaseKernel:
    matrix: np.ndarray
    lam: float


def default_lambda(features: np.ndarray) -> float:
    """1/lambda = 3/(#states #patches) * sum of raw feature inner products."""
    n_states, n_patches = features.shape[:2]
    total = float((features**2).sum())
    if total <= 0:
        raise ValueError("features are identically zero")
    return n_states * n_patches / (3.0 * total)


def build_kernel(features, lam: float | None = None) -> PhaseKernel:
    """K[s1,s2] = mean over patches of exp(lambda o_a^(s1) . o_a^(s2))."""
    f = np.asarray(features, dtype=float)
    if f.ndim != 3:
        raise ValueError("expected features shaped (states, patches, dims)")
    if lam is None:
        lam = default_lambda(f)
    inner = np.einsum("spf,tpf->stp", f, f)
    # exp(lam o.o') and its sum over patches stay below float max / 2, so
    # the symmetrization below is finite too; o.o' is at most the largest |o|^2
    top = float(inner.max())
    limit = math.log(sys.float_info.max / (2 * f.shape[1]))
    if top > 0 and lam > limit / top:
        raise ConfigError(f"lam = {float(lam)!r} overflows exp(lam o.o'): the largest "
                          f"usable value for these features is {limit / top!r}")
    k = np.exp(lam * inner).mean(axis=2)
    k = 0.5 * (k + k.T)
    d = np.sqrt(np.diag(k))
    k = k / np.outer(d, d)
    np.fill_diagonal(k, 1.0)
    return PhaseKernel(matrix=k, lam=float(lam))


def kernel_pca_1d(k: PhaseKernel) -> np.ndarray:
    """Coordinates along the top principal axis of the centered kernel.

    Rows of the renormalized kernel are treated as per-state data vectors
    and mean-centered across states before extracting the leading axis
    (plain PCA on the similarity profiles). Double-centering the kernel
    instead lets intra-class scatter dominate the top axis at this few-patch
    scale and loses the phase split for any depth > 0.
    """
    m = k.matrix
    s = m.shape[0]
    centered = m - m.mean(axis=0, keepdims=True)
    u, sv, _ = np.linalg.svd(centered, full_matrices=False)
    coords = u[:, 0] * sv[0]
    nz = np.nonzero(np.abs(coords) > 1e-12)[0]
    if nz.size and coords[nz[0]] < 0:
        coords = -coords
    return coords


def separation_margin(coords: np.ndarray, labels) -> float:
    """Smallest signed gap between the two label classes (>0 iff separable)."""
    labels = np.asarray(labels)
    names = sorted(set(labels.tolist()))
    if len(names) != 2:
        raise ValueError("need exactly two classes")
    a = coords[labels == names[0]]
    b = coords[labels == names[1]]
    return float(max(a.min() - b.max(), b.min() - a.max()))


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


TRIVIAL, TORIC = "trivial", "toric"


@dataclass
class PhaseRunResult:
    labels: list
    depth: int
    coords: np.ndarray
    kernel: PhaseKernel
    features: np.ndarray  # (states, patches, dims)


def run_phase_classification(L: int = 2, depth: int = 0,
                             states_per_phase: int = 10, n_rp: int = 10_000,
                             n_su2: int = 1_000, rng=None, threads: int = 1,
                             lam: float | None = None) -> PhaseRunResult:
    """Generate both phases, extract features, and project to 1-D."""
    rng = np.random.default_rng(rng)
    lat = EdgeLattice(L)
    bases = {TRIVIAL: product_state(L), TORIC: toric_ground(L)}
    labels = [TRIVIAL] * states_per_phase + [TORIC] * states_per_phase
    all_feats = []
    for label in labels:
        state_rng = rng.spawn(1)[0]
        psi = bases[label]
        if depth > 0:
            psi = random_lowdepth_circuit(lat, depth, state_rng, psi)
        rdms = patch_rdms(lat, psi, n_rp, state_rng, threads=threads)
        all_feats.append(patch_features(rdms, n_su2, state_rng))
    features = np.stack(all_feats)
    kernel = build_kernel(features, lam=lam)
    coords = kernel_pca_1d(kernel)
    return PhaseRunResult(labels=labels, depth=depth, coords=coords,
                          kernel=kernel, features=features)


def result_to_json(result: PhaseRunResult, metadata: dict | None = None) -> str:
    doc = dict(metadata or {})
    doc["states"] = [
        {"phase_label": label, "depth": result.depth,
         "coordinate": float(coord)}
        for label, coord in zip(result.labels, result.coords)
    ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def kernel_to_csv(k: PhaseKernel, metadata: dict | None = None) -> str:
    metadata = {**(metadata or {}), "lambda": k.lam}
    columns = [f"s{j}" for j in range(len(k.matrix))]
    return artifacts.csv_text(metadata, columns, k.matrix)
