"""Sets of implementable unitaries and their sampling densities.

Four kinds are supported:

* ``GlobalSU2`` — every qubit undergoes the same Haar-random Bloch rotation,
  Euler-parameterized V(theta, phi, psi) = e^{i sigma_z phi/2} e^{i sigma_y theta/2}
  e^{i sigma_z psi/2};
* ``GlobalCl2`` — the same on all qubits, restricted to the 3 effective
  measurement bases (X, Y, Z with probability 1/3 each);
* ``LocalClifford`` — an independent random basis per site (random-Pauli
  measurements);
* ``DiscreteSubsample`` — a finite list of Euler triples, uniformly weighted.

The conjugated projector V†|b><b|V never depends on phi: the leading
e^{i Z phi/2} factor sits directly against the diagonal projector and cancels,
so (theta, psi) fix the measurement axis. phi is still drawn, so every Haar
draw is a full Euler rotation and the random streams do not depend on it,
and subsample members keep it; measurement records do not store it, and a
unitary realized for measurement has phi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import qcore, visible
from .errors import RepresentabilityError

KIND_GLOBAL_SU2 = "GlobalSU2"
KIND_GLOBAL_CL2 = "GlobalCl2"
KIND_LOCAL_CLIFFORD = "LocalClifford"
KIND_DISCRETE_SUBSAMPLE = "DiscreteSubsample"

CL2_BASES = ("X", "Y", "Z")

SUBSAMPLE_RETRY_CAP = 100


def su2_matrix(theta, phi, psi=0.0) -> np.ndarray:
    """2x2 Euler rotation e^{i Z phi/2} e^{i Y theta/2} e^{i Z psi/2}, or a
    (..., 2, 2) stack of them for arrays of angles."""
    theta = np.asarray(theta)
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    left = np.exp(1j * np.asarray(phi) / 2.0)
    right = np.exp(1j * np.asarray(psi) / 2.0)
    u = np.empty(np.broadcast(ct, left, right).shape + (2, 2), dtype=complex)
    u[..., 0, 0] = left * ct * right
    u[..., 0, 1] = left * st * np.conj(right)
    u[..., 1, 0] = -np.conj(left) * st * right
    u[..., 1, 1] = np.conj(left) * ct * np.conj(right)
    return u


def su2_axis(theta, psi) -> np.ndarray:
    """Bloch axis (sin θ cos ψ, sin θ sin ψ, cos θ) of su2_matrix(θ, 0, ψ), the
    visible.bloch_axes of that rotation, as a (3, ...) array."""
    theta, psi = np.asarray(theta), np.asarray(psi)
    sin = np.sin(theta)
    return np.stack([sin * np.cos(psi), sin * np.sin(psi), np.cos(theta)])


def basis_rotation(basis: str) -> np.ndarray:
    """Single-qubit V with V†|b><b|V the eigenprojectors of the named Pauli."""
    if basis == "Z":
        return qcore.I2.copy()
    if basis == "X":
        return qcore.HADAMARD.copy()
    if basis == "Y":
        return qcore.HADAMARD @ qcore.S_GATE.conj().T
    raise ValueError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class SampledUnitary:
    """One member of an ensemble, by kind-specific parameters."""

    kind: str
    n: int
    theta: float = 0.0
    phi: float = 0.0
    psi: float = 0.0
    basis: str = "Z"
    word: str = ""  # per-site basis letters for LocalClifford

    def single_qubit(self) -> np.ndarray:
        """The 2x2 rotation on every site, phi canonicalized to 0."""
        if self.kind in (KIND_GLOBAL_SU2, KIND_DISCRETE_SUBSAMPLE):
            return su2_matrix(self.theta, 0.0, self.psi)
        if self.kind == KIND_GLOBAL_CL2:
            return basis_rotation(self.basis)
        raise ValueError(f"{self.kind} has no single global rotation")


def realize(v: SampledUnitary) -> np.ndarray:
    """Dense 2^n x 2^n unitary for a sampled member.

    The package applies product rotations with `gates`; this is the dense
    reference its tests compare against.
    """
    qcore.check_qubit_count(v.n)
    if v.kind == KIND_LOCAL_CLIFFORD:
        if len(v.word) != v.n:
            raise ValueError("per-site word length != n")
        return qcore.kron_all(basis_rotation(ch) for ch in v.word)
    return qcore.kron_all([v.single_qubit()] * v.n)


@dataclass
class Ensemble:
    """A set of implementable unitaries with a sampling density p(V).

    Discrete kinds carry explicit members and weights; GlobalSU2 is continuous
    (members is empty) and LocalClifford is discrete but factorized per site,
    so it is sampled on the fly rather than enumerated.
    """

    kind: str
    n: int
    members: list[SampledUnitary] = field(default_factory=list)
    weights: np.ndarray | None = None

    def __post_init__(self):
        qcore.check_qubit_count(self.n)
        if self.kind == KIND_GLOBAL_CL2 and not self.members:
            self.members = [SampledUnitary(self.kind, self.n, basis=b)
                            for b in CL2_BASES]
            self.weights = np.full(3, 1.0 / 3.0)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.size != len(self.members):
                raise ValueError("weights/members length mismatch")
            if abs(self.weights.sum() - 1.0) > 1e-12:
                raise ValueError("discrete weights must sum to 1")
            if (self.weights < 0).any():
                raise ValueError("weights must be non-negative")

    @property
    def is_discrete(self) -> bool:
        return self.kind in (KIND_GLOBAL_CL2, KIND_DISCRETE_SUBSAMPLE)

    def with_n(self, n: int) -> "Ensemble":
        """Same control set realized on a different register size.

        Global kinds are size-agnostic (the same single-qubit rotation is
        broadcast), so only the bookkeeping n changes.
        """
        if self.kind == KIND_LOCAL_CLIFFORD:
            raise ValueError("per-site ensembles are tied to their register")
        members = [replace(m, n=n) for m in self.members]
        return Ensemble(self.kind, n, members, None if self.weights is None else self.weights.copy())


def haar_su2_angles(count: int, rng: np.random.Generator):
    """Haar-correct Euler angles: cos(theta) uniform, phi and psi uniform."""
    thetas = np.arccos(rng.uniform(-1.0, 1.0, size=count))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=count)
    psis = rng.uniform(0.0, 4.0 * np.pi, size=count)
    return thetas, phis, psis


def global_su2(n: int) -> Ensemble:
    return Ensemble(KIND_GLOBAL_SU2, n)


def global_cl2(n: int) -> Ensemble:
    return Ensemble(KIND_GLOBAL_CL2, n)


def local_clifford(n: int) -> Ensemble:
    return Ensemble(KIND_LOCAL_CLIFFORD, n)


def discrete_subsample(n: int, triples) -> Ensemble:
    """Uniformly weighted members with the given Euler triples."""
    members = [
        SampledUnitary(KIND_DISCRETE_SUBSAMPLE, n, theta=float(t), phi=float(f),
                       psi=float(p))
        for t, f, p in triples
    ]
    return Ensemble(KIND_DISCRETE_SUBSAMPLE, n, members,
                    np.full(len(members), 1.0 / len(members)))


def subsample_su2(n_unitaries: int, rng: np.random.Generator, targets=(),
                  n: int | None = None) -> Ensemble:
    """Uniform Haar subsample, retried until it can represent the targets.

    ``targets`` is a sequence of dense Hermitian operators that the
    least-squares kernel must reproduce: each target's residual ||O - O~||_F
    must stay within ``visible.residual_limit`` (REPRESENTABILITY_TOL times
    max(1, ||O||_F)), the gate kernel_least_squares applies. Plain draws are
    almost surely fine; the retry cap guards degenerate seeds.
    """
    if n_unitaries < 1:
        raise ValueError("need at least one unitary")
    targets = list(targets)
    if n is None:
        n = qcore.num_qubits(targets[0]) if targets else 1
    from . import estimator  # local import; estimator imports this module

    worst = np.inf
    for _ in range(SUBSAMPLE_RETRY_CAP):
        thetas, phis, psis = haar_su2_angles(n_unitaries, rng)
        ens = discrete_subsample(n, zip(thetas, phis, psis))
        if not targets:
            return ens
        residuals = [
            estimator.representability_residual(t, ens.with_n(qcore.num_qubits(t)))
            for t in targets
        ]
        worst = max(residuals)
        if all(r <= visible.residual_limit(t) for r, t in zip(residuals, targets)):
            return ens
    raise RepresentabilityError(
        f"no representable subsample of size {n_unitaries} after "
        f"{SUBSAMPLE_RETRY_CAP} attempts", residual=float(worst))
