"""Adaptive sampling densities for discrete kernel estimators.

Replacing the sampling density p(V) by q(V) while rescaling the kernel to
K_q = K p/q keeps every estimate unbiased (the reconstruction sum telescopes)
but changes its variance. Three closed-form choices are provided: the density
minimizing the worst-case (state-independent) variance bound, its multi-
observable generalization, and the variance minimizer for the maximally mixed
state.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .estimator import KernelTable


def _require_table(k: KernelTable) -> np.ndarray:
    if k.values is None:
        raise ValueError("adaptive densities need a discrete kernel table")
    return k.values


def reweight(k: KernelTable, q: np.ndarray) -> KernelTable:
    """Kernel over the new density q with values K p/q (0/0 -> 0)."""
    values = _require_table(k)
    q = np.asarray(q, dtype=float)
    p = k.density
    if q.shape != p.shape:
        raise ValueError("density has the wrong number of members")
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("q is not a probability density")
    dead = q <= 0
    if np.any(dead & np.any(values != 0.0, axis=1)):
        raise ValueError("q vanishes on a member the kernel still uses")
    ratio = np.zeros_like(p)
    np.divide(p, q, out=ratio, where=~dead)
    ens_q = replace(k.ens, weights=q)
    return KernelTable(ens_q, values=values * ratio[:, None])


def _normalized(w: np.ndarray) -> np.ndarray:
    """The density w / sum(w) of non-negative member weights w."""
    total = w.sum()
    if total <= 0:
        raise ValueError("kernel is identically zero")
    return w / total


def q_optimal(k: KernelTable) -> np.ndarray:
    """Density minimizing the worst-case variance bound: q ∝ p max_b |K|."""
    values = _require_table(k)
    return _normalized(k.density * np.abs(values).max(axis=1))


def _members(k: KernelTable) -> list:
    return [(m.theta, m.phi, m.psi, m.basis) for m in k.ens.members]


def q_multi(ks: list) -> np.ndarray:
    """Shared density for several observables: q ∝ p max over kernels and b.

    The kernels may live on different supports (register sizes) as long as
    they share the ensemble's members and weights.
    """
    if not ks:
        raise ValueError("need at least one kernel")
    first = ks[0]
    values = [_require_table(k) for k in ks]
    for k in ks[1:]:
        if (k.ens.kind != first.ens.kind or _members(k) != _members(first)
                or not np.allclose(k.density, first.density)):
            raise ValueError("kernels do not share an ensemble")
    peak = np.max([np.abs(v).max(axis=1) for v in values], axis=0)
    return _normalized(first.density * peak)


def q_maxmixed(k: KernelTable) -> np.ndarray:
    """Variance minimizer for the maximally mixed state: q ∝ p (sum_b K^2)^{1/2}."""
    values = _require_table(k)
    return _normalized(k.density * np.sqrt((values**2).sum(axis=1)))
