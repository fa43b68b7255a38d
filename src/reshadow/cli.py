"""Config-driven experiment runner.

Subcommands reproduce the desk-scale experiments end to end: channel checks
against Monte-Carlo oracles, visible-space audits, measurement campaigns,
bias-variance scans, lattice-gauge shot budgets, and phase classification.
Configs are flat ``key = value`` text; every artifact carries a metadata
header (seed, config hash, versions) and is byte-reproducible for a fixed
seed and config, independent of the thread count.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import re
import sys

import numpy as np

from . import __version__, artifacts, biasvar, channels, ensembles, estimator, gates
from . import lgt, phases, qcore, visible
from .errors import ConfigError, DimensionCapError, NotVisibleError, ReshadowError

CHANNEL_CHUNK = 20_000
# largest ||O||_F of an observable. The variance bounds and shot counts square
# kernel entries, which are ||O||_F times an inverse-channel gain; the cap
# splits the float range evenly between the two (1.16e77 each).
OBSERVABLE_NORM_CAP = sys.float_info.max ** 0.25
# longest observable word. Its dense operator takes 16 * 4^letters bytes
# (256 MiB at 12 letters) and the Pauli decomposition behind the kernels
# about 3.7 times that; a longer word is rejected before either is built.
OBSERVABLE_MAX_LETTERS = 12


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _grid(text: str) -> tuple:
    """Config caster for a comma-separated scan grid of finite values >= 0."""
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ValueError("grid values must be finite and at least 0")
    return values


def _at_least(low: int, high: int | None = None):
    """Config caster for an integer of at least `low` (and at most `high`)."""

    def cast(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        if high is not None and value > high:
            raise ValueError(f"must be at most {high}")
        return value

    return cast


def _triangle_counts(text: str) -> tuple:
    counts = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not counts or any(t < 2 or t % 2 for t in counts):
        raise ValueError("needs one or more even triangle counts, each >= 2")
    return counts


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _coupling(text: str) -> float:
    """Config caster for the lattice coupling g: the lgt terms divide by g^2."""
    value = _finite(text)
    if value * value == 0.0:
        raise ValueError("g^2 must be nonzero")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise ValueError("must be at least 0")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise ValueError("must lie in (0, 1]")
    return value


def _choice(*names: str, fold_case: bool = False):
    """Config caster accepting only `names`, up to case and blanks if `fold_case`.

    The text is returned as written, so the config hash does not change.
    """

    def cast(text: str) -> str:
        if (text.strip().lower() if fold_case else text) not in names:
            raise ValueError("must be one of " + ", ".join(names))
        return text

    return cast


def coerce_config(raw: dict, schema: dict, subcommand: str) -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: "
                          + ", ".join(unknown))
    cfg = {}
    for key, (caster, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = caster(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw[key]!r} ({exc})")
        else:
            cfg[key] = default
    return cfg


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def metadata_for(seed: int, cfg: dict) -> dict:
    return {
        "seed": seed,
        "config_hash": config_hash(cfg),
        "versions": f"reshadow={__version__} numpy={np.__version__}",
    }


def _write(out_dir: pathlib.Path, name: str, content: str) -> None:
    path = out_dir / name
    path.write_text(content)
    print(f"wrote {path}")


REPORT_COLUMNS = ("check", "observed", "reference", "tolerance", "pass")


# ---------------------------------------------------------------------------
# Observable / state builders shared by estimate and bias-scan
# ---------------------------------------------------------------------------


def build_observable(spec: str, g: float, alpha: float) -> np.ndarray:
    """Named preset ('link', 'triangle') or a Pauli-sum like '0.5*XX+1*ZZ'.

    An operator with ||O||_F above OBSERVABLE_NORM_CAP (a huge coefficient,
    or g^2 far from 1) is a config error.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        op = _observable(spec, g, alpha)
        norm = qcore.hs_norm(op)
    if not norm <= OBSERVABLE_NORM_CAP:
        raise ConfigError(f"observable {spec!r} at g = {g!r}, alpha = {alpha!r} "
                          f"has ||O||_F = {norm:.3g}, above the cap "
                          f"{OBSERVABLE_NORM_CAP:.3g} = (float max)^(1/4)")
    return op


# a term starts at its first sign that is not an exponent's: '1e-3*XX+-ZZ'
_TERM_START = re.compile(r"(?<![eE+-])(?=[+-])")


def _observable(spec: str, g: float, alpha: float) -> np.ndarray:
    name = spec.strip().lower()
    if name == "link":
        return lgt.link_local(g, alpha)
    if name == "triangle":
        return lgt.triangle_local(g)
    total = None
    for term in _TERM_START.split(spec):
        term = term.strip()
        if not term:
            continue
        body = term.lstrip("+-")
        coeff_text, star, word = body.rpartition("*")
        word = word.strip().upper()
        if len(word) > OBSERVABLE_MAX_LETTERS:
            raise ConfigError(f"observable word of {len(word)} letters in "
                              f"{spec[:40]!r}: at most {OBSERVABLE_MAX_LETTERS}")
        if not word or (total is not None and 1 << len(word) != len(total)):
            raise ConfigError(f"bad observable term {term!r} in {spec!r}: want "
                              "[coefficient*]word, all words of one length")
        try:
            coeff = float(coeff_text) if star else 1.0
            dense = qcore.PauliString.from_word(word).to_dense()
        except ValueError as exc:
            raise ConfigError(f"bad observable term {term!r}: {exc}") from None
        if term[: len(term) - len(body)].count("-") % 2:
            coeff = -coeff
        total = coeff * dense if total is None else total + coeff * dense
    if total is None:
        raise ConfigError(f"empty observable spec {spec!r}")
    return total


def build_state(kind: str, n: int) -> np.ndarray:
    name = kind.strip().lower()
    if name == "zero":
        return qcore.basis_state(n, 0)
    if name == "mixed":
        return np.eye(1 << n, dtype=complex) / (1 << n)
    if name == "ghz":
        psi = qcore.basis_state(n, 0) + qcore.basis_state(n, (1 << n) - 1)
        return psi / np.sqrt(2.0)
    raise ConfigError(f"unknown state {kind!r} (zero, mixed, ghz)")


def build_ensemble(kind: str, n: int, members: int, ensemble_seed: int,
                   targets=()) -> ensembles.Ensemble:
    name = kind.strip().lower()
    if name == "global_su2":
        return ensembles.global_su2(n)
    if name == "global_cl2":
        return ensembles.global_cl2(n)
    if name == "subsample_su2":
        rng = np.random.default_rng(ensemble_seed)
        return ensembles.subsample_su2(members, rng, targets=targets, n=n)
    raise ConfigError(f"unknown ensemble {kind!r}")


def solve_kernel(obs: np.ndarray, ens: ensembles.Ensemble) -> estimator.KernelTable:
    if ens.kind in (ensembles.KIND_GLOBAL_SU2, ensembles.KIND_GLOBAL_CL2):
        return estimator.kernel_cs(obs, ens)
    return estimator.kernel_least_squares(obs, ens)


# ---------------------------------------------------------------------------
# channel-check
# ---------------------------------------------------------------------------


def _mc_msu2(a: np.ndarray, samples: int, rng) -> tuple:
    """Monte-Carlo average of sum_b <b|VaV'|b> V'|b><b|V over Haar SU(2).

    Each sample lies in the visible span: by the family identity of
    ``reshadow.visible``, with W the sample's visible.axes_table row, its
    coordinate on B_S is
    y_S = 2^n W_S sum_{S' with the free mask of S} W_S' tr(B_S' a),
    so a block of samples costs one family table, one product with the
    same-mask matrix and one Gram product y y^T, which carries the second
    moments of every dense entry. Angles are drawn CHANNEL_CHUNK at a time,
    and the table reads each rotation's Bloch axis straight from its angles.
    """
    n = qcore.num_qubits(a)
    if not qcore.is_hermitian(a, 1e-12 * max(1.0, qcore.hs_norm(a))):
        raise ValueError("the channel Monte Carlo needs a Hermitian operator "
                         "(its family coordinates must be real)")
    dim = 1 << n
    amps = visible.family_coefficients(a).real
    _, _, free, _ = visible._family_layout(n)
    # mix[S, S'] = tr(B_S' a) when S' has the free mask of S, else 0
    mix = (free[:, None] == free) * amps
    s1 = np.zeros(amps.size)
    gram = np.zeros((amps.size, amps.size))
    done = 0
    while done < samples:
        count = min(CHANNEL_CHUNK, samples - done)
        thetas, _, psis = ensembles.haar_su2_angles(count, rng)
        axes = ensembles.su2_axis(thetas, psis)
        for block in gates.blocks(count, amps.size):
            w = visible.axes_table(axes[:, block], n).T  # (families, rows)
            y = mix @ w
            y *= w
            y *= dim
            s1 += y.sum(axis=1)
            gram += y @ y.T
        done += count
    basis = visible.family_basis(n)
    mean = (s1 / samples @ basis).reshape(dim, dim)
    second = sum(((gram @ part) * part).sum(axis=0)
                 for part in (basis.real, basis.imag)).reshape(dim, dim)
    var = second / samples - mean.real**2 - mean.imag**2
    se = np.sqrt(np.clip(var, 0.0, None) / samples)
    return mean, se


def cmd_channel_check(cfg, seed, out_dir, threads) -> int:
    rng = np.random.default_rng(seed)
    rows = []

    z = qcore.PauliString.from_word("Z").to_dense()
    dev = np.abs(channels.apply_msu2(z) - z / 3.0).max()
    rows.append(("msu2_single_qubit_z_eigenvalue", float(dev), 0.0, 1e-12,
                 dev < 1e-12))

    xx = qcore.PauliString.from_word("XX").to_dense()
    dev = np.abs(channels.apply_mcl2(xx) - xx / 3.0).max()
    rows.append(("mcl2_xx_eigenvalue", float(dev), 0.0, 1e-12, dev < 1e-12))

    n = cfg["n"]
    g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    a = 0.5 * (g + g.conj().T)
    mc, se = _mc_msu2(a, cfg["mc_samples"], rng)
    exact = channels.apply_msu2(a)
    ratio = np.abs(exact - mc) / np.maximum(se, 1e-30)
    rows.append((f"msu2_vs_monte_carlo_n{n}_max_sigma", float(ratio.max()),
                 0.0, 5.0, bool(ratio.max() < 5.0)))

    _write(out_dir, "channel_check.csv",
           artifacts.csv_text(metadata_for(seed, cfg), REPORT_COLUMNS, rows))
    return 0 if all(r[4] for r in rows) else 3


# ---------------------------------------------------------------------------
# basis-audit
# ---------------------------------------------------------------------------


def cmd_basis_audit(cfg, seed, out_dir, threads) -> int:
    rng = np.random.default_rng(seed)
    rows = []
    for m in range(1, 5):
        expected = visible.expected_set_count(m)
        got = len(visible.enumerate_sets(m))
        rows.append((f"set_count_n{m}", got, expected, 0, got == expected))

    n = cfg["n"]
    dim = 1 << n
    sets_n = visible.enumerate_sets(n)
    mats = visible.family_basis(n)
    gram = (mats.conj() @ mats.T).real
    dev = np.abs(gram - np.eye(len(mats))).max()
    rows.append((f"orthonormal_n{n}", float(dev), 0.0, 1e-10, dev < 1e-10))

    projectors = []  # V†|b><b|V of every draw, flattened
    for _ in range(cfg["draws"]):
        theta, _, psi = (float(x[0]) for x in ensembles.haar_su2_angles(1, rng))
        u = ensembles.su2_matrix(theta, 0.0, psi)
        col = gates.rows(u.conj().T[None], n,
                         qcore.basis_state(n, int(rng.integers(dim))))[0]  # V†|b>
        projectors.append(np.outer(col, col.conj()).ravel())
    projectors = np.array(projectors).T
    worst = 0.0
    for s in sets_n:  # <b|V Bperp V†|b> of one family's Bperp for every draw
        perps = [visible.build_Bperp(s, k).ravel() for k in range(1, s.size)]
        if perps:
            worst = max(worst, float(np.abs(np.array(perps) @ projectors).max()))
    rows.append((f"invisibility_n{n}_{cfg['draws']}draws", float(worst), 0.0,
                 1e-10, worst < 1e-10))

    _write(out_dir, "basis_audit.csv",
           artifacts.csv_text(metadata_for(seed, cfg), REPORT_COLUMNS, rows))
    return 0 if all(r[4] for r in rows) else 3


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _check_confidence(m_observables: int, delta: float) -> None:
    """estimator.check_confidence as a config error."""
    try:
        estimator.check_confidence(m_observables, delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_estimate(cfg, seed, out_dir, threads) -> int:
    _check_confidence(cfg["m_observables"], cfg["delta"])
    rng = np.random.default_rng(seed)
    obs = build_observable(cfg["observable"], cfg["g"], cfg["alpha"])
    n = qcore.num_qubits(obs)
    ens = build_ensemble(cfg["ensemble"], n, cfg["members"],
                         cfg["ensemble_seed"], targets=(obs,))
    kernel = solve_kernel(obs, ens)
    state = build_state(cfg["state"], n)
    records = estimator.run_campaign(state, ens, cfg["shots"], rng,
                                     threads=threads)
    value = estimator.estimate(records, kernel, method=cfg["method"],
                               m_observables=cfg["m_observables"],
                               delta=cfg["delta"])
    if state.ndim == 2:  # tr(rho O) = tr(rho† O) for a density matrix
        exact = qcore.hs_inner(state, obs).real
    else:
        exact = float(np.vdot(state, obs @ state).real)
    meta = metadata_for(seed, cfg)
    summary = dict(meta)
    summary.update({
        "estimate": value,
        "exact": exact,
        "var_max_bound": estimator.var_max_bound(kernel),
        "shots": cfg["shots"],
        "method": cfg["method"],
        "batches": estimator.default_batches(cfg["m_observables"], cfg["delta"]),
        "ensemble": ens.kind,
    })
    _write(out_dir, "records.csv", estimator.records_to_csv(records, meta))
    _write(out_dir, "estimate.json",
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"estimate {value:+.6f} (exact {summary['exact']:+.6f})")
    return 0


# ---------------------------------------------------------------------------
# bias-scan
# ---------------------------------------------------------------------------


def cmd_bias_scan(cfg, seed, out_dir, threads) -> int:
    try:  # the shot-count formula's own range checks on epsilon, delta, M
        estimator.Budget(cfg["m_observables"], cfg["epsilon"], cfg["delta"], (), ())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    obs = build_observable(cfg["observable"], cfg["g"], cfg["alpha"])
    n = qcore.num_qubits(obs)
    ens = build_ensemble(cfg["ensemble"], n, cfg["members"],
                         cfg["ensemble_seed"], targets=(obs,))
    if cfg["mode"] == "lambda":
        grid = cfg["lambda_grid"] or tuple(biasvar.default_lambda_grid())
        rows = biasvar.ridge_scan(obs, ens, grid, cfg["shots"],
                                  cfg["m_observables"], cfg["delta"])
    else:
        grid = cfg["alpha_grid"] or tuple(np.logspace(-2, 2, 9))
        rows = biasvar.alpha_scan(obs, ens, cfg["shots"], cfg["m_observables"],
                                  cfg["delta"], grid)
    csv = biasvar.scan_to_csv(rows, cfg["epsilon"], cfg["delta"],
                              cfg["m_observables"], metadata_for(seed, cfg))
    _write(out_dir, "bias_scan.csv", csv)
    best = min(rows, key=lambda r: r.error_bound)
    print(f"best {cfg['mode']}={best.lambda_or_alpha:g} "
          f"error_bound={best.error_bound:.6f} bias={best.bias:.6f}")
    return 0


# ---------------------------------------------------------------------------
# lgt-energy
# ---------------------------------------------------------------------------


def cmd_lgt_energy(cfg, seed, out_dir, threads) -> int:
    lats = [lgt.TriLattice(t, cfg["s_max"]) for t in cfg["triangles"]]
    for lat in lats:
        _check_confidence(lat.n_terms, cfg["delta"])
    link = build_observable("link", cfg["g"], cfg["alpha"])
    tri = build_observable("triangle", cfg["g"], cfg["alpha"])
    ens = build_ensemble(cfg["ensemble"], 3, cfg["members"],
                         cfg["ensemble_seed"], targets=(link, tri))
    if ens.kind == ensembles.KIND_GLOBAL_CL2:
        for name, op in (("link", link), ("triangle", tri)):
            try:
                channels.inverse_mcl2(op)
            except NotVisibleError as exc:
                raise ConfigError(f"global_cl2 cannot estimate the {name} term "
                                  f"({exc}); use subsample_su2") from exc
    rows = lgt.energy_budget_comparison(
        lats, ens, epsilon=cfg["epsilon"], delta=cfg["delta"], g=cfg["g"],
        alpha=cfg["alpha"])
    _write(out_dir, "lgt_budget.csv",
           lgt.budget_to_csv(rows, metadata_for(seed, cfg)))
    for r in rows:
        print(f"{r.strategy:10s} n={r.n_qubits:3d} M={r.m_terms:3d} "
              f"N_shots={r.n_shots}")
    return 0


# ---------------------------------------------------------------------------
# phase-classify
# ---------------------------------------------------------------------------


def cmd_phase_classify(cfg, seed, out_dir, threads) -> int:
    rng = np.random.default_rng(seed)
    res = phases.run_phase_classification(
        L=cfg["L"], depth=cfg["depth"], states_per_phase=cfg["states_per_phase"],
        n_rp=cfg["n_rp"], n_su2=cfg["n_su2"], rng=rng, threads=threads,
        lam=cfg["lam"] if cfg["lam"] > 0 else None)
    margin = phases.separation_margin(res.coords, res.labels)
    meta = metadata_for(seed, cfg)
    meta["separation_margin"] = float(margin)
    _write(out_dir, "phase_points.json", phases.result_to_json(res, meta))
    _write(out_dir, "phase_kernel.csv", phases.kernel_to_csv(res.kernel, meta))
    print(f"depth {cfg['depth']}: margin {margin:+.4f} "
          f"({'separable' if margin > 0 else 'overlapping'})")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


SCHEMAS = {
    "channel-check": {
        # the Monte-Carlo check works in family coordinates, in blocks of
        # gates.BLOCK table entries (about 47 MB of peak RSS at n = 4), and
        # its time grows about 2.5x per qubit: 0.5 s at n = 4 with the
        # default 200000 samples
        "n": (_at_least(1, 4), 2),
        "mc_samples": (_at_least(1), 200_000),
    },
    "basis-audit": {
        # dense Gram matrix and invisibility check of all 4^n basis
        # elements: about 2.5 s and 134 MB of peak RSS at n = 6
        "n": (_at_least(1, 6), 2),
        "draws": (_at_least(1), 200),
    },
    "estimate": {
        "observable": (str, "link"),
        "g": (_coupling, 1.0),
        "alpha": (_finite, 1.0),
        "state": (str, "zero"),
        "ensemble": (_choice("global_su2", "global_cl2", "subsample_su2",
                             fold_case=True), "subsample_su2"),
        "members": (_at_least(1), 25),
        "ensemble_seed": (_at_least(0), 0),
        "shots": (_at_least(1, estimator.SHOTS_CAP), 10_000),
        "method": (_choice("mean", "median_of_means"), "median_of_means"),
        "m_observables": (_at_least(1), 1),
        "delta": (_probability, 0.1),
    },
    "bias-scan": {
        "observable": (str, "link"),
        "g": (_coupling, 1.0),
        "alpha": (_finite, 1.0),
        "ensemble": (_choice("global_cl2", "subsample_su2", fold_case=True),
                     "subsample_su2"),
        "members": (_at_least(1), 6),
        "ensemble_seed": (_at_least(0), 0),
        "mode": (_choice("lambda", "alpha"), "lambda"),
        "lambda_grid": (_grid, ()),
        "alpha_grid": (_grid, ()),
        "shots": (_at_least(1), 1000),
        "m_observables": (_at_least(1), 1),
        "epsilon": (_probability, 0.1),
        "delta": (_probability, 0.1),
    },
    "lgt-energy": {
        "triangles": (_triangle_counts, (2,)),
        "s_max": (_at_least(2), 2),
        "ensemble": (_choice("global_cl2", "subsample_su2", fold_case=True),
                     "subsample_su2"),
        "members": (_at_least(1), 25),
        "ensemble_seed": (_at_least(0), 1),
        "epsilon": (_probability, 0.1),
        "delta": (_probability, 0.1),
        "g": (_coupling, 1.0),
        "alpha": (_finite, 1.0),
    },
    "phase-classify": {
        "L": (_at_least(2), 2),
        "depth": (_at_least(0), 0),
        "states_per_phase": (_at_least(1), 10),
        "n_rp": (_at_least(1, estimator.SHOTS_CAP), 10_000),
        "n_su2": (_at_least(1, estimator.SHOTS_CAP), 1000),
        "lam": (_non_negative, 0.0),
    },
}

HANDLERS = {
    "channel-check": cmd_channel_check,
    "basis-audit": cmd_basis_audit,
    "estimate": cmd_estimate,
    "bias-scan": cmd_bias_scan,
    "lgt-energy": cmd_lgt_energy,
    "phase-classify": cmd_phase_classify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reshadow", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config is not None:
            path = pathlib.Path(args.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            raw = parse_config_text(path.read_text())
        cfg = coerce_config(raw, SCHEMAS[args.subcommand], args.subcommand)
        if args.threads < 1:
            raise ConfigError("threads must be >= 1")
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return HANDLERS[args.subcommand](cfg, args.seed, out_dir, args.threads)
    except (ConfigError, DimensionCapError) as exc:  # a register past qcore.N_CAP
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ReshadowError, ValueError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
