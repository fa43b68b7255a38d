"""Experiment runner: config handling, exit codes, artifacts, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from reshadow import biasvar, cli, ensembles, estimator, qcore
from reshadow.errors import ConfigError

from conftest import assert_same_text, random_hermitian
from references import channel_contributions


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_parse_config_text():
    cfg = cli.parse_config_text(
        "# comment line\n"
        "shots = 500   # trailing comment\n"
        "observable= link\n"
        "\n"
        "epsilon =0.2\n")
    assert cfg == {"shots": "500", "observable": "link", "epsilon": "0.2"}


@pytest.mark.parametrize("text", [
    "just some words\n",
    "= value\n",
    "a = 1\na = 2\n",
])
def test_parse_config_rejects_malformed(text):
    with pytest.raises(ConfigError):
        cli.parse_config_text(text)


def test_coerce_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        cli.coerce_config({"shotz": "5"}, cli.SCHEMAS["estimate"], "estimate")
    assert "shotz" in str(err.value) and "estimate" in str(err.value)


def test_coerce_config_bad_value():
    with pytest.raises(ConfigError):
        cli.coerce_config({"shots": "many"}, cli.SCHEMAS["estimate"], "estimate")


def test_coerce_config_defaults():
    cfg = cli.coerce_config({}, cli.SCHEMAS["estimate"], "estimate")
    assert cfg["shots"] == 10_000
    assert cfg["method"] == "median_of_means"
    cfg = cli.coerce_config({"shots": "12"}, cli.SCHEMAS["estimate"], "estimate")
    assert cfg["shots"] == 12


def test_config_hash_stability():
    h1 = cli.config_hash({"a": 1, "b": (2.0,)})
    h2 = cli.config_hash({"b": (2.0,), "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert cli.config_hash({"a": 2, "b": (2.0,)}) != h1


def test_metadata_records_environment():
    meta = cli.metadata_for(7, {"a": 1})
    assert meta["seed"] == 7
    assert f"numpy={np.__version__}" in meta["versions"]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_2(tmp_path):
    rc = cli.main(["estimate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, "bogus = 1\n")
    rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("sub, key", [("estimate", "epsilon"), ("estimate", "n"),
                                      ("lgt-energy", "q_variant"),
                                      ("bias-scan", "q_variant")])
def test_keys_no_subcommand_reads_exit_2_as_unknown(tmp_path, capsys, sub, key):
    # estimate never read epsilon and takes its register size from the
    # observable; lgt-energy always prices Q as max|K|, bias-scan as
    # max|K| + ||O~||_inf
    cfg = write_config(tmp_path, f"{key} = 0.1\n")
    assert cli.main([sub, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"unknown config keys for {sub}: {key}" in capsys.readouterr().err


def test_bad_thread_count_exits_2(tmp_path):
    rc = cli.main(["estimate", "--threads", "0", "--out", str(tmp_path)])
    assert rc == 2


def test_unrepresentable_subsample_exits_3(tmp_path):
    cfg = write_config(tmp_path, "members = 3\nshots = 50\n")
    rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("sub, text", [
    ("estimate", "shots = 0\n"),
    ("estimate", "shots = -5\n"),
    ("phase-classify", "n_rp = 0\n"),
    ("phase-classify", "n_su2 = 0\n"),
    ("phase-classify", "states_per_phase = 0\n"),
    ("bias-scan", "delta = 0.9\n"),
    ("bias-scan", "m_observables = 0\n"),
    ("lgt-energy", "delta = 5\n"),
    ("estimate", "delta = -1\n"),
    ("lgt-energy", "members = 0\n"),
    ("phase-classify", "L = 0\n"),
    ("phase-classify", "depth = -1\n"),
    ("bias-scan", "shots = 0\n"),
    ("lgt-energy", "s_max = 1\n"),
    ("channel-check", "mc_samples = 0\n"),
    ("basis-audit", "draws = 0\n"),
    ("lgt-energy", "triangles = 3\n"),
    ("lgt-energy", "triangles = 0\n"),
    ("lgt-energy", "triangles = 2, 5\n"),
    ("lgt-energy", "triangles =\n"),
    ("basis-audit", "n = 0\n"),
    ("basis-audit", "n = 7\n"),
    ("basis-audit", "n = 15\n"),
    ("channel-check", "n = 0\n"),
    ("channel-check", "n = 5\n"),
    ("channel-check", "n = 7\n"),
    ("estimate", "method = foo\n"),
    ("lgt-energy", "ensemble = global_cl2\n"),
    ("estimate", "g = 0\n"),
    ("bias-scan", "g = 1e-200\n"),
    ("lgt-energy", "g = 0\n"),
    ("lgt-energy", "g = 1e200\n"),
    ("estimate", "g = nan\n"),
    ("bias-scan", "g = inf\n"),
    ("lgt-energy", "alpha = nan\n"),
    ("bias-scan", "alpha = inf\n"),
    ("estimate", "alpha = -inf\n"),
    ("estimate", "g = 1e-160\n"),
    ("bias-scan", "observable = inf*XX\n"),
    ("bias-scan", "observable = 1e308*XX+1e308*XX\n"),
    ("bias-scan", "observable = 1e153*XX\n"),
    ("bias-scan", "observable = 1e300*XX\n"),
    ("estimate", "observable = 1e153*XX\n"),
    ("estimate", "observable = 1e300*XX\n"),
    ("lgt-energy", "g = 1e100\n"),
    ("lgt-energy", "g = 1e-100\n"),
    ("phase-classify", "lam = inf\n"),
    ("phase-classify", "lam = nan\n"),
    ("phase-classify", "lam = -1\n"),
    ("estimate", "ensemble_seed = -1\n"),
    ("bias-scan", "ensemble_seed = -1\n"),
    ("lgt-energy", "ensemble_seed = -1\n"),
    ("bias-scan", "lambda_grid = -1,0.1\n"),
    ("bias-scan", "lambda_grid = nan\n"),
    ("bias-scan", "mode = alpha\nalpha_grid = -1\n"),
    ("bias-scan", "mode = alpha\nalpha_grid = nan\n"),
    ("bias-scan", "mode = alpha\nalpha_grid = 0.1,inf\n"),
    ("phase-classify", "L = 3\n"),                    # 18 qubits
    ("estimate", "observable = XXXXXXXXXXXXXXX\n"),   # 15 qubits
    ("estimate", "observable = XXXXXXXXXXXXX\n"),     # 13 letters, 1 GiB
    ("estimate", "observable = XXXXXXXXXXXXXX\n"),    # 14 letters, 4 GiB
    ("bias-scan", "observable = 0.5*ZZZZZZZZZZZZZ\n"),
    ("bias-scan", "observable = YYYYYYYYYYYYYY\n"),
    ("estimate", "method = mean\ndelta = 1e-310\n"),  # 2M / delta overflows
    ("bias-scan", "delta = 1e-310\n"),
    pytest.param("estimate", f"m_observables = {10**400}\n",
                 id="estimate-m_observables = 10^400"),
    ("estimate", "shots = 100000000\n"),
    ("phase-classify", "n_rp = 100000000\n"),
    ("phase-classify", "n_su2 = 100000000\n"),
    ("phase-classify", "states_per_phase = 1\nn_rp = 100\nn_su2 = 100\nlam = 1e300\n"),
])
def test_out_of_range_values_exit_2(tmp_path, sub, text):
    cfg = write_config(tmp_path, text)
    rc = cli.main([sub, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("sub, text, named", [
    ("estimate", "delta = 1e-310\n", "delta = 1e-310 overflows 2M / delta at M = 1"),
    ("bias-scan", "mode = alpha\ndelta = 1e-310\n", "smallest usable delta is 1.11e-308"),
    ("lgt-energy", "delta = 1e-310\n", "delta = 1e-310 overflows 2M / delta at M = 10"),
    ("bias-scan", f"m_observables = {10**400}\n", f"m_observables = {10**400} is above"),
], ids=["estimate-delta", "alpha-delta", "lgt-delta", "bias-scan-m"])
def test_overflowing_confidence_factor_exits_2_naming_the_value(tmp_path, capsys, sub,
                                                                text, named):
    cfg = write_config(tmp_path, text)
    assert cli.main([sub, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("sub, key", [("estimate", "shots"), ("phase-classify", "n_rp"),
                                      ("phase-classify", "n_su2")])
def test_campaign_over_the_shot_cap_exits_2_before_allocating(tmp_path, capsys, sub, key):
    # 2^22 + 1 shots: several hundred MB of records and tables were they drawn
    cfg = write_config(tmp_path, f"{key} = {estimator.SHOTS_CAP + 1}\n")
    tracemalloc.start()
    try:
        rc = cli.main([sub, "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert (f"bad value for {key!r}: '{estimator.SHOTS_CAP + 1}' "
            f"(must be at most {estimator.SHOTS_CAP})") in capsys.readouterr().err
    assert peak < 4 * 2**20


@pytest.mark.parametrize("spec", ["X" * 13, "0.5*" + "Z" * 14, "XX+" + "Y" * 14])
def test_long_observable_word_is_rejected_before_any_dense_build(spec):
    # a 13-letter dense operator alone would take 1 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="at most 12"):
            cli.build_observable(spec, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_alpha_mode_above_its_cap_exits_2_before_any_system(tmp_path, capsys):
    # visible.family_basis(7), where the alpha map starts, would take 445 MB
    cfg = write_config(tmp_path, "observable = XXXXXXX+0.5*ZZZZZZZ\n"
                                 "ensemble = global_cl2\nmode = alpha\n")
    tracemalloc.start()
    try:
        rc = cli.main(["bias-scan", "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert f"capped at {biasvar.ALPHA_N_CAP} qubits (got 7)" in err
    assert "445 MB" in err
    assert peak < 4 * 2**20


def test_family_rows_over_the_cap_exit_2_before_allocating(tmp_path, capsys):
    # 4096 families x 2000 members x 256 outcomes: about 16 GB of M
    cfg = write_config(tmp_path, "observable = XXXXXXXX+0.5*ZZZZZZZZ\n"
                                 "members = 2000\n")
    tracemalloc.start()
    try:
        rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert f"FAMILY_ROWS_CAP = {estimator.FAMILY_ROWS_CAP}" in err
    assert "n = 8 with 2000 members" in err
    assert peak < 8 * 2**20


def test_eleven_letter_cl2_scan_exits_2_naming_the_cap(tmp_path, capsys):
    # its M would take 2.41 GiB; the scan used to die allocating it
    cfg = write_config(tmp_path, "observable = XXXXXXXXXXX+0.5*ZZZZZZZZZZZ\n"
                                 "ensemble = global_cl2\nmode = lambda\n")
    assert cli.main(["bias-scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "FAMILY_ROWS_CAP" in err and "2.41 GiB" in err


@pytest.mark.parametrize("sub", ["estimate", "channel-check"])
def test_negative_seed_exits_2(tmp_path, sub):
    assert cli.main([sub, "--seed", "-1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sub", ["bias-scan", "estimate"])
def test_largest_accepted_observable_gives_finite_artifacts(tmp_path, sub, n):
    def config(factor):
        # X^n at the norm cap, its exponent written without a sign ('+' and
        # '-' separate the terms of a spec)
        scale = cli.OBSERVABLE_NORM_CAP / 2 ** (n / 2) * factor
        mantissa, exponent = f"{scale:.15e}".split("e")
        return write_config(tmp_path, f"observable = {mantissa}e{int(exponent)}*"
                                      f"{'X' * n}\nmembers = 25\nshots = 200\n")

    assert cli.main([sub, "--config", config(1 + 1e-12), "--out", str(tmp_path)]) == 2
    assert cli.main([sub, "--config", config(1 - 1e-12), "--out", str(tmp_path)]) == 0
    if sub == "estimate":
        doc = json.loads((tmp_path / "estimate.json").read_text())
        values = [doc["estimate"], doc["exact"], doc["var_max_bound"]]
    else:  # shots_at is inf by design: the bias exceeds epsilon at this scale
        rows = (tmp_path / "bias_scan.csv").read_text().splitlines()[4:]
        values = [float(v) for row in rows for v in row.split(",")[:4]]
    assert values and np.isfinite(values).all()


def test_estimate_local_clifford_exits_2_naming_ensembles(tmp_path, capsys):
    cfg = write_config(tmp_path, "observable = XX\nensemble = local_clifford\n"
                                 "shots = 50\n")
    rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    for name in ("global_su2", "global_cl2", "subsample_su2"):
        assert name in err


@pytest.mark.parametrize("sub", ["bias-scan", "lgt-energy"])
@pytest.mark.parametrize("ensemble", ["global_su2", "local_clifford"])
def test_unsolvable_ensemble_exits_2_naming_ensembles(tmp_path, capsys, sub,
                                                      ensemble):
    cfg = write_config(tmp_path, f"ensemble = {ensemble}\n")
    rc = cli.main([sub, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "global_cl2" in err and "subsample_su2" in err


# ---------------------------------------------------------------------------
# Subcommands end to end
# ---------------------------------------------------------------------------


def run_estimate(tmp_path, sub, seed=1, threads=1):
    out = tmp_path / sub
    out.mkdir()
    cfg = write_config(tmp_path, "members = 6\nshots = 400\n",
                       name=f"{sub}.cfg")
    rc = cli.main(["estimate", "--config", cfg, "--seed", str(seed),
                   "--out", str(out), "--threads", str(threads)])
    assert rc == 0
    return ((out / "records.csv").read_bytes(),
            (out / "estimate.json").read_bytes())


def test_estimate_writes_artifacts(tmp_path):
    records, blob = run_estimate(tmp_path, "a")
    doc = json.loads(blob)
    for key in ("estimate", "exact", "var_max_bound", "shots", "method",
                "ensemble", "seed", "config_hash"):
        assert key in doc
    assert doc["shots"] == 400
    assert abs(doc["estimate"] - doc["exact"]) < 0.2
    assert records.splitlines()[-1].count(b",") == 1


def test_estimate_byte_reproducible(tmp_path):
    a = run_estimate(tmp_path, "r1", threads=1)
    b = run_estimate(tmp_path, "r2", threads=1)
    c = run_estimate(tmp_path, "r4", threads=4)
    for other in (b, c):
        for got, want in zip(other, a):
            assert_same_text(got, want)


def test_estimate_seed_changes_records(tmp_path):
    a = run_estimate(tmp_path, "s1", seed=1)
    b = run_estimate(tmp_path, "s2", seed=2)
    assert a[0] != b[0]


@pytest.mark.parametrize("observable, ensemble", [
    ("link", "subsample_su2"), ("triangle", "global_su2"),
    ("XXX+0.5*ZZZ", "global_cl2")])
def test_estimate_on_the_maximally_mixed_state(tmp_path, observable, ensemble):
    """state = mixed samples from density-matrix Born tables: 5000 shots (two
    chunks) estimate the traceless observable within 6 sigma of its exact 0,
    with the same artifact bytes at one and two threads."""
    lines = (f"observable = {observable}\nensemble = {ensemble}\nstate = mixed\n"
             "shots = 5000\nmethod = mean\n")
    cfg = write_config(tmp_path, lines)
    artifacts = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert cli.main(["estimate", "--config", cfg, "--seed", "4", "--out", str(out),
                         "--threads", str(threads)]) == 0
        artifacts.append([(out / name).read_bytes()
                          for name in ("records.csv", "estimate.json")])
    assert artifacts[0] == artifacts[1]
    doc = json.loads(artifacts[0][1])
    assert doc["exact"] == 0.0
    cfg = cli.coerce_config(cli.parse_config_text(lines), cli.SCHEMAS["estimate"],
                            "estimate")
    obs = cli.build_observable(cfg["observable"], cfg["g"], cfg["alpha"])
    n = qcore.num_qubits(obs)
    ens = cli.build_ensemble(cfg["ensemble"], n, cfg["members"], cfg["ensemble_seed"],
                             targets=(obs,))
    var = estimator.var_under_state(cli.solve_kernel(obs, ens), cli.build_state("mixed", n))
    assert abs(doc["estimate"]) < 6.0 * np.sqrt(var / 5000)


@pytest.mark.parametrize("lines", [
    "observable = link\nensemble = subsample_su2\nmembers = 25\nstate = ghz\n",
    "observable = triangle\nensemble = global_su2\nstate = ghz\n",
    "observable = XXX+0.5*ZZZ\nensemble = global_cl2\nstate = zero\n",
])
def test_estimate_records_read_back_to_the_same_bytes_and_estimate(tmp_path, lines):
    lines += "shots = 200\nensemble_seed = 5\n"
    assert cli.main(["estimate", "--config", write_config(tmp_path, lines),
                     "--seed", "3", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "records.csv").read_text()
    records, meta = estimator.records_from_csv(text)
    assert_same_text(estimator.records_to_csv(records, meta), text)
    cfg = cli.coerce_config(cli.parse_config_text(lines), cli.SCHEMAS["estimate"],
                            "estimate")
    obs = cli.build_observable(cfg["observable"], cfg["g"], cfg["alpha"])
    ens = cli.build_ensemble(cfg["ensemble"], qcore.num_qubits(obs), cfg["members"],
                             cfg["ensemble_seed"], targets=(obs,))
    again = estimator.estimate(records, cli.solve_kernel(obs, ens), method=cfg["method"],
                               m_observables=cfg["m_observables"], delta=cfg["delta"])
    doc = json.loads((tmp_path / "estimate.json").read_text())
    assert len(records) == doc["shots"] == 200
    assert again == doc["estimate"]


@pytest.mark.parametrize("spec, decimal", [
    ("1e-3*XX", "0.001*XX"),
    ("2E+1*ZZ", "20*ZZ"),
    ("-1.5e-2*XY+2.5E1*ZZ", "-0.015*XY+25*ZZ"),
    ("0.5*XX+-1e+0*ZZ", "0.5*XX-1*ZZ"),
])
def test_exponent_coefficients_parse_like_decimals(spec, decimal):
    assert np.array_equal(cli.build_observable(spec, 1.0, 1.0),
                          cli.build_observable(decimal, 1.0, 1.0))


@pytest.mark.parametrize("spec", ["abc*ZZ", "XQ", "XX+ZZZ", "2*-XX", "1e-*XX"])
def test_malformed_observable_terms_exit_2(tmp_path, capsys, spec):
    cfg = write_config(tmp_path, f"observable = {spec}\n")
    rc = cli.main(["bias-scan", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "bad observable term" in capsys.readouterr().err


@pytest.mark.parametrize("g, term", [("0.3", "the triangle term"),
                                     ("1e7", "the link term's bias")])
def test_lgt_energy_unsupported_coupling_exits_2(tmp_path, capsys, g, term):
    cfg = write_config(tmp_path, f"g = {g}\n")
    rc = cli.main(["lgt-energy", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"g = {float(g)!r}" in err and "epsilon = 0.1" in err and term in err


@pytest.mark.parametrize("g", ["1", "1e5"])
def test_lgt_energy_supported_couplings_still_run(tmp_path, g):
    cfg = write_config(tmp_path, f"g = {g}\n")
    assert cli.main(["lgt-energy", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "lgt_budget.csv").read_text().splitlines()
    shots = [int(l.rsplit(",", 1)[1]) for l in lines if l[0] not in "#s"]
    assert len(shots) == 4 and min(shots) > 0


def test_estimate_pauli_sum_on_ghz(tmp_path):
    cfg = write_config(
        tmp_path,
        "observable = 0.5*XX+0.25*ZZ\nstate = ghz\nensemble = global_su2\n"
        "shots = 300\nmethod = mean\n")
    rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "estimate.json").read_text())
    assert doc["exact"] == pytest.approx(0.75)


def test_channel_check_passes(tmp_path):
    cfg = write_config(tmp_path, "mc_samples = 20000\n")
    rc = cli.main(["channel-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "channel_check.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "check,observed,reference,tolerance,pass"
    assert all(l.endswith("True") for l in lines if not l.startswith("#")
               and l != header)


def test_basis_audit_passes(tmp_path):
    cfg = write_config(tmp_path, "draws = 40\n")
    rc = cli.main(["basis-audit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "basis_audit.csv").read_text()
    assert "check,observed,reference,tolerance,pass" in text
    assert "False" not in text


def test_bias_scan_artifact(tmp_path):
    cfg = write_config(tmp_path,
                       "lambda_grid = 0,0.003,0.03,1\nshots = 500\n")
    rc = cli.main(["bias-scan", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bias_scan.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "lambda_or_alpha,bias,var_bound,error_bound,shots_at"
    assert len(data) == 5


def test_lgt_energy_budget_table(tmp_path, capsys):
    rc = cli.main(["lgt-energy", "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    for strategy in ("plain-CS", "bias-only", "adapt-only", "bias+adapt"):
        assert strategy in printed
    lines = (tmp_path / "lgt_budget.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 5  # header + one row per strategy
    shots = [int(row.rsplit(",", 1)[1]) for row in data[1:]]
    assert shots == [514, 514, 292, 280]


def test_phase_classify_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        "states_per_phase = 2\nn_rp = 600\nn_su2 = 120\n")
    rc = cli.main(["phase-classify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "phase_points.json").read_text())
    assert len(doc["states"]) == 4
    assert "separation_margin" in doc
    kernel_lines = (tmp_path / "phase_kernel.csv").read_text().splitlines()
    assert "s0,s1,s2,s3" in kernel_lines


def mc_msu2_whole_chunks(a, samples, rng):
    """_mc_msu2 with every CHANNEL_CHUNK of rotations formed at once."""
    n = qcore.num_qubits(a)
    dim = 1 << n
    s1 = np.zeros((dim, dim), dtype=complex)
    s2 = np.zeros((dim, dim, 2))
    done = 0
    while done < samples:
        count = min(cli.CHANNEL_CHUNK, samples - done)
        thetas, _, psis = ensembles.haar_su2_angles(count, rng)
        big = np.stack([qcore.kron_all([u] * n)
                        for u in ensembles.su2_matrix(thetas, 0.0, psis)])
        diag = np.einsum("nbi,ij,nbj->nb", big, a, big.conj())
        contrib = np.einsum("nb,nbi,nbj->nij", diag, big.conj(), big)
        s1 += contrib.sum(axis=0)
        s2[..., 0] += (contrib.real**2).sum(axis=0)
        s2[..., 1] += (contrib.imag**2).sum(axis=0)
        done += count
    mean = s1 / samples
    var = s2[..., 0] / samples - mean.real**2 + s2[..., 1] / samples - mean.imag**2
    return mean, np.sqrt(np.clip(var, 0.0, None) / samples)


@pytest.mark.parametrize("n, samples", [(1, 30_000), (2, 45_000), (3, 5_000)])
def test_mc_msu2_blocks_match_whole_chunks(n, samples):
    # n = 2 runs three chunks of up to five blocks each, from the same draws
    rng = np.random.default_rng(n)
    a = random_hermitian(n, rng)
    mean, se = cli._mc_msu2(a, samples, np.random.default_rng(7))
    want_mean, want_se = mc_msu2_whole_chunks(a, samples, np.random.default_rng(7))
    np.testing.assert_allclose(mean, want_mean, rtol=0,
                               atol=1e-12 * qcore.spectral_norm(a))
    np.testing.assert_allclose(se, want_se, rtol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mc_family_rows_match_dense_contributions(n):
    # one sample's mean is its own contribution sum_S y_S B_S
    a = random_hermitian(n, np.random.default_rng(20 + n))
    for seed in range(3):
        mean, _ = cli._mc_msu2(a, 1, np.random.default_rng(seed))
        thetas, _, psis = ensembles.haar_su2_angles(1, np.random.default_rng(seed))
        want = channel_contributions(a, ensembles.su2_matrix(thetas, 0.0, psis))[0]
        np.testing.assert_allclose(mean, want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(a))


def test_mc_msu2_rejects_non_hermitian():
    a = random_hermitian(2, np.random.default_rng(5))
    a[0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        cli._mc_msu2(a, 10, np.random.default_rng(0))


def test_mc_msu2_memory_is_bounded():
    # one CHANNEL_CHUNK of product rotations at n = 4 alone would take
    # 20000 * 16 * 16 * 16 bytes = 82 MB
    a = random_hermitian(4, np.random.default_rng(4))
    tracemalloc.start()
    try:
        cli._mc_msu2(a, 20_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# ---------------------------------------------------------------------------
# Runtime dependencies
# ---------------------------------------------------------------------------


ROOT = pathlib.Path(__file__).resolve().parents[1]

NO_SCIPY = """
import importlib, pkgutil, sys
import reshadow
for info in pkgutil.iter_modules(reshadow.__path__):
    importlib.import_module("reshadow." + info.name)
assert "scipy" not in sys.modules, "a reshadow module imports scipy"
sys.modules["scipy"] = None  # any later `import scipy` raises ImportError
from reshadow import cli
sys.exit(cli.main(["estimate", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_runtime_needs_no_scipy(tmp_path):
    """Every module imports, and estimate runs a repo config, without scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(ROOT / "configs" / "estimate_link.cfg"),
         str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "estimate.json").exists()
