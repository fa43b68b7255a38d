"""The record CSV: byte-identical to the per-row writer, exact round trips,
and rejection of malformed headers and rows."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reshadow import artifacts, ensembles, estimator
from reshadow.ensembles import (
    KIND_DISCRETE_SUBSAMPLE,
    KIND_GLOBAL_CL2,
    KIND_GLOBAL_SU2,
    KIND_LOCAL_CLIFFORD,
    SampledUnitary,
)

# ---------------------------------------------------------------------------
# Reference: the per-row csv-module writer and reader the columnar code replaced
# ---------------------------------------------------------------------------


def member(records, i):
    """The SampledUnitary of shot i."""
    kind, n = records.kind, records.n
    if kind == KIND_LOCAL_CLIFFORD:
        return SampledUnitary(kind, n, word="".join(ensembles.CL2_BASES[j]
                                                    for j in records.bases[i]))
    if kind == KIND_GLOBAL_CL2:
        return SampledUnitary(kind, n,
                              basis=ensembles.CL2_BASES[int(records.member_idx[i])],
                              index=int(records.member_idx[i]))
    index = int(records.member_idx[i]) if kind == KIND_DISCRETE_SUBSAMPLE else -1
    return SampledUnitary(kind, n, theta=float(records.thetas[i]),
                          psi=float(records.psis[i]), index=index)


def params_text(v):
    """Semicolon-joined parameter text of one member (round-trips exactly)."""
    if v.kind in (KIND_GLOBAL_SU2, KIND_DISCRETE_SUBSAMPLE):
        angles = ";".join(repr(float(a)) for a in (v.theta, v.psi))
        if v.kind == KIND_DISCRETE_SUBSAMPLE:
            return f"{v.index};{angles}"
        return angles
    if v.kind == KIND_GLOBAL_CL2:
        return v.basis
    return v.word


def from_params_text(kind, n, text):
    if kind == KIND_GLOBAL_SU2:
        theta, psi = (float(t) for t in text.split(";"))
        return SampledUnitary(kind, n, theta=theta, psi=psi)
    if kind == KIND_DISCRETE_SUBSAMPLE:
        idx, theta, psi = text.split(";")
        return SampledUnitary(kind, n, theta=float(theta), psi=float(psi),
                              index=int(idx))
    if kind == KIND_GLOBAL_CL2:
        return SampledUnitary(kind, n, basis=text)
    return SampledUnitary(kind, n, word=text)


def reference_records_to_csv(records, metadata=None):
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        buf.write(f"# {key}={value}\n")
    buf.write(f"# n={records.n}\n# campaign_id={records.campaign_id}\n"
              f"# ensemble_kind={records.kind}\n# shots={len(records)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["v_params", "b"])
    if records.kind == KIND_LOCAL_CLIFFORD:
        params = records.words
    else:
        params = [params_text(member(records, i)) for i in range(len(records))]
    for i, text in enumerate(params):
        writer.writerow([text, format(int(records.b[i]), f"0{records.n}b")])
    return buf.getvalue()


def reference_records_from_csv(text):
    metadata, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#") and not rows:
            key, _, value = line[1:].strip().partition("=")
            metadata[key.strip()] = value
        elif line:
            rows.append(line)
    reader = csv.reader(rows)
    assert next(reader) == estimator.RECORD_COLUMNS.split(",")
    n, campaign_id, kind, shots = (metadata.pop(key) for key in estimator.RECORD_KEYS)
    n = int(n)
    params, bs = [], []
    for text, b_text in reader:
        params.append(text)
        bs.append(int(b_text, 2))
    assert len(bs) == int(shots)
    b = np.asarray(bs, dtype=np.int64)
    if kind == KIND_LOCAL_CLIFFORD:
        bases = np.array([[ensembles.CL2_BASES.index(ch) for ch in word]
                          for word in params], dtype=np.int8)
        return estimator.Records(kind, n, campaign_id, b, bases=bases), metadata
    units = [from_params_text(kind, n, text) for text in params]
    if kind == KIND_GLOBAL_CL2:
        member_idx = np.array([ensembles.CL2_BASES.index(u.basis) for u in units])
        return estimator.Records(kind, n, campaign_id, b,
                                 member_idx=member_idx), metadata
    member_idx = None
    if kind == KIND_DISCRETE_SUBSAMPLE:
        member_idx = np.array([u.index for u in units], dtype=np.int64)
    return estimator.Records(
        kind, n, campaign_id, b, member_idx=member_idx,
        thetas=np.array([u.theta for u in units]),
        psis=np.array([u.psi for u in units])), metadata


def assert_same_records(got, want):
    assert (got.kind, got.n, got.campaign_id) == (want.kind, want.n, want.campaign_id)
    assert got.b.dtype == np.int64 and np.array_equal(got.b, want.b)
    if want.kind == KIND_LOCAL_CLIFFORD:
        assert got.bases.dtype == np.int8 and np.array_equal(got.bases, want.bases)
    if want.kind in (KIND_GLOBAL_CL2, KIND_DISCRETE_SUBSAMPLE):
        assert np.array_equal(got.member_idx, want.member_idx)
    if want.kind in (KIND_GLOBAL_SU2, KIND_DISCRETE_SUBSAMPLE):
        for name in ("thetas", "psis"):
            a = np.asarray(getattr(got, name), dtype=np.float64)
            w = np.asarray(getattr(want, name), dtype=np.float64)
            assert np.array_equal(a.view(np.uint64), w.view(np.uint64)), name


# ---------------------------------------------------------------------------
# Property: byte-equal to the reference, exact round trip
# ---------------------------------------------------------------------------

# exponent-form reprs, signed zero, subnormals and infinities
SPECIAL_ANGLES = [1e-05, 5e-324, 0.0, -0.0, 1e16, -2.5e-08, 1.7976931348623157e308,
                  float("inf"), -float("inf"), np.pi]
ID_CHARS = "".join(chr(c) for c in range(32, 127) if chr(c) not in ',;"')
TEXT_CHARS = "".join(chr(c) for c in range(32, 127))


@st.composite
def record_sets(draw):
    kind = draw(st.sampled_from(estimator.KINDS))
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    campaign_id = draw(st.text(alphabet=ID_CHARS, max_size=8).map(str.rstrip))
    b = rng.integers(0, 1 << n, size=count)
    if kind == KIND_LOCAL_CLIFFORD:
        bases = rng.integers(0, 3, size=(count, n)).astype(np.int8)
        return estimator.Records(kind, n, campaign_id, b, bases=bases)
    if kind == KIND_GLOBAL_CL2:
        return estimator.Records(kind, n, campaign_id, b,
                                 member_idx=rng.integers(0, 3, size=count))
    pool = np.array(draw(st.lists(st.floats(allow_nan=False) | st.sampled_from(
        SPECIAL_ANGLES), min_size=1, max_size=12)))
    # a subsample's rows usually repeat their member's angles; not always
    tied = kind == KIND_DISCRETE_SUBSAMPLE and draw(st.booleans())
    size = draw(st.integers(1, 40)) if tied else count

    def column():
        values = rng.uniform(-20.0, 20.0, size=size)
        special = rng.random(size) < 0.3
        values[special] = rng.choice(pool, size=int(special.sum()))
        return values

    thetas, psis = column(), column()
    member_idx = None
    if kind == KIND_DISCRETE_SUBSAMPLE:
        member_idx = rng.integers(0, size if tied else 1000, size=count)
        if tied:
            thetas, psis = thetas[member_idx], psis[member_idx]
    return estimator.Records(kind, n, campaign_id, b, member_idx=member_idx,
                             thetas=thetas, psis=psis)


metadata_dicts = st.dictionaries(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1,
            max_size=6).filter(lambda k: k not in estimator.RECORD_KEYS),
    st.text(alphabet=TEXT_CHARS, max_size=12).map(str.rstrip), max_size=4)


@settings(max_examples=100)
@given(records=record_sets(), metadata=metadata_dicts)
def test_csv_matches_per_row_reference_and_round_trips(records, metadata):
    text = estimator.records_to_csv(records, metadata)
    assert text == reference_records_to_csv(records, metadata)
    back, meta = estimator.records_from_csv(text)
    assert meta == metadata
    assert_same_records(back, records)
    assert estimator.records_to_csv(back, meta) == text
    ref_back, ref_meta = reference_records_from_csv(text)
    assert ref_meta == meta
    assert_same_records(back, ref_back)


def test_exponent_form_angles_round_trip():
    angles = np.array([1e-05, 5e-324, 0.0, -0.0, 1e+16, 2.5e-08])
    records = estimator.Records(KIND_GLOBAL_SU2, 2, "c0", np.arange(6) % 4,
                                thetas=angles, psis=angles[::-1].copy())
    text = estimator.records_to_csv(records)
    assert text.splitlines()[5] == "1e-05;2.5e-08,00"
    assert text.splitlines()[7] == "0.0;-0.0,10"
    assert text == reference_records_to_csv(records)
    assert_same_records(estimator.records_from_csv(text)[0], records)


def test_rows_span_several_write_blocks():
    count = 2 * estimator.CHUNK + 17
    rng = np.random.default_rng(4)
    ens = ensembles.subsample_su2(5, rng, n=3)
    records = estimator.run_campaign(np.eye(8)[0].astype(complex), ens, count, rng)
    text = estimator.records_to_csv(records, {"seed": 4})
    assert text == reference_records_to_csv(records, {"seed": 4})
    assert_same_records(estimator.records_from_csv(text)[0], records)


def test_reader_accepts_crlf_and_a_missing_final_newline():
    text = head("LocalClifford", 2).replace("\n", "\r\n") + "XY,01\r\nZZ,10"
    records, _ = estimator.records_from_csv(text)
    assert records.words == ["XY", "ZZ"] and records.b.tolist() == [1, 2]


def test_campaign_id_may_start_with_hash():
    records = estimator.Records(KIND_GLOBAL_CL2, 1, "#7", np.array([0, 1]),
                                member_idx=np.array([2, 0]))
    back, _ = estimator.records_from_csv(estimator.records_to_csv(records))
    assert_same_records(back, records)


def test_metadata_header_round_trips():
    meta = {"seed": 3, "config_hash": "ab12", "versions": "x=1 y=2"}
    text = artifacts.metadata_header(meta) + "a,b\n1,2\n"
    assert text.startswith("# seed=3\n# config_hash=ab12\n# versions=x=1 y=2\n")
    back, rest = artifacts.read_metadata_header(text)
    assert back == {"seed": "3", "config_hash": "ab12", "versions": "x=1 y=2"}
    assert rest == "a,b\n1,2\n"
    assert artifacts.metadata_header(None) == ""


# ---------------------------------------------------------------------------
# Rejection of malformed records
# ---------------------------------------------------------------------------


def head(kind, shots, n=2):
    return (f"# n={n}\n# campaign_id=c0\n# ensemble_kind={kind}\n# shots={shots}\n"
            "v_params,b\n")


def read(kind, rows, shots=None):
    shots = len(rows) if shots is None else shots
    return estimator.records_from_csv(head(kind, shots) + "".join(r + "\n" for r in rows))


@pytest.mark.parametrize("b_text", ["0101", "1", "+1", "012", "", "1_0"])
def test_rejects_b_that_is_not_n_binary_digits(b_text):
    with pytest.raises(ValueError):
        read("GlobalCl2", ["X,00", f"Z,{b_text}"])


@pytest.mark.parametrize("row", [
    '"X,Y",00',                        # a quoted comma: three fields here
    "XY,00,",
    "XY",
    "",                                # a blank row
    "c0,1,LocalClifford,XY,00",        # a row of the old five-column layout
])
def test_rejects_rows_without_two_fields(row):
    with pytest.raises(ValueError, match="exactly one ','"):
        read("LocalClifford", ["XY,00", row])


@pytest.mark.parametrize("shots", ["1", "3", "-1", "02", ""])
def test_rejects_row_count_other_than_shots(shots):
    with pytest.raises(ValueError, match="shots"):
        read("GlobalCl2", ["X,00", "Z,01"], shots=shots)


@pytest.mark.parametrize("kind, params", [
    ("GlobalSU2", "0.1"),
    ("GlobalSU2", "0.1;0.2;0.3"),            # the old theta;phi;psi
    ("GlobalSU2", "0.1;0.2;0.3;0.4"),
    ("GlobalSU2", "0.1;"),
    ("GlobalSU2", "0.1;;0.3"),
    ("GlobalSU2", "abc;0.3"),
    ("GlobalSU2", "0.1;abc;0.3"),
    ("DiscreteSubsample", "-1;0.1;0.3"),
    ("DiscreteSubsample", "+1;0.1;0.3"),
    ("DiscreteSubsample", "-1;0.1;0.2;0.3"),
    ("DiscreteSubsample", "+1;0.1;0.2;0.3"),
    ("DiscreteSubsample", "0.1;0.2;0.3"),
    ("DiscreteSubsample", "1;0.1"),
    ("GlobalCl2", "x"),
    ("GlobalCl2", "XY"),
    ("LocalClifford", "X"),
    ("LocalClifford", "XQ"),
])
def test_rejects_malformed_v_params(kind, params):
    with pytest.raises(ValueError):
        read(kind, [f"{params},00"])


def test_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        read("Foo", ["1;0.1;0.3,00"])


def test_rejects_missing_n_and_nul_bytes():
    with pytest.raises(ValueError, match="n="):
        estimator.records_from_csv(head("GlobalCl2", 1)[6:] + "X,00\n")
    with pytest.raises(ValueError, match="NUL"):
        read("GlobalCl2", ["X\0,00"])


@pytest.mark.parametrize("key", ["campaign_id", "ensemble_kind", "shots"])
def test_rejects_a_missing_header_line(key):
    text = "".join(line + "\n" for line in head("GlobalCl2", 1).splitlines()
                   if not line.startswith(f"# {key}="))
    with pytest.raises(ValueError, match=f"'# {key}='"):
        estimator.records_from_csv(text + "X,00\n")


def test_rejects_the_old_five_column_layout_naming_the_header():
    text = ("# seed=0\n# n=2\ncampaign_id,shot_index,ensemble_kind,v_params,b\n"
            "c0,0,GlobalCl2,X,00\n")
    with pytest.raises(ValueError, match="'v_params,b'"):
        estimator.records_from_csv(text)


@pytest.mark.parametrize("campaign_id", ["a,b", 'say "hi"', "a;b", "line\nbreak",
                                         "tab\there", "café", "blank ", " "])
def test_records_reject_campaign_ids_that_are_not_plain_fields(campaign_id):
    with pytest.raises(ValueError, match="campaign_id"):
        estimator.Records(KIND_GLOBAL_CL2, 1, campaign_id, np.array([0]),
                          member_idx=np.array([0]))


def test_campaign_id_keeps_leading_blanks_and_header_characters():
    records = estimator.Records(KIND_GLOBAL_CL2, 1, " a=b #c", np.array([0, 1]),
                                member_idx=np.array([2, 0]))
    back, _ = estimator.records_from_csv(estimator.records_to_csv(records))
    assert back.campaign_id == " a=b #c"


def test_writer_rejects_outcomes_outside_the_register():
    records = estimator.Records(KIND_GLOBAL_CL2, 2, "c0", np.array([0, 4]),
                                member_idx=np.array([0, 1]))
    with pytest.raises(ValueError, match="outcomes"):
        estimator.records_to_csv(records)


@pytest.mark.parametrize("key", estimator.RECORD_KEYS)
def test_writer_rejects_reserved_metadata_keys(key):
    records = estimator.Records(KIND_GLOBAL_CL2, 2, "c0", np.array([0, 3]),
                                member_idx=np.array([0, 1]))
    with pytest.raises(ValueError, match="reserved"):
        estimator.records_to_csv(records, {"seed": 0, key: "x"})
