"""The record CSV: byte-identical to the per-row writer, exact round trips,
and rejection of malformed headers and rows."""

import csv
import io
import struct
import tracemalloc

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

from conftest import assert_same_text

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
                              basis=ensembles.CL2_BASES[int(records.member_idx[i])])
    return SampledUnitary(kind, n, theta=float(records.thetas[i]),
                          psi=float(records.psis[i]))


def hex_angle(x):
    return struct.pack(">d", x).hex()


def from_hex_angle(text):
    return struct.unpack(">d", bytes.fromhex(text))[0]


def params_text(v, index, digits):
    """Semicolon-joined parameter text of one member, a subsample's member
    index zero-padded to `digits` (round-trips exactly)."""
    if v.kind in (KIND_GLOBAL_SU2, KIND_DISCRETE_SUBSAMPLE):
        angles = ";".join(hex_angle(a) for a in (v.theta, v.psi))
        if v.kind == KIND_DISCRETE_SUBSAMPLE:
            return f"{index:0{digits}d};{angles}"
        return angles
    if v.kind == KIND_GLOBAL_CL2:
        return v.basis
    return v.word


def from_params_text(kind, n, text):
    """The member of one parameter text and its subsample index (else -1)."""
    if kind == KIND_GLOBAL_SU2:
        theta, psi = (from_hex_angle(t) for t in text.split(";"))
        return SampledUnitary(kind, n, theta=theta, psi=psi), -1
    if kind == KIND_DISCRETE_SUBSAMPLE:
        idx, theta, psi = text.split(";")
        return SampledUnitary(kind, n, theta=from_hex_angle(theta),
                              psi=from_hex_angle(psi)), int(idx)
    if kind == KIND_GLOBAL_CL2:
        return SampledUnitary(kind, n, basis=text), -1
    return SampledUnitary(kind, n, word=text), -1


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
        digits, index = 1, [-1] * len(records)
        if records.kind == KIND_DISCRETE_SUBSAMPLE:
            digits = len(str(int(max(records.member_idx))))
            index = records.member_idx.tolist()
        params = [params_text(member(records, i), index[i], digits)
                  for i in range(len(records))]
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
    units, index = zip(*(from_params_text(kind, n, text) for text in params))
    if kind == KIND_GLOBAL_CL2:
        member_idx = np.array([ensembles.CL2_BASES.index(u.basis) for u in units])
        return estimator.Records(kind, n, campaign_id, b,
                                 member_idx=member_idx), metadata
    member_idx = None
    if kind == KIND_DISCRETE_SUBSAMPLE:
        member_idx = np.array(index, dtype=np.int64)
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

# signed zero, subnormals, the smallest normal and the largest finite floats
SPECIAL_ANGLES = [1e-05, 5e-324, -5e-324, 0.0, -0.0, 1e16, -2.5e-08,
                  2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, np.pi]
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
    pool = np.array(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_ANGLES),
        min_size=1, max_size=12)))
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
    assert_same_text(text, reference_records_to_csv(records, metadata))
    back, meta = estimator.records_from_csv(text)
    assert meta == metadata
    assert_same_records(back, records)
    assert_same_text(estimator.records_to_csv(back, meta), text)
    ref_back, ref_meta = reference_records_from_csv(text)
    assert ref_meta == meta
    assert_same_records(back, ref_back)


def test_special_angles_write_fixed_hex_rows():
    angles = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308, 1.0, -np.pi])
    records = estimator.Records(KIND_DISCRETE_SUBSAMPLE, 2, "c0", np.arange(6) % 4,
                                member_idx=np.array([3, 12, 0, 7, 12, 3]),
                                thetas=angles, psis=angles[::-1].copy())
    text = estimator.records_to_csv(records)
    assert text.splitlines()[5:] == [
        "03;0000000000000000;c00921fb54442d18,00",
        "12;8000000000000000;3ff0000000000000,01",
        "00;0000000000000001;7fefffffffffffff,10",
        "07;7fefffffffffffff;0000000000000001,11",
        "12;3ff0000000000000;8000000000000000,00",
        "03;c00921fb54442d18;0000000000000000,01",
    ]
    assert_same_text(text, reference_records_to_csv(records))
    assert_same_records(estimator.records_from_csv(text)[0], records)


def test_rows_span_several_write_blocks():
    count = 2 * estimator.CHUNK + 17
    rng = np.random.default_rng(4)
    ens = ensembles.subsample_su2(5, rng, n=3)
    records = estimator.run_campaign(np.eye(8)[0].astype(complex), ens, count, rng)
    text = estimator.records_to_csv(records, {"seed": 4})
    assert_same_text(text, reference_records_to_csv(records, {"seed": 4}))
    assert_same_records(estimator.records_from_csv(text)[0], records)


def test_reader_accepts_crlf_and_a_missing_final_newline():
    text = head("LocalClifford", 2).replace("\n", "\r\n") + "XY,01\r\nZZ,10"
    records, _ = estimator.records_from_csv(text)
    assert records.words == ["XY", "ZZ"] and records.b.tolist() == [1, 2]


@pytest.mark.parametrize("rows, bad", [("XY,01\r\nZZ,10\n", 2), ("XY,01\nZZ,10\r\n", 2),
                                       ("XY,01\r\nZZ,100\n", 2)])
def test_reader_rejects_rows_that_mix_lf_and_crlf(rows, bad):
    text = head("LocalClifford", 2) + rows
    with pytest.raises(ValueError, match=f"as wide as the first .5 characters.; row {bad} is not"):
        estimator.records_from_csv(text)


def test_campaign_id_may_start_with_hash():
    records = estimator.Records(KIND_GLOBAL_CL2, 1, "#7", np.array([0, 1]),
                                member_idx=np.array([2, 0]))
    back, _ = estimator.records_from_csv(estimator.records_to_csv(records))
    assert_same_records(back, records)


def test_metadata_header_round_trips():
    meta = {"seed": 3, "config_hash": "ab12", "versions": "x=1 y=2"}
    text = artifacts.metadata_header(meta) + "a,b\n1,2\n"
    assert text.startswith("# seed=3\n# config_hash=ab12\n# versions=x=1 y=2\n")
    back, pos = artifacts.read_metadata_header(text)
    assert back == {"seed": "3", "config_hash": "ab12", "versions": "x=1 y=2"}
    assert text[pos:] == "a,b\n1,2\n"
    assert artifacts.read_metadata_header("# a=1\n# b=2") == ({"a": "1", "b": "2"}, 11)
    assert artifacts.metadata_header(None) == ""


def shot_records(kind, count, n, rng):
    """`count` random shots of one kind, subsample indices below 25."""
    b = rng.integers(0, 1 << n, size=count)
    if kind == KIND_LOCAL_CLIFFORD:
        bases = rng.integers(0, 3, size=(count, n)).astype(np.int8)
        return estimator.Records(kind, n, "c0", b, bases=bases)
    if kind == KIND_GLOBAL_CL2:
        return estimator.Records(kind, n, "c0", b, member_idx=rng.integers(0, 3, size=count))
    member_idx = rng.integers(0, 25, size=count) if kind == KIND_DISCRETE_SUBSAMPLE else None
    return estimator.Records(kind, n, "c0", b, member_idx=member_idx,
                             thetas=rng.uniform(0.0, np.pi, count),
                             psis=rng.uniform(0.0, 2 * np.pi, count))


@pytest.mark.parametrize("kind", estimator.KINDS)
def test_writer_and_reader_hold_one_full_size_copy(kind):
    # the writer: its byte buffer and the str decoded from it; the reader:
    # the bytes it encodes, beside the arrays it returns. Every other
    # temporary is a block of rows (within the MiB of slack).
    records = shot_records(kind, 200_000, 3, np.random.default_rng(6))
    tracemalloc.start()
    try:
        text = estimator.records_to_csv(records, {"seed": 6})
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        back, _ = estimator.records_from_csv(text)
        read = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert_same_records(back, records)
    returned = sum(a.nbytes for a in (back.b, back.bases, back.member_idx,
                                      back.thetas, back.psis) if a is not None)
    assert written <= 2.2 * len(text) + 2**20
    assert read - returned <= 1.3 * len(text) + 2**20


def test_crlf_rows_cost_the_reader_no_more_than_lf_rows():
    # CRLF rows are read in place, with the '\r' column checked like '\n'
    records = shot_records(KIND_DISCRETE_SUBSAMPLE, 200_000, 2, np.random.default_rng(7))
    lf = estimator.records_to_csv(records)
    peaks = []
    for text in (lf, lf.replace("\n", "\r\n")):
        tracemalloc.start()
        try:
            back, _ = estimator.records_from_csv(text)
            peaks.append(tracemalloc.get_traced_memory()[1] / len(text))
        finally:
            tracemalloc.stop()
        assert_same_records(back, records)
    assert peaks[1] <= peaks[0] + 0.1


@pytest.mark.parametrize("metadata", [{"note": "a\n# extra=1"}, {"note": "a\nb"},
                                      {"note": "a\rb"}, {"a\nb": 0}])
def test_writer_rejects_metadata_with_line_breaks(metadata):
    # "a\n# extra=1" would read back as two keys, "a\nb" as a row
    records = shot_records(KIND_GLOBAL_CL2, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="line break"):
        estimator.records_to_csv(records, metadata)


def test_reader_finds_the_rows_after_a_non_ascii_header():
    # the rows start at a byte offset past the header's UTF-8 bytes
    records = shot_records(KIND_DISCRETE_SUBSAMPLE, 5, 2, np.random.default_rng(1))
    text = estimator.records_to_csv(records, {"note": "café ∑"})
    back, meta = estimator.records_from_csv(text)
    assert meta == {"note": "café ∑"}
    assert_same_records(back, records)
    with pytest.raises(ValueError, match="rows must be ASCII"):
        estimator.records_from_csv(text.replace(";", "é", 1))


def test_csv_text_writes_floats_by_repr():
    rows = [(np.float64(0.1), 0.25, np.int64(3), True, "x")]
    text = artifacts.csv_text({"seed": 0}, ("a", "b", "c", "d", "e"), rows)
    assert text == "# seed=0\na,b,c,d,e\n0.1,0.25,3,True,x\n"


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
    with pytest.raises(ValueError, match="as wide as the first .* row 2 "):
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


# theta = 1.0, psi = 2.0
ANGLES = "3ff0000000000000;4000000000000000"


@pytest.mark.parametrize("kind, first", [
    ("GlobalSU2", "1.0;2.0"),
    ("GlobalSU2", "0.10000000000000;0.20000000000000"),  # as wide as hex
    ("DiscreteSubsample", "3;1.0;2.0"),
    ("DiscreteSubsample", "3;0.10000000000000;0.20000000000000"),
])
def test_rejects_decimal_angles_naming_the_hex_layout(kind, first):
    index = "3;" if kind == "DiscreteSubsample" else ""
    rows = [f"{first},01", f"{index}{ANGLES},01"]
    with pytest.raises(ValueError, match="hex digits of its big-endian IEEE-754 bits"):
        read(kind, rows)
    with pytest.raises(ValueError, match="hex digits"):
        read(kind, rows[:1])


def test_rejects_rows_of_unequal_width():
    with pytest.raises(ValueError, match="as wide as the first .* row 3 "):
        read("DiscreteSubsample", [f"03;{ANGLES},01", f"11;{ANGLES},10",
                                   f"7;{ANGLES},00", f"12;{ANGLES},11"])


@pytest.mark.parametrize("kind, params", [
    ("GlobalSU2", ANGLES.upper()),
    ("GlobalSU2", "3ff000000000000;4000000000000000"),     # 15 digits
    ("GlobalSU2", "3ff0000000000000;40000000000000000"),   # 17 digits
    ("DiscreteSubsample", "1;3ff000000000000;4000000000000000"),
    ("DiscreteSubsample", "1;3ff00000000000000;4000000000000000"),
    ("DiscreteSubsample", "12;3ff0000000000000;400000000000000"),
    ("DiscreteSubsample", "1;3FF0000000000000;4000000000000000"),
    ("GlobalSU2", "0x3ff000000000000;4000000000000000"),
])
def test_rejects_angles_that_are_not_16_lowercase_hex_digits(kind, params):
    with pytest.raises(ValueError, match="16 lowercase hex digits"):
        read(kind, [f"{params},01"])


@pytest.mark.parametrize("kind, params", [
    ("GlobalSU2", ANGLES.replace(";", ",")),
    ("GlobalSU2", ANGLES.replace(";", " ")),
    ("DiscreteSubsample", "1:" + ANGLES),
    ("DiscreteSubsample", "1;" + ANGLES.replace(";", "0")),
])
def test_rejects_v_params_without_their_semicolons(kind, params):
    with pytest.raises(ValueError, match="theta;psi"):
        read(kind, [f"{params},01"])


@pytest.mark.parametrize("pattern", ["7ff8000000000000", "fff0000000000000",
                                     "7ff0000000000000", "fff8000000000001"])
def test_rejects_nan_and_infinite_bit_patterns(pattern):
    with pytest.raises(ValueError, match="thetas must be finite"):
        read("GlobalSU2", [f"{ANGLES},01", f"{pattern};{ANGLES[:16]},10"])
    with pytest.raises(ValueError, match="psis must be finite"):
        read("DiscreteSubsample", [f"0;{ANGLES[:16]};{pattern},10"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["thetas", "psis"])
def test_records_reject_non_finite_angles(bad, name):
    angles = {"thetas": np.array([0.1, 0.2]), "psis": np.array([0.3, 0.4])}
    angles[name][1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        estimator.Records(KIND_GLOBAL_SU2, 1, "c0", np.array([0, 1]), **angles)


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


def test_writer_rejects_zero_records():
    # the reader refuses a header without rows, so the writer makes none
    records = estimator.Records(KIND_GLOBAL_CL2, 2, "c0", np.array([], dtype=int),
                                member_idx=np.array([], dtype=int))
    with pytest.raises(ValueError, match="no records"):
        estimator.records_to_csv(records)


def test_writer_rejects_outcomes_outside_the_register():
    records = estimator.Records(KIND_GLOBAL_CL2, 2, "c0", np.array([0, 4]),
                                member_idx=np.array([0, 1]))
    with pytest.raises(ValueError, match="outcomes"):
        estimator.records_to_csv(records)


@pytest.mark.parametrize("key", ["campaign_id", "seed"])
def test_rejects_a_repeated_header_key(key):
    text = f"# seed=0\n# {key}=b\n" + head("GlobalCl2", 1) + "X,00\n"
    with pytest.raises(ValueError, match=f"'{key}' appears twice"):
        estimator.records_from_csv(text)


@pytest.mark.parametrize("metadata, key", [
    ({"seed": 0, " seed ": 1}, "seed"),
    ({"a": 1, "a=b": 2}, "a"),
    ({"campaign_id=x": 1}, "campaign_id"),
])
def test_writer_rejects_metadata_keys_equal_once_stripped(metadata, key):
    # the reader cuts each key at its first '=' and strips it
    records = estimator.Records(KIND_GLOBAL_CL2, 2, "c0", np.array([0, 3]),
                                member_idx=np.array([0, 1]))
    with pytest.raises(ValueError, match=f"'{key}'"):
        estimator.records_to_csv(records, metadata)


@pytest.mark.parametrize("key", estimator.RECORD_KEYS)
def test_writer_rejects_reserved_metadata_keys(key):
    records = estimator.Records(KIND_GLOBAL_CL2, 2, "c0", np.array([0, 3]),
                                member_idx=np.array([0, 1]))
    with pytest.raises(ValueError, match="reserved"):
        estimator.records_to_csv(records, {"seed": 0, key: "x"})
