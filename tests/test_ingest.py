import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mobmeta.core import Dataset, IngestError
from mobmeta.ingest import (
    _POINT_FIELDS,
    _SYMBOL_FIELDS,
    IngestConfig,
    _columns,
    dataset_digest,
    load_dataset,
    load_raw,
    load_symbols_jsonl,
    parse_raw_with_report,
    save_dataset,
    save_raw,
)
from mobmeta.synth import SourceSpec, generate

from conftest import make_dataset
from oracles import columns_by_value


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


CSV_CFG = IngestConfig(format="csv_gps")


def test_csv_interleaved_users_sorted(tmp_path):
    p = write(
        tmp_path,
        "in.csv",
        "u1,45.0,7.0,100\nu2,46.0,8.0,50\nu1,45.1,7.1,50\nu2,46.1,8.1,150\n",
    )
    trajs, rep = parse_raw_with_report(p, CSV_CFG)
    assert [t.user_id for t in trajs] == ["u1", "u2"]
    assert trajs[0].t.tolist() == [50, 100]
    assert trajs[0].lat.tolist() == [45.1, 45.0]
    assert trajs[1].t.tolist() == [50, 150]
    assert rep.rows_read == 4 and rep.points_kept == 4 and not rep.rejects


def test_csv_out_of_range_latitude_names_line(tmp_path):
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,1\nu1,95.0,7.0,2\n")
    with pytest.raises(IngestError, match="line 2"):
        parse_raw_with_report(p, CSV_CFG)


def test_csv_malformed_number_names_line(tmp_path):
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,1\nu1,oops,7.0,2\n")
    with pytest.raises(IngestError, match="line 2"):
        parse_raw_with_report(p, CSV_CFG)


def test_row_accounting_identity(tmp_path):
    # blank line and a duplicate timestamp both end up in rejects
    p = write(
        tmp_path,
        "in.csv",
        "u1,45.0,7.0,1\n\nu1,45.1,7.1,1\nu1,45.2,7.2,2\n",
    )
    trajs, rep = parse_raw_with_report(p, CSV_CFG)
    assert rep.rows_read == rep.points_kept + len(rep.rejects)
    assert rep.points_kept == 2
    assert len(rep.rejects) == 2


def test_dedup_error_policy(tmp_path):
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,1\nu1,45.1,7.1,1\n")
    cfg = IngestConfig(format="csv_gps", dedup_policy="error")
    with pytest.raises(IngestError, match="duplicate timestamp"):
        parse_raw_with_report(p, cfg)


def test_csv_duplicate_reject_names_its_source_line(tmp_path):
    # the leading blank line is line 1, so the duplicate sits on line 3
    p = write(tmp_path, "in.csv",
              "\nu1,45.0,7.0,1\nu1,45.1,7.1,1\nu1,45.2,7.2,2\n")
    _, rep = parse_raw_with_report(p, CSV_CFG)
    assert rep.rejects == (
        (1, "blank line"), (3, "duplicate timestamp for user u1"),
    )


def test_plt_duplicate_reject_names_its_source_line(tmp_path):
    lines = ["hdr"] * 6 + [
        "39.9,116.3,0,120,25569.5,1970-01-01,12:00:00",
        "39.91,116.31,0,120,25569.5,1970-01-01,12:00:00",
    ]
    p = write(tmp_path, "007.plt", "\n".join(lines) + "\n")
    _, rep = parse_raw_with_report(p, IngestConfig(format="plt_geolife_like"))
    assert rep.rejects == tuple((i, "header") for i in range(1, 7)) + (
        (8, "duplicate timestamp for user 007"),
    )


def test_dedup_error_names_the_source_line(tmp_path):
    p = write(tmp_path, "in.csv",
              "\nu1,45.0,7.0,1\nu2,46.0,8.0,1\nu1,45.1,7.1,1\n")
    cfg = IngestConfig(format="csv_gps", dedup_policy="error")
    with pytest.raises(IngestError, match="^line 4: duplicate timestamp 1"):
        parse_raw_with_report(p, cfg)


def test_custom_column_map_ignores_extra_columns(tmp_path):
    p = write(tmp_path, "in.csv", "x,9,u1,45.0,7.0,100,extra\n")
    cfg = IngestConfig(
        format="csv_gps", column_map={"user": 2, "lat": 3, "lon": 4, "t": 5}
    )
    trajs, _ = parse_raw_with_report(p, cfg)
    assert trajs[0].user_id == "u1"
    assert trajs[0].lat[0] == 45.0


def test_tz_offset_applied(tmp_path):
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,100\n")
    cfg = IngestConfig(format="csv_gps", tz_offset_seconds=-3600)
    trajs, _ = parse_raw_with_report(p, cfg)
    assert trajs[0].t[0] == 100 - 3600
    lines = ["hdr"] * 6 + ["39.9,116.3,0,120,25569.5,1970-01-01,12:00:00"]
    p = write(tmp_path, "007.plt", "\n".join(lines) + "\n")
    cfg = IngestConfig(format="plt_geolife_like", tz_offset_seconds=7200)
    trajs, _ = parse_raw_with_report(p, cfg)
    assert trajs[0].t.tolist() == [43200 + 7200]


def test_csv_integer_timestamps_read_exactly(tmp_path):
    # nanosecond epochs lie beyond 2**53, where a float would round them
    # together; a fractional t is still truncated
    t = 1262304000123456789
    p = write(tmp_path, "in.csv", f"u1,45.0,7.0,{t}\nu1,45.0,7.0,{t + 1}\n"
              f"u1,45.0,7.0,{t + 210}\nu1,45.0,7.0,99.9\n")
    trajs, rep = parse_raw_with_report(p, CSV_CFG)
    assert trajs[0].t.tolist() == [99, t, t + 1, t + 210]
    assert rep.rejects == ()


def test_plt_header_and_epoch(tmp_path):
    # 6 header lines, then daynum 25569.5 = 1970-01-01 12:00:00 UTC
    lines = ["hdr"] * 6 + [
        "39.9,116.3,0,120,25569.5,1970-01-01,12:00:00",
        "39.91,116.31,0,120,25569.75,1970-01-01,18:00:00",
    ]
    p = write(tmp_path, "007.plt", "\n".join(lines) + "\n")
    trajs, rep = parse_raw_with_report(
        p, IngestConfig(format="plt_geolife_like")
    )
    assert trajs[0].user_id == "007"
    assert trajs[0].t.tolist() == [43200, 64800]
    assert rep.rows_read == 8 and rep.points_kept == 2


def test_empty_file_is_error(tmp_path):
    p = write(tmp_path, "in.csv", "")
    with pytest.raises(IngestError, match="empty"):
        parse_raw_with_report(p, CSV_CFG)


def test_symbols_jsonl_roundtrip(tmp_path):
    p = write(
        tmp_path,
        "sym.jsonl",
        json.dumps({"user_id": "a", "symbols": [[0, 1], [0, 2], [2, 3]]})
        + "\n"
        + json.dumps({"user_id": "b", "symbols": [[1, 1], [2, 2]]})
        + "\n",
    )
    ds = load_symbols_jsonl(p, name="sym")
    assert isinstance(ds, Dataset)
    assert ds.alphabet.size == 3
    # collapse applied: a's duplicate 0 run is shortened
    assert ds.sequences[0].poi_ids.tolist() == [0, 2]


def test_symbols_jsonl_rejected_by_parse_raw(tmp_path):
    p = write(tmp_path, "sym.jsonl", "{}\n")
    with pytest.raises(IngestError, match="load_symbols_jsonl"):
        parse_raw_with_report(p, IngestConfig(format="symbols_jsonl"))


def test_save_load_dataset_roundtrip(tmp_path):
    ds = make_dataset({"a": [0, 1, 2, 0], "b": [2, 0]})
    save_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert loaded == ds
    assert loaded.name == ds.name


def test_save_dataset_idempotent_bytes(tmp_path):
    ds = make_dataset({"a": [0, 1, 2, 0]})
    save_dataset(ds, tmp_path / "d")
    first = {
        f.name: f.read_bytes() for f in sorted((tmp_path / "d").iterdir())
    }
    save_dataset(ds, tmp_path / "d")
    second = {
        f.name: f.read_bytes() for f in sorted((tmp_path / "d").iterdir())
    }
    assert first == second


def test_load_dataset_missing_alphabet(tmp_path):
    (tmp_path / "d").mkdir()
    with pytest.raises(IngestError, match="missing alphabet.json"):
        load_dataset(tmp_path / "d")


def test_load_dataset_schema_version_mismatch(tmp_path):
    ds = make_dataset({"a": [0, 1]})
    save_dataset(ds, tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    meta["schema_version"] = 99
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(IngestError, match="schema_version"):
        load_dataset(tmp_path / "d")


def test_save_load_raw_roundtrip(tmp_path):
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,1\nu1,45.1,7.1,2\n")
    trajs, _ = parse_raw_with_report(p, CSV_CFG)
    save_raw(trajs, tmp_path / "raw", "test")
    loaded = load_raw(tmp_path / "raw")
    assert loaded == trajs


def test_dataset_digest_matches_disk_content(tmp_path):
    ds = make_dataset({"a": [0, 1, 2], "b": [1, 0]})
    save_dataset(ds, tmp_path / "d")
    d1 = dataset_digest(tmp_path / "d")
    files = [(tmp_path / "d" / f).read_bytes()
             for f in ("alphabet.json", "sequences.jsonl")]
    assert d1 == "sha256:" + hashlib.sha256(b"".join(files)).hexdigest()
    # a saved reload writes the same bytes, so the digest is the dataset's
    save_dataset(load_dataset(tmp_path / "d"), tmp_path / "again")
    assert dataset_digest(tmp_path / "again") == d1
    save_dataset(make_dataset({"a": [0, 1, 2], "b": [1, 2]}), tmp_path / "o")
    assert dataset_digest(tmp_path / "o") != d1


def test_hand_edited_directory_hashes_its_own_bytes(tmp_path):
    # the same dataset with other whitespace loads equal but hashes apart
    ds = make_dataset({"a": [0, 1, 2]})
    save_dataset(ds, tmp_path / "d")
    seq = tmp_path / "d" / "sequences.jsonl"
    digest = dataset_digest(tmp_path / "d")
    seq.write_text(seq.read_text() + "\n")
    assert load_dataset(tmp_path / "d") == ds
    assert dataset_digest(tmp_path / "d") != digest


def test_digest_and_raw_bytes_pinned(tmp_path):
    # captured before sequences and trajectories became numpy columns: the
    # digest and the saved bytes must not depend on the in-memory layout
    ds, _ = generate(SourceSpec(kind="copy_with_gap", gap=3, eps=0.1,
                                n_symbols=500, n_users=3, seed=11))
    digest = ("sha256:90109278ba519f5fa8b7e89fc6e5d47a"
              "759c8976ac5ab04d968970d692070bd2")
    save_dataset(ds, tmp_path / "d")
    assert dataset_digest(tmp_path / "d") == digest
    save_dataset(load_dataset(tmp_path / "d"), tmp_path / "again")
    assert dataset_digest(tmp_path / "again") == digest

    rng = np.random.default_rng(5)
    lines = []
    for i in range(400):
        u = int(rng.integers(3))
        lat = 39.9 + rng.normal(0, 0.01)
        lon = 116.38 + rng.normal(0, 0.01)
        lines.append(f"u{u},{lat!r},{lon!r},{1_262_304_000 + 30 * i}\n")
    trajs, _ = parse_raw_with_report(
        write(tmp_path, "gps.csv", "".join(lines)), CSV_CFG
    )
    save_raw(trajs, tmp_path / "raw", "pin")
    raw = (tmp_path / "raw" / "raw.jsonl").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == (
        "ee9fa7f8d70be6d739769e6e6a98e42f213cffdfc1d525a9c7f784ba6ba552d4"
    )
    assert load_raw(tmp_path / "raw") == trajs


BIG = 2**63

BAD_SYMBOLS = {
    "poi_id beyond int64": [[BIG, 1], [0, 2]],
    "timestamp beyond int64": [[0, 1], [1, 4 * BIG]],
    "float timestamp beyond int64": [[0, 1], [1, 1e30]],
    "row of three values": [[0, 1], [1, 2, 3]],
    "not a list of rows": 7,
    "null value": [[0, 1], [None, 2]],
    "non-ascending timestamps": [[0, 5], [1, 3]],
    "empty": [],
}


@pytest.mark.parametrize("symbols", BAD_SYMBOLS.values(), ids=BAD_SYMBOLS)
def test_bad_sequences_line_is_named(tmp_path, symbols):
    save_dataset(make_dataset({"a": [0, 1], "b": [1, 0]}), tmp_path / "d")
    path = tmp_path / "d" / "sequences.jsonl"
    first = path.read_text().splitlines()[0]
    bad = json.dumps({"user_id": "b", "symbols": symbols})
    path.write_text(first + "\n" + bad + "\n")
    with pytest.raises(IngestError, match="sequences.jsonl line 2"):
        load_dataset(tmp_path / "d")
    # load_symbols_jsonl collapses runs, and rejects everything else
    src = write(tmp_path, "sym.jsonl", first + "\n" + bad + "\n")
    with pytest.raises(IngestError, match="sym.jsonl line 2"):
        load_symbols_jsonl(src, name="sym")


def test_self_transition_on_disk_is_named(tmp_path):
    save_dataset(make_dataset({"a": [0, 1]}), tmp_path / "d")
    (tmp_path / "d" / "sequences.jsonl").write_text(
        json.dumps({"user_id": "a", "symbols": [[0, 1], [0, 2]]}) + "\n"
    )
    with pytest.raises(IngestError, match="line 1: .*self-transition"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("point", [
    [45.0, 7.0, BIG], [45.0, 7.0, 1e30], [95.0, 7.0, 3], [45.0, 7.0],
    [45.0, None, 3], [45.0, 7.0, 1],
])
def test_bad_raw_line_is_named(tmp_path, point):
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,1\nu1,45.1,7.1,2\n")
    trajs, _ = parse_raw_with_report(p, CSV_CFG)
    save_raw(trajs, tmp_path / "raw", "test")
    path = tmp_path / "raw" / "raw.jsonl"
    bad = json.dumps({"user_id": "u2", "points": [[45.0, 7.0, 1], point]})
    path.write_text(path.read_text() + bad + "\n")
    with pytest.raises(IngestError, match="raw.jsonl line 2"):
        load_raw(tmp_path / "raw")


RAW_NOT_NUMBERS = {
    "fractional t": ([45.0, 7.0, 2.5], "t 2.5 is not an integer"),
    "string t": ([45.0, 7.0, "3"], 't "3" is not an integer'),
    "boolean lat": ([True, 7.0, 3], "lat true is not a number"),
    "string lat": (["45", 7.0, 3], 'lat "45" is not a number'),
    "boolean lon": ([45.0, False, 3], "lon false is not a number"),
    "boolean t": ([45.0, 7.0, True], "t true is not an integer"),
    "null t": ([45.0, 7.0, None], "t null is not an integer"),
}


@pytest.mark.parametrize("point, named", RAW_NOT_NUMBERS.values(),
                         ids=RAW_NOT_NUMBERS)
def test_raw_value_of_wrong_type_is_named(tmp_path, point, named):
    # each of these once loaded coerced: t 2.5 as 2, "3" as 3, true as 1.0
    p = write(tmp_path, "in.csv", "u1,45.0,7.0,1\nu1,45.1,7.1,2\n")
    save_raw(parse_raw_with_report(p, CSV_CFG)[0], tmp_path / "raw", "test")
    path = tmp_path / "raw" / "raw.jsonl"
    bad = json.dumps({"user_id": "u2", "points": [[45.0, 7.0, 1], point]})
    path.write_text(path.read_text() + bad + "\n")
    with pytest.raises(IngestError, match=f"raw.jsonl line 2: {named}"):
        load_raw(tmp_path / "raw")


def test_raw_whole_numbers_load_in_either_form(tmp_path):
    # integer lat/lon and whole-float t load; a user_id holding "true"
    # sends the line through the value-by-value check, which agrees
    save_raw([], tmp_path / "raw", "test")
    path = tmp_path / "raw" / "raw.jsonl"
    points = [[45, 7, 1.0], [45.5, 7.25, 2], [46, 8.0, 3.0e0]]
    path.write_text("".join(
        json.dumps({"user_id": user, "points": points}) + "\n"
        for user in ("packed", "true")
    ))
    for traj in load_raw(tmp_path / "raw"):
        assert traj.lat.tolist() == [45.0, 45.5, 46.0]
        assert traj.lon.tolist() == [7.0, 7.25, 8.0]
        assert traj.t.tolist() == [1, 2, 3]
        assert traj.lat.dtype == "float64" and traj.t.dtype == "int64"


@pytest.mark.parametrize("t", ["1e30", "inf", "nan", str(BIG)])
def test_csv_timestamp_beyond_int64_names_line(tmp_path, t):
    p = write(tmp_path, "in.csv", f"u1,45.0,7.0,1\nu1,45.0,7.0,{t}\n")
    with pytest.raises(IngestError, match="line 2"):
        parse_raw_with_report(p, CSV_CFG)


@pytest.mark.parametrize("name, text", [
    ("alphabet.json", '[{"lat": 0.0, "lon": 0.0}]'),
    ("alphabet.json", "[[0, 0.0, 0.0]]"),
    ("alphabet.json", '[{"poi_id": 0, "lat": 1e999, "lon": 0.0}]'),
    ("alphabet.json", "{"),
    ("meta.json", "nope"),
    ("meta.json", "[1]"),
])
def test_corrupt_dataset_file_is_named(tmp_path, name, text):
    save_dataset(make_dataset({"a": [0, 1]}), tmp_path / "d")
    (tmp_path / "d" / name).write_text(text)
    with pytest.raises(IngestError, match=name):
        load_dataset(tmp_path / "d")


# JSON values of every kind a row may hold; numbers are listed more than
# once so that many lines are all numbers and take the packed path
JSON_VALUES = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000).map(float),
    st.floats(-1e3, 1e3),
    st.integers(-1000, 1000),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 9), max_size=3),
)


@st.composite
def json_lines(draw):
    """(rows, fields, line): the rows of a JSON line as json.loads reads
    them, one of the two field tables, and the line's text; the user_id
    puts true or false in some texts whose rows hold no boolean."""
    fields = draw(st.sampled_from([_SYMBOL_FIELDS, _POINT_FIELDS]))
    width = len(fields)
    row = st.lists(JSON_VALUES, min_size=width, max_size=width)
    rows = draw(st.one_of(
        st.lists(row, max_size=6),
        st.lists(row | st.lists(JSON_VALUES, max_size=width + 1),
                 max_size=4),
        st.sampled_from([7, None, "ab", {"ab": 1, "cd": 2}]),
    ))
    user = draw(st.sampled_from(["u", "true", "false"]))
    line = json.dumps({"user_id": user, "rows": rows})
    return json.loads(line)["rows"], fields, line


@seed(20261020)
@settings(max_examples=500, deadline=None)
@given(json_lines())
@example(([[0, True]], _SYMBOL_FIELDS, '{"symbols": [[0, true]]}'))
@example(([[False, 7.0, 3]], _POINT_FIELDS, '{"points": [[false, 7.0, 3]]}'))
@example(([[0, 2**63]], _SYMBOL_FIELDS, "[[0, 9223372036854775808]]"))
@example(([[0, 1e30]], _SYMBOL_FIELDS, "[[0, 1e30]]"))
@example(([[10**400, 7, 3]], _POINT_FIELDS, "[[1e400]]"))
@example(([[0, 1.0], [2, 3]], _SYMBOL_FIELDS, "[[0, 1.0], [2, 3]]"))
@example(([[45, 7.5, 3]], _POINT_FIELDS, '{"user_id": "true"}'))
@example((["ab"], _SYMBOL_FIELDS, '["ab"]'))
@example(([], _POINT_FIELDS, "[]"))
def test_columns_equal_the_value_by_value_oracle(case):
    # the packed path may take no value that the check refuses: either
    # both read the same columns or both refuse the line the same way
    rows, fields, line = case
    try:
        want = columns_by_value(rows, fields)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            _columns(rows, fields, line)
        assert str(got.value) == str(e)
    except OverflowError as e:
        with pytest.raises(OverflowError, match=f"^{e}: "):
            _columns(rows, fields, line)
    else:
        got = _columns(rows, fields, line)
        assert [c.dtype for c in got] == [np.dtype(code) for _, code in fields]
        assert [c.tolist() for c in got] == want
