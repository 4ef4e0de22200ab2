import json
import math
from pathlib import Path
from unittest.mock import patch

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobmeta.characterize import characterize
from mobmeta.core import DataError
from mobmeta.jsonutil import write_canonical_json
from mobmeta import report
from mobmeta.predictors import PredictorSpec
from mobmeta.report import (
    FOLDS_CSV_COLUMNS,
    _csv_blocks,
    _write_csv,
    build_summary,
    bundle_report,
    dataset_summary_row,
    granularity,
    stats_table,
    write_compression_csv,
    write_corr_matrix_csv,
    write_fold_curve_csv,
    write_folds_csv,
    write_match_structure_csv,
    write_mi_curve_csv,
    write_sensitivity_csv,
)
from mobmeta.validation import (
    SensitivityRow,
    ValidationPlan,
    evaluate,
)
from conftest import make_dataset
from oracles import write_csv_cell_by_cell

SUMMARY_SCHEMA = json.loads(
    (
        Path(__file__).resolve().parents[1]
        / "src" / "mobmeta" / "schemas" / "summary.schema.json"
    ).read_text()
)


def small_dataset():
    return make_dataset(
        {"a": [0, 1, 2] * 40, "b": [2, 0, 1] * 40, "c": [1, 2, 0] * 40},
        n_pois=3,
    )


def test_mi_curve_csv_exact_bytes(tmp_path):
    p = tmp_path / "mi.csv"
    write_mi_curve_csv(p, [(1, 0.5), (2, 0.25)])
    assert p.read_text() == "d,I_bits\n1,0.5\n2,0.25\n"


def test_match_structure_csv_log_delta(tmp_path):
    p = tmp_path / "ms.csv"
    pos, length, delta = np.array([[5, 2, 100], [7, 1, 1], [9, 4, 3]]).T
    write_match_structure_csv(p, pos, length, delta)
    lines = p.read_text().splitlines()
    assert lines[0] == "pos,L,log10_delta"
    assert lines[1] == "5,2,2.0"
    # delta 1, an adjacent repeat, logs as log10(1)
    assert lines[2] == "7,1,0.0"
    assert lines[3] == f"9,4,{math.log10(3)!r}"
    chunked = tmp_path / "chunked.csv"
    with patch.object(report, "_CSV_CHUNK_ROWS", 2):
        write_match_structure_csv(chunked, pos, length, delta)
    assert chunked.read_bytes() == p.read_bytes()
    write_csv_cell_by_cell(
        tmp_path / "want.csv", ["pos", "L", "log10_delta"],
        [(int(a), int(b), math.log10(c)) for a, b, c in zip(pos, length, delta)],
    )
    assert p.read_bytes() == (tmp_path / "want.csv").read_bytes()


# the digit-count boundaries 9|10, 99|100, ... up to int64's largest
BOUNDARIES = sorted({v for k in range(1, 19) for v in (10**k - 1, 10**k)}
                    | {0, 2**31 - 1, 2**31, 2**31 + 1, 2**63 - 1})


def match_tables():
    rng = np.random.default_rng(5)
    n = len(BOUNDARIES)
    many = rng.integers(1, 2000, size=3000)
    return {
        "no-rows": np.zeros((0, 3), dtype=np.int64),
        "one-row": np.array([[0, 1, 1]]),
        "digit-boundaries": np.column_stack([
            BOUNDARIES, BOUNDARIES[::-1], np.arange(1, n + 1)]),
        "adjacent-repeats": np.column_stack([
            np.arange(40), np.arange(40) % 3 + 1, np.ones(40, dtype=np.int64)]),
        "many-deltas": np.column_stack([
            rng.integers(0, 10**6, size=3000), rng.integers(1, 120, size=3000),
            many]),
    }


@pytest.mark.parametrize("chunk_rows", [4096, 2, 3])
@pytest.mark.parametrize("name", list(match_tables()))
def test_match_structure_csv_equals_cell_by_cell(tmp_path, name, chunk_rows):
    # the kernel against one repr'd cell at a time; columns passed as
    # strided views of an (n, 3) table, as characterize passes them
    triples = match_tables()[name].astype(np.int64)
    with patch.object(report, "_CSV_CHUNK_ROWS", chunk_rows):
        write_match_structure_csv(tmp_path / "got.csv", *triples.T)
    write_csv_cell_by_cell(
        tmp_path / "want.csv", ["pos", "L", "log10_delta"],
        [(p, length, math.log10(d)) for p, length, d in triples.tolist()],
    )
    assert (tmp_path / "got.csv").read_bytes() == (
        tmp_path / "want.csv").read_bytes()


def test_corr_matrix_csv(tmp_path):
    p = tmp_path / "corr.csv"
    write_corr_matrix_csv(p, ["x", "y"], [[1.0, -0.5], [-0.5, 1.0]])
    lines = p.read_text().splitlines()
    assert lines[0] == "attribute,x,y"
    assert lines[1] == "x,1.0,-0.5"


def test_folds_csv_columns(tmp_path):
    res = evaluate(
        small_dataset(),
        PredictorSpec(kind="markov_k", k=1),
        ValidationPlan("block_rolling", k=5, p=1),
    )
    p = tmp_path / "folds.csv"
    write_folds_csv(p, res.folds)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(FOLDS_CSV_COLUMNS)
    assert len(lines) == 1 + len(res.folds)
    assert lines[1].startswith("a,0,0,24,24,48,")
    assert lines[1].endswith(",24,false")


def test_fold_curve_and_compression_csv(tmp_path):
    res = evaluate(
        small_dataset(),
        PredictorSpec(kind="markov_k", k=1),
        ValidationPlan("block_rolling", k=5, p=1),
    )
    fc = tmp_path / "fc.csv"
    write_fold_curve_csv(fc, [res.to_dict()])
    lines = fc.read_text().splitlines()
    assert lines[0] == "model,plan,fold,accuracy"
    assert len(lines) == 5  # 4 folds
    cc = tmp_path / "cc.csv"
    write_compression_csv(cc, [res.to_dict()])
    assert cc.read_text().splitlines()[1].startswith(
        "markov_1,block_rolling:k=5,p=1,"
    )


def test_sensitivity_csv_none_prints_na(tmp_path):
    rows = [
        SensitivityRow("holdout", "split=0.8", 0.5, 0.5, True),
        SensitivityRow("kfold", "k=3,shuffled=true", 0.25, 0.25, True),
    ]
    p = tmp_path / "s.csv"
    write_sensitivity_csv(p, rows)
    lines = p.read_text().splitlines()
    assert lines[1] == "holdout,split=0.8,0.5,0.5,true"


CELLS = {
    "int": st.integers(-10**20, 10**20),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(st.characters(blacklist_characters=",\n\r"), max_size=5),
    "np_int": st.integers(-10**6, 10**6).map(np.int64),
    "np_float": st.floats(-1e6, 1e6).map(np.float64),
}


@st.composite
def csv_tables(draw):
    # each column is one cell type or a mix of them
    kinds = [
        draw(st.sets(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3))
        for _ in range(draw(st.integers(1, 5)))
    ]
    n_rows = draw(st.integers(0, 8))
    columns = [
        [draw(st.one_of([CELLS[k] for k in sorted(ks)]))
         for _ in range(n_rows)]
        for ks in kinds
    ]
    header = [f"c{j}" for j in range(len(kinds))]
    return header, [tuple(row) for row in zip(*columns)]


@settings(max_examples=100, deadline=None)
@given(csv_tables())
def test_write_csv_equals_cell_by_cell(tmp_path_factory, table):
    # the row formatter every small writer uses, written in chunks
    header, rows = table
    d = tmp_path_factory.mktemp("csv")
    try:
        write_csv_cell_by_cell(d / "want.csv", header, rows)
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 bytes
        with pytest.raises(UnicodeEncodeError):
            _write_csv(d / "got.csv", header, _csv_blocks(rows))
        return
    with patch.object(report, "_CSV_CHUNK_ROWS", 3):
        _write_csv(d / "got.csv", header, _csv_blocks(rows))
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def test_write_csv_mixed_column_bytes(tmp_path):
    p = tmp_path / "m.csv"
    rows = [(1, None), (2.5, True), (False, 0.1)]
    _write_csv(p, ["a", "b"], _csv_blocks(rows))
    assert p.read_text() == "a,b\n1,n/a\n2.5,true\nfalse,0.1\n"
    write_csv_cell_by_cell(tmp_path / "want.csv", ["a", "b"], rows)
    assert p.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_granularity_medians():
    ds = make_dataset({"a": [0, 1, 2, 0]}, n_pois=3)
    gm, gs = granularity(ds)
    assert gs == 1.0
    # alphabet places poi i at lon 0.001*i on the equator; the id gaps
    # here are 1, 1, 2 so the median is one lon step
    assert gm == pytest.approx(111.0, abs=1.0)


def test_granularity_empty():
    assert granularity(make_dataset({"a": [0]}, n_pois=2)) == (None, None)


def paper_style_rows():
    return [
        {
            "name": "alpha", "n_users": 100, "span_months": 15.0,
            "traj_length_total": 1_560_000, "n_pois": 2651,
            "granularity_m": 246.0, "granularity_s": 24.0,
            "entropy_bits_mean": 7.63, "predictability_mean": 0.7646,
        },
        {
            "name": "beta", "n_users": 191, "span_months": 24.0,
            "traj_length_total": 685_510, "n_pois": 2087,
            "granularity_m": None, "granularity_s": None,
            "entropy_bits_mean": 6.08, "predictability_mean": 0.8323,
        },
    ]


def test_stats_table_layout():
    table = stats_table(paper_style_rows())
    lines = table.splitlines()
    assert lines[0].split() == [
        "dataset", "#users", "#months", "traj.", "length", "POIs",
        "granularity", "entropy", "predictability",
    ]
    assert set(lines[1]) <= {"-", " "}
    assert "246m / 24s" in lines[2]
    assert "0.7646" in lines[2]
    assert "n/a" in lines[3]
    # columns align: every dash group starts where its header starts
    assert len(lines[1]) <= len(lines[0]) + 2
    assert table.endswith("\n")


def test_summary_marks_absent_sections():
    ds = small_dataset()
    ch = characterize(ds, 3)
    summary = build_summary(ds, ch)
    assert summary["validation"] == {"present": False, "results": []}
    assert summary["recommendation"] == {"present": False, "result": None}
    assert summary["sensitivity"] == {"present": False, "rows": []}
    jsonschema.validate(summary, SUMMARY_SCHEMA)


@pytest.fixture()
def bundle_inputs(tmp_path):
    ds = small_dataset()
    ch = characterize(ds, 3)
    res = evaluate(
        ds,
        PredictorSpec(kind="markov_k", k=1),
        ValidationPlan("block_rolling", k=5, p=1),
    )
    rec = {
        "verdict": "markov_class", "fired_rule": "R1",
        "rationale": "", "derived": {}, "trace": [],
    }
    sens = {
        "model": "markov_1",
        "rows": [
            {
                "scheme": "holdout", "params": "split=0.8",
                "accuracy_user_mean": 1.0, "accuracy_weighted": 1.0,
                "leaky": True,
            }
        ],
    }
    write_canonical_json(tmp_path / "report.json", ch.to_dict())
    write_canonical_json(tmp_path / "results.json", res.to_dict())
    write_canonical_json(tmp_path / "recommendation.json", rec)
    write_canonical_json(tmp_path / "sensitivity.json", sens)
    return ds, tmp_path


def test_bundle_report_full(bundle_inputs):
    ds, tp = bundle_inputs
    out = tp / "bundle"
    summary = bundle_report(
        ds, out, tp / "report.json", [tp / "results.json"],
        tp / "recommendation.json", tp / "sensitivity.json",
    )
    for name in (
        "summary.json", "table.txt", "mi_curve.csv", "fold_curve.csv",
        "compression.csv",
    ):
        assert (out / name).is_file()
    jsonschema.validate(
        json.loads((out / "summary.json").read_text()), SUMMARY_SCHEMA
    )
    assert summary["validation"]["present"] is True
    table = (out / "table.txt").read_text()
    assert "markov_1 under block_rolling:k=5,p=1" in table
    assert "weighted 1.0000" in table


def test_bundle_report_no_validation(bundle_inputs):
    ds, tp = bundle_inputs
    out = tp / "bundle2"
    bundle_report(ds, out, tp / "report.json")
    table = (out / "table.txt").read_text()
    assert "accuracy: absent (no validation results)" in table
    assert (out / "fold_curve.csv").read_text() == "model,plan,fold,accuracy\n"


def test_bundle_report_missing_inputs_named(bundle_inputs):
    ds, tp = bundle_inputs
    with pytest.raises(DataError) as exc:
        bundle_report(
            ds, tp / "b3", tp / "report.json",
            [tp / "results.json", tp / "nope.json"],
            tp / "missing_rec.json",
        )
    msg = str(exc.value)
    assert "missing report inputs" in msg
    assert "validation[1]" in msg and "recommendation" in msg
    assert "validation[0]" not in msg


def test_bundle_rerun_byte_identical(bundle_inputs):
    ds, tp = bundle_inputs
    args = (
        ds, tp / "b", tp / "report.json", [tp / "results.json"],
        tp / "recommendation.json", tp / "sensitivity.json",
    )
    bundle_report(*args)
    first = {
        p.name: p.read_bytes() for p in sorted((tp / "b").iterdir())
    }
    bundle_report(*args)
    second = {
        p.name: p.read_bytes() for p in sorted((tp / "b").iterdir())
    }
    assert first == second


def test_dataset_summary_row_keys():
    ds = small_dataset()
    ch = characterize(ds, 3)
    row = dataset_summary_row(ds, ch)
    assert row["name"] == "inline"
    assert row["n_users"] == 3
    assert row["traj_length_total"] == 360
    assert math.isfinite(row["granularity_m"])
