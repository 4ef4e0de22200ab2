"""Report bundling: summary.json, plot-ready CSVs, and the stats table.

Figures are emitted as CSV plot data, never rendered images, so the
artifact stays dependency-free.  All writers produce canonical bytes
(sorted keys, fixed float repr via repr(), \n line endings) so reruns
on identical inputs are byte-identical.

Every CSV goes through `_write_csv`, which writes text blocks of whole
lines.  The small tables format one row at a time (`_csv_blocks`).
match_structure.csv, the one long table, is built by an array kernel
(`_match_blocks`): per chunk of rows, `pos` and `L` become ASCII digits
right-aligned in a uint8 matrix, each distinct delta's repr'd log10 is
gathered from a left-aligned byte table, and the comma and newline
columns sit beside them; dropping the 0 bytes that pad each cell leaves
the chunk's lines, the same bytes that formatting each row would write.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .characterize import MetaAttributeReport, read_report
from .core import DataError, Dataset
from .jsonutil import curve, is_number, read_json, write_canonical_json
from .poi import haversine_m
from .selector import Recommendation
from .validation import EvaluationResult, SensitivityRow

SUMMARY_SCHEMA_ID = "mobmeta.summary.v1"


def _fmt(v) -> str:
    """CSV cell: repr for floats keeps reruns byte-identical."""
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# Rows per block of text written: never a second copy of a long table in
# memory.  It also bounds the match_structure.csv kernel's temporaries,
# which hold one block's rows at a time.
_CSV_CHUNK_ROWS = 4096


def _write_csv(path: Path, header: Sequence[str], blocks: Iterable[str]) -> None:
    """The header, then each block: whole lines, each ending in a newline."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(blocks)


def _csv_blocks(rows: Iterable) -> Iterator[str]:
    """Each row as a line of _fmt'd cells, _CSV_CHUNK_ROWS lines to a block."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        yield "".join(",".join(map(_fmt, row)) + "\n" for row in chunk)


def write_mi_curve_csv(path: Union[str, Path], mi_curve) -> None:
    _write_csv(Path(path), ["d", "I_bits"], _csv_blocks(mi_curve))


def _ascii_digits(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as ASCII digits, right-aligned in a uint8
    matrix as wide as the largest has digits; 0 bytes pad on the left."""
    top = int(values.max())
    q = values.astype(np.int32 if top < 2**31 else np.int64)
    width = len(str(top))
    digits = np.empty((len(q), width), np.uint8)
    for j in reversed(range(width)):
        higher = q // 10
        digits[:, j] = q - 10 * higher + ord("0")
        if j < width - 1:
            digits[:, j] *= q > 0  # left of the value's first digit
        q = higher
    return digits


def _match_blocks(pos: np.ndarray, length: np.ndarray,
                  delta: np.ndarray) -> Iterator[str]:
    """The lines "pos,L,log10_delta", _CSV_CHUNK_ROWS rows to a block."""
    present = np.bincount(delta) > 0
    distinct = np.flatnonzero(present).tolist()
    text = np.array([repr(math.log10(d)) for d in distinct], dtype=bytes)
    table = text.view(np.uint8).reshape(-1, text.itemsize)
    rank = np.cumsum(present) - 1  # delta -> its row of table
    for lo in range(0, len(delta), _CSV_CHUNK_ROWS):
        rows = slice(lo, lo + _CSV_CHUNK_ROWS)
        d = delta[rows]
        comma = np.full((len(d), 1), ord(","), np.uint8)
        block = np.concatenate([
            _ascii_digits(pos[rows]), comma, _ascii_digits(length[rows]),
            comma, table[rank[d]], np.full_like(comma, ord("\n")),
        ], axis=1)
        yield block[block != 0].tobytes().decode("ascii")


def write_match_structure_csv(
    path: Union[str, Path], pos, length, delta
) -> None:
    """Rows (pos, L, log10_delta) from match_structure's three columns.

    delta is the smallest positive back-shift, so an adjacent repeat
    (delta 1) logs as 0.0.  pos and L are written as integers and
    log10(delta) as its repr.  The rows are built _CSV_CHUNK_ROWS at a
    time by an array kernel (`_match_blocks`): the digits of pos and L,
    each distinct delta's text (formatted once) gathered by rank, and the
    separators, as one uint8 matrix whose 0-byte padding is dropped.
    """
    pos, length, delta = (np.asarray(c, np.int64) for c in (pos, length, delta))
    _write_csv(Path(path), ["pos", "L", "log10_delta"],
               _match_blocks(pos, length, delta))


def write_corr_matrix_csv(
    path: Union[str, Path], names: Sequence[str], matrix
) -> None:
    rows = ([name] + [float(matrix[i][j]) for j in range(len(names))]
            for i, name in enumerate(names))
    _write_csv(Path(path), ["attribute"] + list(names), _csv_blocks(rows))


FOLDS_CSV_COLUMNS = (
    "user_id", "fold", "train_lo", "train_hi", "test_lo", "test_hi",
    "accuracy", "bits_per_symbol", "n_predictions", "leaky",
)


def _write_records_csv(path: Union[str, Path], columns: Sequence[str],
                       records) -> None:
    """One row per record: its fields named by columns, in their order."""
    _write_csv(Path(path), columns,
               _csv_blocks(map(attrgetter(*columns), records)))


def write_folds_csv(path: Union[str, Path], results) -> None:
    """One row per FoldResult of EvaluationResult.folds."""
    _write_records_csv(path, FOLDS_CSV_COLUMNS, results)


def write_fold_curve_csv(path: Union[str, Path], results) -> None:
    """Accuracy-per-fold drift curves, one row per (model, plan, fold).

    results are results.json dicts (EvaluationResult.to_dict()).
    """
    rows = (
        (r["model"], r["plan"], f, acc)
        for r in results
        for f, acc in r.get("fold_curve", [])
    )
    _write_csv(Path(path), ["model", "plan", "fold", "accuracy"],
               _csv_blocks(rows))


def write_compression_csv(path: Union[str, Path], results) -> None:
    """bits/symbol per results.json dict; argmax-only models print n/a."""
    rows = (
        (r["model"], r["plan"], r.get("bits_weighted"), r.get("bits_user_mean"))
        for r in results
    )
    _write_csv(
        Path(path),
        ["model", "plan", "bits_weighted", "bits_user_mean"],
        _csv_blocks(rows),
    )


def write_sensitivity_csv(path: Union[str, Path], rows) -> None:
    """One row per SensitivityRow, every field in order."""
    _write_records_csv(path, [f.name for f in fields(SensitivityRow)], rows)


def granularity(ds: Dataset) -> tuple[Optional[float], Optional[float]]:
    """(median meters, median seconds) between consecutive symbols.

    Spatial spacing uses POI centroid distances; both medians are over
    all consecutive within-user pairs.  None when no user has two
    symbols.
    """
    gaps_s: list[float] = []
    gaps_m: list[float] = []
    entries = ds.alphabet.entries
    for seq in ds.sequences:
        ids, ts = seq.poi_ids.tolist(), seq.timestamps.tolist()
        for i in range(1, len(ids)):
            gaps_s.append(float(ts[i] - ts[i - 1]))
            a, b = entries[ids[i - 1]], entries[ids[i]]
            gaps_m.append(haversine_m(a.lat, a.lon, b.lat, b.lon))
    if not gaps_s:
        return None, None
    return statistics.median(gaps_m), statistics.median(gaps_s)


_TABLE_COLUMNS = (
    "dataset", "#users", "#months", "traj. length", "POIs", "granularity",
    "entropy", "predictability",
)


def stats_table(rows: Sequence[dict]) -> str:
    """Plain-text descriptive-statistics table, one row per dataset.

    Row dicts use the summary.json "dataset" keys; granularity prints as
    "Xm / Ys".
    """
    cells = [list(_TABLE_COLUMNS)]
    for r in rows:
        gm, gs = r.get("granularity_m"), r.get("granularity_s")
        gran = (
            f"{gm:.0f}m / {gs:.0f}s" if gm is not None and gs is not None
            else "n/a"
        )
        cells.append(
            [
                str(r["name"]),
                str(r["n_users"]),
                f"{r['span_months']:.1f}",
                str(r["traj_length_total"]),
                str(r["n_pois"]),
                gran,
                f"{r['entropy_bits_mean']:.2f}",
                f"{r['predictability_mean']:.4f}",
            ]
        )
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    lines = []
    for i, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def dataset_summary_row(ds: Dataset, report: MetaAttributeReport) -> dict:
    gm, gs = granularity(ds)
    return {
        "name": report.dataset_name,
        "n_users": report.n_users,
        "span_months": report.span_months,
        "traj_length_total": report.symbol_count_total,
        "n_pois": report.n_pois,
        "granularity_m": gm,
        "granularity_s": gs,
        "entropy_bits_mean": report.entropy_bits_mean,
        "predictability_mean": report.predictability_mean,
    }


def build_summary(
    ds: Dataset,
    report: MetaAttributeReport,
    validation: Optional[Sequence[dict]] = None,
    recommendation: Optional[dict] = None,
    sensitivity: Optional[Sequence[dict]] = None,
) -> dict:
    """The summary.json payload; absent sections are marked, not omitted."""
    return {
        "schema": SUMMARY_SCHEMA_ID,
        "dataset": dataset_summary_row(ds, report),
        "characterization": report.to_dict(),
        "validation": {
            "present": validation is not None,
            "results": list(validation) if validation is not None else [],
        },
        "recommendation": {
            "present": recommendation is not None,
            "result": recommendation,
        },
        "sensitivity": {
            "present": sensitivity is not None,
            "rows": list(sensitivity) if sensitivity is not None else [],
        },
    }


# The files bundle_report writes into its directory, in the order it
# writes them.  Other files already there are not the bundle's.
BUNDLE_FILES = ("summary.json", "table.txt", "mi_curve.csv",
                "fold_curve.csv", "compression.csv")


# The keys of a results.json that summary.schema.json requires.
_RESULTS_KEYS = ("model", "plan", "leaky", "accuracy_user_mean",
                 "accuracy_weighted", "n_predictions")


def _read_object(path: Path, what: str, keys: tuple) -> dict:
    """The JSON object in `path`, refused unless it has `keys`."""
    obj = read_json(path)
    if not (isinstance(obj, dict) and all(k in obj for k in keys)):
        raise DataError(f"{path}: not a {what}, which has the keys "
                        f"{', '.join(keys)}")
    return obj


def _list_of(kind: type):
    """The check that a JSON value is a list of `kind` values."""
    return lambda v: isinstance(v, list) and all(isinstance(e, kind)
                                                 for e in v)


# How a record field of each annotated type reads back from JSON: what it
# must be, and the check.  Every integer field of a record is a count.
_JSON_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("a non-negative integer", lambda v: isinstance(v, int)
            and not isinstance(v, bool) and v >= 0),
    "float": ("a number", is_number),
    "Optional[float]": ("a number or null",
                        lambda v: v is None or is_number(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "tuple[dict, ...]": ("a list of objects", _list_of(dict)),
    "tuple[FoldResult, ...]": ("a list of objects", _list_of(dict)),
    "tuple[str, ...]": ("a list of strings", _list_of(str)),
}


def _check_record(obj, record: type, what: str, path: Path,
                  at: str = "", required: Optional[tuple] = None) -> dict:
    """obj read from `path`, refused unless it holds the fields of the
    dataclass `record` named in `required` (by default every field), and
    each field it holds as JSON writes its type.  The message names the
    file, `at` (where in it obj is), and `what` obj should be or the
    field that is wrong."""
    if required is None:
        required = tuple(f.name for f in fields(record))
    if not (isinstance(obj, dict) and all(k in obj for k in required)):
        raise DataError(f"{path}: {at}not a {what}, which has the keys "
                        f"{', '.join(required)}")
    for f in fields(record):
        kind, ok = _JSON_KINDS[f.type]
        if f.name in obj and not ok(obj[f.name]):
            raise DataError(f"{path}: {at}{f.name} must be {kind}, "
                            f"got {obj[f.name]!r}")
    return obj


def _read_results(path: Path) -> dict:
    """A validate results.json, refused unless it has _RESULTS_KEYS, every
    `EvaluationResult` field it holds is of that field's type (a bits
    figure may be null, or absent when argmax-only) and, if any, a
    fold_curve of [fold, accuracy] pairs with an integer fold and a
    number accuracy."""
    obj = _check_record(read_json(path), EvaluationResult,
                        "validation results.json", path,
                        required=_RESULTS_KEYS)
    try:
        curve(obj.get("fold_curve", []), "fold_curve", "fold", "accuracy")
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
    return obj


def bundle_report(
    ds: Dataset,
    out_dir: Union[str, Path],
    characterization_path: Union[str, Path],
    validation_paths: Sequence[Union[str, Path]] = (),
    recommendation_path: Optional[Union[str, Path]] = None,
    sensitivity_path: Optional[Union[str, Path]] = None,
) -> dict:
    """Assemble the report directory from component outputs.

    Writes the files BUNDLE_FILES names: summary.json, table.txt,
    mi_curve.csv, fold_curve.csv and compression.csv.  Without validation
    results the two CSVs hold their header only, so no earlier run's rows
    are left beside a summary whose validation is absent.  Missing input
    files are collected and reported in one error, and every input is
    read and checked before the first file is written.
    """
    paths = {"characterization": Path(characterization_path)}
    for i, p in enumerate(validation_paths):
        paths[f"validation[{i}]"] = Path(p)
    if recommendation_path is not None:
        paths["recommendation"] = Path(recommendation_path)
    if sensitivity_path is not None:
        paths["sensitivity"] = Path(sensitivity_path)
    missing = sorted(name for name, p in paths.items() if not p.is_file())
    if missing:
        raise DataError(f"missing report inputs: {', '.join(missing)}")

    report = read_report(paths["characterization"])
    validation = [_read_results(paths[f"validation[{i}]"])
                  for i in range(len(validation_paths))] or None
    recommendation = (
        _check_record(read_json(paths["recommendation"]), Recommendation,
                      "recommendation.json", paths["recommendation"])
        if recommendation_path is not None else None
    )
    sensitivity = None
    if sensitivity_path is not None:
        path = paths["sensitivity"]
        sensitivity = _read_object(path, "sensitivity.json", ("rows",))["rows"]
        if not (isinstance(sensitivity, list)
                and all(isinstance(row, dict) for row in sensitivity)):
            raise DataError(f"{path}: not a sensitivity.json, whose rows are "
                            f"a list of objects")
        for i, row in enumerate(sensitivity):
            _check_record(row, SensitivityRow, "sensitivity row", path,
                          f"rows entry {i}: ")

    summary = build_summary(ds, report, validation, recommendation,
                            sensitivity)
    table = stats_table([summary["dataset"]])
    if validation is None:
        table += "\naccuracy: absent (no validation results)\n"
    else:
        table += "\naccuracy:\n"
        for v in validation:
            bw = v.get("bits_weighted")
            bits = "n/a" if bw is None else f"{bw:.4f}"
            table += (
                f"  {v['model']} under {v['plan']}: "
                f"user-mean {v['accuracy_user_mean']:.4f}, "
                f"weighted {v['accuracy_weighted']:.4f}, "
                f"bits/symbol {bits}\n"
            )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path, table_path, mi_path, fold_curve_path, compression_path = (
        out / name for name in BUNDLE_FILES)
    write_canonical_json(summary_path, summary)
    table_path.write_text(table, encoding="utf-8")

    write_mi_curve_csv(mi_path, report.mi_curve)
    write_fold_curve_csv(fold_curve_path, validation or [])
    write_compression_csv(compression_path, validation or [])
    return summary
