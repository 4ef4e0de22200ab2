"""Report bundling: summary.json, plot-ready CSVs, and the stats table.

Figures are emitted as CSV plot data, never rendered images, so the
artifact stays dependency-free.  All writers produce canonical bytes
(sorted keys, fixed float repr via repr(), \n line endings) so reruns
on identical inputs are byte-identical.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .characterize import report_from_dict
from .core import DataError, Dataset
from .jsonutil import is_number, read_json, write_canonical_json
from .poi import haversine_m
from .validation import SensitivityRow

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


def _fmt_row(row) -> str:
    """One CSV line (no line ending) of _fmt'd cells."""
    return ",".join(map(_fmt, row))


# Lines joined per write: never a second copy of a long table in memory.
_CSV_CHUNK_ROWS = 4096


def _write_csv(path: Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """The header, then each formatted line, each ending in a newline."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(lines, _CSV_CHUNK_ROWS)):
            f.write("\n".join(chunk) + "\n")


def write_mi_curve_csv(path: Union[str, Path], mi_curve) -> None:
    _write_csv(Path(path), ["d", "I_bits"], map(_fmt_row, mi_curve))


def write_match_structure_csv(
    path: Union[str, Path], pos, length, delta
) -> None:
    """Rows (pos, L, log10_delta) from match_structure's three columns.

    delta is the smallest positive back-shift, so an adjacent repeat
    (delta 1) logs as 0.0.  Each distinct delta is formatted once.
    """
    pos, length = np.asarray(pos), np.asarray(length)
    delta = np.asarray(delta, dtype=np.int64)
    distinct = np.flatnonzero(np.bincount(delta)).tolist()
    text = dict(zip(distinct, (repr(math.log10(d)) for d in distinct)))
    chunks = (slice(lo, lo + _CSV_CHUNK_ROWS)
              for lo in range(0, delta.shape[0], _CSV_CHUNK_ROWS))
    lines = itertools.chain.from_iterable(
        map("{},{},{}".format, pos[s].tolist(), length[s].tolist(),
            map(text.__getitem__, delta[s].tolist()))
        for s in chunks
    )
    _write_csv(Path(path), ["pos", "L", "log10_delta"], lines)


def write_corr_matrix_csv(
    path: Union[str, Path], names: Sequence[str], matrix
) -> None:
    lines = (
        _fmt_row([name] + [float(matrix[i][j]) for j in range(len(names))])
        for i, name in enumerate(names)
    )
    _write_csv(Path(path), ["attribute"] + list(names), lines)


FOLDS_CSV_COLUMNS = (
    "user_id", "fold", "train_lo", "train_hi", "test_lo", "test_hi",
    "accuracy", "bits_per_symbol", "n_predictions", "leaky",
)


def _write_records_csv(path: Union[str, Path], columns: Sequence[str],
                       records) -> None:
    """One row per record: its fields named by columns, in their order."""
    cells = attrgetter(*columns)
    _write_csv(Path(path), columns, (_fmt_row(cells(r)) for r in records))


def write_folds_csv(path: Union[str, Path], results) -> None:
    """One row per FoldResult of EvaluationResult.folds."""
    _write_records_csv(path, FOLDS_CSV_COLUMNS, results)


def write_fold_curve_csv(path: Union[str, Path], results) -> None:
    """Accuracy-per-fold drift curves, one row per (model, plan, fold).

    results are results.json dicts (EvaluationResult.to_dict()).
    """
    lines = (
        _fmt_row((r["model"], r["plan"], f, acc))
        for r in results
        for f, acc in r.get("fold_curve", [])
    )
    _write_csv(Path(path), ["model", "plan", "fold", "accuracy"], lines)


def write_compression_csv(path: Union[str, Path], results) -> None:
    """bits/symbol per results.json dict; argmax-only models print n/a."""
    lines = (
        _fmt_row((r["model"], r["plan"], r.get("bits_weighted"),
                  r.get("bits_user_mean")))
        for r in results
    )
    _write_csv(
        Path(path),
        ["model", "plan", "bits_weighted", "bits_user_mean"],
        lines,
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


def dataset_summary_row(ds: Dataset, characterization: dict) -> dict:
    gm, gs = granularity(ds)
    return {
        "name": characterization["dataset_name"],
        "n_users": characterization["n_users"],
        "span_months": characterization["span_months"],
        "traj_length_total": characterization["symbol_count"]["total"],
        "n_pois": characterization["n_pois"],
        "granularity_m": gm,
        "granularity_s": gs,
        "entropy_bits_mean": characterization["entropy_bits"]["mean"],
        "predictability_mean": characterization["predictability"]["mean"],
    }


def build_summary(
    ds: Dataset,
    characterization: dict,
    validation: Optional[Sequence[dict]] = None,
    recommendation: Optional[dict] = None,
    sensitivity: Optional[Sequence[dict]] = None,
) -> dict:
    """The summary.json payload; absent sections are marked, not omitted."""
    return {
        "schema": SUMMARY_SCHEMA_ID,
        "dataset": dataset_summary_row(ds, characterization),
        "characterization": characterization,
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


def _read_results(path: Path) -> dict:
    """A validate results.json, refused unless it has _RESULTS_KEYS, the
    numbers the table prints (bits_weighted null when argmax-only) and,
    if any, a fold_curve of [fold, accuracy] pairs."""
    obj = _read_object(path, "validation results.json", _RESULTS_KEYS)
    for key in ("accuracy_user_mean", "accuracy_weighted", "bits_weighted"):
        value = obj.get(key)
        if not (is_number(value) or (key == "bits_weighted" and value is None)):
            raise DataError(f"{path}: {key} must be a number, got {value!r}")
    curve = obj.get("fold_curve", [])
    if not (isinstance(curve, list)
            and all(isinstance(p, list) and len(p) == 2 for p in curve)):
        raise DataError(f"{path}: fold_curve must be a list of "
                        "[fold, accuracy] pairs")
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

    characterization = read_json(paths["characterization"])
    try:
        report_from_dict(characterization)
    except DataError as e:
        raise DataError(f"{paths['characterization']}: {e}") from None
    validation = (
        [_read_results(paths[f"validation[{i}]"])
         for i in range(len(validation_paths))]
        if validation_paths else None
    )
    recommendation = (
        _read_object(paths["recommendation"], "recommendation.json",
                     ("verdict", "fired_rule", "trace"))
        if recommendation_path is not None else None
    )
    sensitivity = None
    if sensitivity_path is not None:
        sensitivity = _read_object(paths["sensitivity"], "sensitivity.json",
                                   ("rows",))["rows"]
        if not (isinstance(sensitivity, list)
                and all(isinstance(row, dict) for row in sensitivity)):
            raise DataError(f"{paths['sensitivity']}: not a sensitivity.json, "
                            f"whose rows are a list of objects")

    summary = build_summary(
        ds, characterization, validation, recommendation, sensitivity
    )
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

    write_mi_curve_csv(mi_path, characterization["mi_curve"])
    write_fold_curve_csv(fold_curve_path, validation or [])
    write_compression_csv(compression_path, validation or [])
    return summary
