"""Readers for external trajectory formats and the canonical on-disk dataset.

Raw GPS inputs hold one fix per line and are read by one loop
(parse_raw_with_report):
    csv_gps           user, lat, lon and t in the columns column_map names;
                      t in unix seconds, read exactly when it is an
                      integer and truncated to one otherwise
    plt_geolife_like  6 header lines, then lat,lon,_,alt,daynum,... rows;
                      daynum is fractional days since 1899-12-30, rounded
                      to the second, and the user id is the file stem
Every timestamp is shifted by tz_offset_seconds (0 reads the input as
UTC).  symbols_jsonl lines are already symbol streams (load_symbols_jsonl).

This module owns both directory layouts; DATASET_FILES and RAW_FILES
name their files, meta.json last, and a directory's digest is the sha256
of the files before it, as bytes on disk.
Canonical dataset directory (dataset_digest):
    alphabet.json   array of {poi_id, lat, lon, label}
    sequences.jsonl one object per user: {"user_id": ..., "symbols": [[poi_id, t], ...]}
    meta.json       {"schema_version", "name", "stage", "provenance"}
Raw (pre-extraction) directory, told apart by ``stage`` in meta.json:
    raw.jsonl       one object per user: {"user_id": ..., "points": [[lat, lon, t], ...]}
    meta.json

Every JSON-lines row format (sequences.jsonl, symbols_jsonl input and
raw.jsonl) is read by one column reader, _columns, given a field table
of (name, type code): poi_id and t for symbols; lat, lon and t for
points.  Code "q" is a whole number read as int64 (3 or 3.0; not true,
"3" or 3.5) and "d" any JSON number read as float64 (not true or "45").
"""

from __future__ import annotations

import array
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import numpy as np

from .core import (
    DataError,
    Dataset,
    IngestError,
    PoiAlphabet,
    PoiRecord,
    PoiSequence,
    RawTrajectory,
    check_poi_ids,
)
from .jsonutil import is_number, record_dict, sha256_file, write_canonical_json

SCHEMA_VERSION = 1

DATASET_FILES = ("alphabet.json", "sequences.jsonl", "meta.json")
RAW_FILES = ("raw.jsonl", "meta.json")

# offset between the plt day-number epoch (1899-12-30) and the unix epoch
_PLT_EPOCH_DAYS = 25569


# The logical columns of a csv_gps row, which IngestConfig.column_map
# maps to 0-based indices.
CSV_COLUMNS = ("user", "lat", "lon", "t")


@dataclass(frozen=True)
class IngestConfig:
    """How to read one raw input file.

    ``column_map`` (csv_gps only) maps the logical names user/lat/lon/t to
    0-based column indices; extra columns in the file are ignored.
    ``tz_offset_seconds`` is added to every timestamp; 0 means the input
    is UTC.
    """

    format: str = "csv_gps"
    column_map: dict = field(
        default_factory=lambda: {"user": 0, "lat": 1, "lon": 2, "t": 3}
    )
    tz_offset_seconds: int = 0
    dedup_policy: str = "drop_equal_timestamp"

    def __post_init__(self):
        if self.format not in ("csv_gps", "plt_geolife_like", "symbols_jsonl"):
            raise DataError(f"unknown ingest format {self.format!r}")
        if self.dedup_policy not in ("drop_equal_timestamp", "error"):
            raise DataError(f"unknown dedup_policy {self.dedup_policy!r}")
        if self.format == "csv_gps":
            missing = set(CSV_COLUMNS) - set(self.column_map)
            if missing:
                raise DataError(f"column_map missing {sorted(missing)}")


@dataclass(frozen=True)
class IngestReport:
    """Row accounting: rows_read = points_kept + len(rejects), always."""

    rows_read: int
    points_kept: int
    rejects: tuple[tuple[int, str], ...]


def _read_fixes(
    path: Path, cfg: IngestConfig
) -> tuple[dict[str, list], list[tuple[int, str]]]:
    """({user: [(t, lat, lon, line), ...]}, rejects) of a raw GPS file.

    The formats differ only in their header lines, the columns of the
    fields and the unit of time, all chosen here once per file.  Fixes
    keep file order and carry their 1-based source line.  Header and
    blank lines are rejects; any other bad line is an IngestError naming
    it.
    """
    if cfg.format == "csv_gps":
        cm = cfg.column_map
        header, user_col = 0, cm["user"]
        lat_col, lon_col, t_col = cm["lat"], cm["lon"], cm["t"]

        def seconds(text: str) -> int:
            # int first: float would round integers beyond 2**53
            try:
                return int(text)
            except ValueError:
                return int(float(text))
    else:
        header, user_col, lat_col, lon_col, t_col = 6, None, 0, 1, 4

        def seconds(text: str) -> int:
            return round((float(text) - _PLT_EPOCH_DAYS) * 86400.0)
    need = max(lat_col, lon_col, t_col, user_col or 0) + 1
    offset = cfg.tz_offset_seconds
    user = path.stem
    by_user: dict[str, list] = {}
    with open(path, "r", encoding="utf-8") as f:
        lines = enumerate(f, start=1)
        rejects = [(line_no, "header")
                   for line_no, _ in itertools.islice(lines, header)]
        for line_no, line in lines:
            line = line.strip()
            if not line:
                rejects.append((line_no, "blank line"))
                continue
            parts = line.split(",")
            if len(parts) < need:
                raise IngestError(
                    f"{path.name} line {line_no}: expected ≥ {need} columns, "
                    f"got {len(parts)}"
                )
            try:
                lat = float(parts[lat_col])
                lon = float(parts[lon_col])
                t = seconds(parts[t_col]) + offset
                if not -(2**63) <= t < 2**63:
                    raise ValueError(f"timestamp {t} outside the int64 range")
            except (OverflowError, ValueError) as e:
                raise IngestError(f"{path.name} line {line_no}: {e}") from e
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise IngestError(
                    f"{path.name} line {line_no}: coordinates ({lat}, {lon}) "
                    "out of range"
                )
            if user_col is not None:
                user = parts[user_col].strip()
            by_user.setdefault(user, []).append((t, lat, lon, line_no))
    return by_user, rejects


def _rows_to_trajectories(
    by_user: dict[str, list], cfg: IngestConfig
) -> tuple[list[RawTrajectory], list[tuple[int, str]]]:
    """Per-user time-sorted trajectories of _read_fixes' fixes.

    The only rejects are duplicate timestamps under drop_equal_timestamp,
    named by their source line: of the fixes sharing a timestamp, the
    first in (lat, lon, line) order is kept.
    """
    rejects: list[tuple[int, str]] = []
    trajs = []
    for user in sorted(by_user):
        lats: list[float] = []
        lons: list[float] = []
        ts: list[int] = []
        for t, lat, lon, line_no in sorted(by_user[user]):
            if ts and t == ts[-1]:
                if cfg.dedup_policy == "error":
                    raise IngestError(
                        f"line {line_no}: duplicate timestamp {t} for user {user!r}"
                    )
                rejects.append((line_no, f"duplicate timestamp for user {user}"))
                continue
            lats.append(lat)
            lons.append(lon)
            ts.append(t)
        trajs.append(RawTrajectory(user, lats, lons, ts))
    return trajs, rejects


def parse_raw_with_report(
    path: str | Path, cfg: IngestConfig
) -> tuple[list[RawTrajectory], IngestReport]:
    """Parse a raw file, keeping the full row accounting."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    if cfg.format == "symbols_jsonl":
        raise IngestError(
            "symbols_jsonl carries no coordinates; use load_symbols_jsonl "
            "to build a Dataset directly"
        )
    by_user, rejects = _read_fixes(path, cfg)
    rows_read = len(rejects) + sum(map(len, by_user.values()))
    if rows_read == 0:
        raise IngestError(f"{path.name}: empty file")
    trajs, dup_rejects = _rows_to_trajectories(by_user, cfg)
    if not trajs:
        raise IngestError(f"{path.name}: no points survive parsing")
    return trajs, IngestReport(
        rows_read, sum(len(t) for t in trajs),
        tuple(sorted(rejects + dup_rejects)),
    )


def _is_whole(v) -> bool:
    return type(v) is int or (type(v) is float and v.is_integer())


# (name, array type code) of each value of a row: "q" a whole number read
# as int64, "d" any JSON number read as float64
_SYMBOL_FIELDS = (("poi_id", "q"), ("t", "q"))
_POINT_FIELDS = (("lat", "d"), ("lon", "d"), ("t", "q"))


def _columns(rows: list, fields: tuple, line: str) -> list[np.ndarray]:
    """One array per field of the rows of one JSON line, of the field's
    type code.

    The common line, rows of len(fields) values with no boolean in its
    text, packs each column with array.array, whose "d" refuses strings
    and "q" also floats; a line that does not pack is checked value by
    value in row order.  There a row of another width is a ValueError, as
    is the first value its field refuses (a "q" takes 3 or 3.0, not true,
    "3" or 3.5; a "d" any number, not true or "45"), named by its field;
    then the first field holding a value beyond its type is an
    OverflowError naming the field.
    """
    width = len(fields)
    try:
        widths = set(map(len, rows))
    except TypeError:
        widths = None
    if widths == {width} and "true" not in line and "false" not in line:
        try:
            return [np.frombuffer(array.array(code, column), dtype=code)
                    for (_, code), column in zip(fields, zip(*rows))]
        except (TypeError, OverflowError):
            pass
    if not isinstance(rows, list) or not all(
            type(row) is list and len(row) == width for row in rows):
        raise ValueError(f"expected rows of {width} values")
    for row in rows:
        for (name, code), v in zip(fields, row):
            if not (_is_whole(v) if code == "q" else is_number(v)):
                kind = "an integer" if code == "q" else "a number"
                raise ValueError(f"{name} {json.dumps(v)} is not {kind}")
    columns = []
    for i, (name, code) in enumerate(fields):
        try:
            columns.append(np.array([row[i] for row in rows], dtype=code))
        except OverflowError as e:  # beyond int64, or beyond float
            raise OverflowError(f"{name}: {e}") from None
    return columns


def _records(path: Path, label: str,
             build: Callable[[dict, str], Any]) -> list:
    """``build(obj, line)`` for each nonblank JSON line of ``path``.

    Any parse or data error, values beyond int64 included, becomes an
    IngestError naming ``label`` and the line.
    """
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                out.append(build(json.loads(line), line))
            except (KeyError, TypeError, ValueError, OverflowError,
                    DataError) as e:
                raise IngestError(f"{label} line {line_no}: {e}") from e
    return out


def _user_id(obj: dict) -> str:
    """obj's user_id as text; one that UTF-8 cannot encode, such as a lone
    surrogate from a JSON escape, is a ValueError here rather than in
    every later write of it."""
    user_id = str(obj["user_id"])
    try:
        user_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"user_id {user_id!r} is not valid UTF-8") from None
    return user_id


def _sequence(obj: dict, line: str, build=PoiSequence) -> PoiSequence:
    return build(_user_id(obj),
                 *_columns(obj["symbols"], _SYMBOL_FIELDS, line))


def _trajectory(obj: dict, line: str) -> RawTrajectory:
    return RawTrajectory(_user_id(obj),
                         *_columns(obj["points"], _POINT_FIELDS, line))


def load_symbols_jsonl(path: str | Path, name: str) -> Dataset:
    """Build a Dataset from pre-symbolized lines {user_id, symbols}.

    Runs of the same POI collapse to their first visit.  No geography is
    available, so POI centroids are synthesized (PoiAlphabet.synthetic).
    The alphabet spans 0..max(poi_id); a negative poi_id is an error
    naming its line.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    seqs = _records(
        path, path.name,
        lambda obj, line: _sequence(obj, line, PoiSequence.from_visits),
    )
    if not seqs:
        raise IngestError(f"{path.name}: empty file")
    return Dataset(
        name=name,
        alphabet=PoiAlphabet.synthetic(
            max(int(seq.poi_ids.max()) for seq in seqs) + 1
        ),
        sequences=tuple(seqs),
        provenance={"source_path": path.name, "format": "symbols_jsonl"},
    )


def dataset_digest(dir_path: str | Path,
                   files: tuple[str, ...] = DATASET_FILES) -> str:
    """sha256 of a directory's ``files`` but the last (meta.json), read as
    bytes one after another: alphabet.json then sequences.jsonl of a
    dataset directory, raw.jsonl of a raw one (files=RAW_FILES).

    Every directory this module writes is canonical, so its digest is a
    function of what was saved alone; a hand-edited directory hashes its
    own bytes.
    """
    d = Path(dir_path)
    return "sha256:" + sha256_file(*(d / name for name in files[:-1]))


def _save(d: Path, jsonl: str, objs: Iterable[dict], meta: dict) -> None:
    """Write one compact key-sorted JSON object per line to d/jsonl, then
    meta.json (schema_version added)."""
    d.mkdir(parents=True, exist_ok=True)
    with open(d / jsonl, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    write_canonical_json(d / "meta.json",
                         {"schema_version": SCHEMA_VERSION, **meta})


def save_dataset(ds: Dataset, dir_path: str | Path) -> None:
    """Write the canonical directory; idempotent and bit-stable."""
    d = Path(dir_path)
    _save(
        d, "sequences.jsonl",
        ({"user_id": seq.user_id,
          "symbols": np.column_stack((seq.poi_ids, seq.timestamps)).tolist()}
         for seq in ds.sequences),
        {"name": ds.name, "stage": "dataset", "provenance": ds.provenance},
    )
    write_canonical_json(d / "alphabet.json",
                         [record_dict(e) for e in ds.alphabet.entries])


def _meta(d: Path) -> dict:
    """meta.json of directory d ({} when absent); IngestError when its
    schema_version is not the supported one."""
    meta_path = d / "meta.json"
    if not meta_path.is_file():
        return {}
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        version = meta.get("schema_version")
    except (AttributeError, ValueError) as e:
        raise IngestError(f"{meta_path}: {e}") from e
    if version != SCHEMA_VERSION:
        raise IngestError(
            f"{d}: schema_version {version} != supported {SCHEMA_VERSION}"
        )
    return meta


def load_dataset(dir_path: str | Path) -> Dataset:
    d = Path(dir_path)
    alpha_path = d / "alphabet.json"
    if not alpha_path.is_file():
        raise IngestError(f"{d}: missing alphabet.json")
    seq_path = d / "sequences.jsonl"
    if not seq_path.is_file():
        raise IngestError(f"{d}: missing sequences.jsonl")
    meta = _meta(d)
    try:
        alphabet = PoiAlphabet(tuple(
            PoiRecord(int(rec["poi_id"]), float(rec["lat"]), float(rec["lon"]),
                      rec.get("label"))
            for rec in json.loads(alpha_path.read_text(encoding="utf-8"))
        ))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            DataError) as e:
        raise IngestError(f"{alpha_path}: {e}") from e
    seqs = _records(
        seq_path, "sequences.jsonl",
        lambda obj, line: check_poi_ids(_sequence(obj, line), alphabet.size),
    )
    return Dataset(name=meta.get("name", d.name), alphabet=alphabet,
                   sequences=tuple(seqs),
                   provenance=meta.get("provenance", {}))


def save_raw(
    trajs: list[RawTrajectory], dir_path: str | Path, name: str,
    provenance: Optional[dict] = None,
) -> None:
    """Persist parsed trajectories (pre-extraction stage)."""
    _save(
        Path(dir_path), "raw.jsonl",
        # one column at a time: column_stack would make t a float
        ({"user_id": traj.user_id,
          "points": list(zip(traj.lat.tolist(), traj.lon.tolist(),
                             traj.t.tolist()))}
         for traj in trajs),
        {"name": name, "stage": "raw", "provenance": provenance or {}},
    )


def load_raw(dir_path: str | Path) -> list[RawTrajectory]:
    d = Path(dir_path)
    raw_path = d / "raw.jsonl"
    if not raw_path.is_file():
        raise IngestError(f"{d}: missing raw.jsonl")
    _meta(d)
    return _records(raw_path, "raw.jsonl", _trajectory)
