"""Readers for external trajectory formats and the canonical on-disk dataset.

Canonical dataset directory:
    alphabet.json   array of {poi_id, lat, lon, label}
    sequences.jsonl one object per user: {"user_id": ..., "symbols": [[poi_id, t], ...]}
    meta.json       {"schema_version", "name", "stage", "provenance"}

Raw (pre-extraction) directories carry raw.jsonl instead of
alphabet/sequences; ``stage`` in meta.json distinguishes the two.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import (
    DataError,
    Dataset,
    GeoPoint,
    IngestError,
    PoiAlphabet,
    PoiRecord,
    PoiSequence,
    RawTrajectory,
)
from .jsonutil import canonical_dumps, write_canonical_json

SCHEMA_VERSION = 1

# offset between the plt day-number epoch (1899-12-30) and the unix epoch
_PLT_EPOCH_DAYS = 25569


@dataclass(frozen=True)
class IngestConfig:
    """How to read one raw input file.

    ``column_map`` (csv_gps only) maps the logical names user/lat/lon/t to
    0-based column indices; extra columns in the file are ignored.
    ``tz_offset_seconds`` is added to every timestamp when
    ``timezone_policy`` is "offset_seconds".
    """

    format: str = "csv_gps"
    column_map: dict = field(
        default_factory=lambda: {"user": 0, "lat": 1, "lon": 2, "t": 3}
    )
    timezone_policy: str = "assume_utc"
    tz_offset_seconds: int = 0
    dedup_policy: str = "drop_equal_timestamp"

    def __post_init__(self):
        if self.format not in ("csv_gps", "plt_geolife_like", "symbols_jsonl"):
            raise DataError(f"unknown ingest format {self.format!r}")
        if self.timezone_policy not in ("assume_utc", "offset_seconds"):
            raise DataError(f"unknown timezone_policy {self.timezone_policy!r}")
        if self.dedup_policy not in ("drop_equal_timestamp", "error"):
            raise DataError(f"unknown dedup_policy {self.dedup_policy!r}")
        if self.format == "csv_gps":
            missing = {"user", "lat", "lon", "t"} - set(self.column_map)
            if missing:
                raise DataError(f"column_map missing {sorted(missing)}")


@dataclass(frozen=True)
class IngestReport:
    """Row accounting: rows_read = points_kept + len(rejects), always."""

    rows_read: int
    points_kept: int
    rejects: tuple[tuple[int, str], ...]


def _apply_tz(t: int, cfg: IngestConfig) -> int:
    if cfg.timezone_policy == "offset_seconds":
        return t + cfg.tz_offset_seconds
    return t


def _rows_to_trajectories(
    rows: list[tuple[str, float, float, int]], cfg: IngestConfig
) -> tuple[list[RawTrajectory], list[tuple[int, str]]]:
    """Group (user, lat, lon, t) rows into per-user time-sorted trajectories.

    Rows arrive tagged with their 1-based source line for dedup reporting;
    here they come pre-validated, so the only rejects are duplicate
    timestamps under drop_equal_timestamp.
    """
    by_user: dict[str, list[tuple[int, float, float, int]]] = {}
    for line_no, (user, lat, lon, t) in enumerate(rows, start=1):
        by_user.setdefault(user, []).append((t, lat, lon, line_no))
    rejects: list[tuple[int, str]] = []
    trajs = []
    for user in sorted(by_user):
        pts = sorted(by_user[user])
        kept: list[GeoPoint] = []
        last_t: Optional[int] = None
        for t, lat, lon, line_no in pts:
            if last_t is not None and t == last_t:
                if cfg.dedup_policy == "error":
                    raise IngestError(
                        f"line {line_no}: duplicate timestamp {t} for user {user!r}"
                    )
                rejects.append((line_no, f"duplicate timestamp for user {user}"))
                continue
            kept.append(GeoPoint(lat, lon, t))
            last_t = t
        if kept:
            trajs.append(RawTrajectory(user, tuple(kept)))
    return trajs, rejects


def _parse_csv_gps(path: Path, cfg: IngestConfig) -> tuple[list, list]:
    cm = cfg.column_map
    need = max(cm.values()) + 1
    rows = []
    rejects: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
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
                user = parts[cm["user"]].strip()
                lat = float(parts[cm["lat"]])
                lon = float(parts[cm["lon"]])
                t = int(float(parts[cm["t"]]))
            except ValueError as e:
                raise IngestError(f"{path.name} line {line_no}: {e}") from e
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise IngestError(
                    f"{path.name} line {line_no}: coordinates ({lat}, {lon}) "
                    "out of range"
                )
            rows.append((user, lat, lon, _apply_tz(t, cfg)))
    return rows, rejects


def _parse_plt(path: Path, cfg: IngestConfig) -> tuple[list, list]:
    """plt-style: 6 header lines, then lat,lon,_,alt,daynum,... rows.

    daynum is fractional days since 1899-12-30; the user id is the file
    stem.  Seconds are rounded to the nearest integer.
    """
    user = path.stem
    rows = []
    rejects: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if line_no <= 6:
                rejects.append((line_no, "header"))
                continue
            line = line.strip()
            if not line:
                rejects.append((line_no, "blank line"))
                continue
            parts = line.split(",")
            if len(parts) < 5:
                raise IngestError(
                    f"{path.name} line {line_no}: expected ≥ 5 columns"
                )
            try:
                lat = float(parts[0])
                lon = float(parts[1])
                days = float(parts[4])
            except ValueError as e:
                raise IngestError(f"{path.name} line {line_no}: {e}") from e
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise IngestError(
                    f"{path.name} line {line_no}: coordinates ({lat}, {lon}) "
                    "out of range"
                )
            t = round((days - _PLT_EPOCH_DAYS) * 86400.0)
            rows.append((user, lat, lon, _apply_tz(int(t), cfg)))
    return rows, rejects


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
    if cfg.format == "csv_gps":
        rows, rejects = _parse_csv_gps(path, cfg)
    else:
        rows, rejects = _parse_plt(path, cfg)
    n_input = len(rows) + len(rejects)
    if n_input == 0:
        raise IngestError(f"{path.name}: empty file")
    trajs, dup_rejects = _rows_to_trajectories(rows, cfg)
    rejects = sorted(rejects + dup_rejects)
    kept = sum(len(t) for t in trajs)
    if kept == 0:
        raise IngestError(f"{path.name}: no points survive parsing")
    return trajs, IngestReport(n_input, kept, tuple(rejects))


def load_symbols_jsonl(
    path: str | Path, name: str, collapse: bool = True
) -> Dataset:
    """Build a Dataset from pre-symbolized lines {user_id, symbols}.

    No geography is available, so POI centroids are synthesized at lat 0
    on a 0.001-degree longitude grid.  The alphabet spans 0..max(poi_id).
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    seqs = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                user_id = str(obj["user_id"])
                visits = [(int(p), int(t)) for p, t in obj["symbols"]]
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise IngestError(f"{path.name} line {line_no}: {e}") from e
            try:
                seq = PoiSequence.from_visits(user_id, visits, collapse=collapse)
            except DataError as e:
                raise IngestError(f"{path.name} line {line_no}: {e}") from e
            max_id = max(max_id, max(p for p, _ in seq.symbols))
            seqs.append(seq)
    if not seqs:
        raise IngestError(f"{path.name}: empty file")
    alphabet = _synthetic_alphabet(max_id + 1)
    return Dataset(
        name=name,
        alphabet=alphabet,
        sequences=tuple(seqs),
        provenance={"source_path": path.name, "format": "symbols_jsonl"},
    )


def _synthetic_alphabet(size: int) -> PoiAlphabet:
    return PoiAlphabet(
        tuple(
            PoiRecord(i, 0.0, round(0.001 * i, 6), f"S{i}") for i in range(size)
        )
    )


def dataset_digest(ds: Dataset) -> str:
    """sha256 over the canonical alphabet + sequences serialization.

    Matches the bytes save_dataset writes, so the digest of an in-memory
    Dataset equals the digest of its on-disk form.
    """
    h = hashlib.sha256()
    alphabet = [
        {"poi_id": e.poi_id, "lat": e.lat, "lon": e.lon, "label": e.label}
        for e in ds.alphabet.entries
    ]
    h.update(canonical_dumps(alphabet).encode("utf-8"))
    for seq in ds.sequences:
        obj = {
            "user_id": seq.user_id,
            "symbols": [[int(p), int(t)] for p, t in seq.symbols],
        }
        h.update(
            (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
            .encode("utf-8")
        )
    return "sha256:" + h.hexdigest()


def save_dataset(ds: Dataset, dir_path: str | Path) -> None:
    """Write the canonical directory; idempotent and bit-stable."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    alphabet = [
        {"poi_id": e.poi_id, "lat": e.lat, "lon": e.lon, "label": e.label}
        for e in ds.alphabet.entries
    ]
    write_canonical_json(d / "alphabet.json", alphabet)
    with open(d / "sequences.jsonl", "w", encoding="utf-8") as f:
        for seq in ds.sequences:
            obj = {
                "user_id": seq.user_id,
                "symbols": [[int(p), int(t)] for p, t in seq.symbols],
            }
            f.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    write_canonical_json(
        d / "meta.json",
        {
            "schema_version": SCHEMA_VERSION,
            "name": ds.name,
            "stage": "dataset",
            "provenance": ds.provenance,
        },
    )


def load_dataset(dir_path: str | Path) -> Dataset:
    d = Path(dir_path)
    alpha_path = d / "alphabet.json"
    if not alpha_path.is_file():
        raise IngestError(f"{d}: missing alphabet.json")
    seq_path = d / "sequences.jsonl"
    if not seq_path.is_file():
        raise IngestError(f"{d}: missing sequences.jsonl")
    meta_path = d / "meta.json"
    name = d.name
    provenance: dict = {}
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        version = meta.get("schema_version")
        if version != SCHEMA_VERSION:
            raise IngestError(
                f"{d}: schema_version {version} != supported {SCHEMA_VERSION}"
            )
        name = meta.get("name", name)
        provenance = meta.get("provenance", {})
    entries = []
    for rec in json.loads(alpha_path.read_text(encoding="utf-8")):
        entries.append(
            PoiRecord(
                int(rec["poi_id"]),
                float(rec["lat"]),
                float(rec["lon"]),
                rec.get("label"),
            )
        )
    alphabet = PoiAlphabet(tuple(entries))
    seqs = []
    with open(seq_path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                seqs.append(
                    PoiSequence(
                        str(obj["user_id"]),
                        tuple((int(p), int(t)) for p, t in obj["symbols"]),
                    )
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise IngestError(f"sequences.jsonl line {line_no}: {e}") from e
    return Dataset(name=name, alphabet=alphabet, sequences=tuple(seqs),
                   provenance=provenance)


def save_raw(
    trajs: list[RawTrajectory], dir_path: str | Path, name: str,
    provenance: Optional[dict] = None,
) -> None:
    """Persist parsed trajectories (pre-extraction stage)."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "raw.jsonl", "w", encoding="utf-8") as f:
        for traj in trajs:
            obj = {
                "user_id": traj.user_id,
                "points": [[p.lat, p.lon, p.t] for p in traj.points],
            }
            f.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    write_canonical_json(
        d / "meta.json",
        {
            "schema_version": SCHEMA_VERSION,
            "name": name,
            "stage": "raw",
            "provenance": provenance or {},
        },
    )


def load_raw(dir_path: str | Path) -> list[RawTrajectory]:
    d = Path(dir_path)
    raw_path = d / "raw.jsonl"
    if not raw_path.is_file():
        raise IngestError(f"{d}: missing raw.jsonl")
    meta_path = d / "meta.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("schema_version") != SCHEMA_VERSION:
            raise IngestError(
                f"{d}: schema_version {meta.get('schema_version')} != "
                f"supported {SCHEMA_VERSION}"
            )
    trajs = []
    with open(raw_path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                pts = tuple(
                    GeoPoint(float(lat), float(lon), int(t))
                    for lat, lon, t in obj["points"]
                )
                trajs.append(RawTrajectory(str(obj["user_id"]), pts))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
                raise IngestError(f"raw.jsonl line {line_no}: {e}") from e
    return trajs
