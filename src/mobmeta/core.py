"""Core domain types: GPS trajectories, POI alphabets, and symbol sequences.

All types are immutable after construction.  Trajectories and sequences
hold their data as numpy columns (``RawTrajectory.lat``/``lon``/``t``,
``PoiSequence.poi_ids``/``timestamps``) that are copied on construction
and marked read-only, so callers can share and slice them freely: a write
raises ValueError.  POI identifiers are dense integers starting at 0 so
that downstream counting (mutual information, match scans, transition
tables) can be array-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np


class MobmetaError(Exception):
    """Base class for errors raised by this package."""


class DataError(MobmetaError):
    """Invalid or inconsistent input data (CLI exit code 3)."""


class IngestError(DataError):
    """Parse failure while reading an external file."""


class InfeasiblePlanError(MobmetaError):
    """A validation plan cannot be realized on the given data (exit code 4)."""


def _column(values, dtype, what: str) -> np.ndarray:
    """``values`` as a new read-only 1-D array of ``dtype``.

    Integer conversion follows ``int()``; a value it rejects or that does
    not fit in int64 raises DataError naming ``what``.
    """
    try:
        col = np.array(values, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as e:
        raise DataError(f"{what}: {e}") from e
    if col.ndim != 1:
        raise DataError(f"{what}: expected one column, got shape {col.shape}")
    col.flags.writeable = False
    return col


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True in ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _same_columns(a, b) -> bool:
    """``==`` of RawTrajectory and PoiSequence: same type, user and columns."""
    return (
        type(a) is type(b)
        and a.user_id == b.user_id
        and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                for f in fields(a)[1:])
    )


@dataclass(frozen=True, eq=False)
class RawTrajectory:
    """Time-ordered GPS fixes of one user, stored as columns.

    ``lat``/``lon`` are WGS-84 degrees (float64) and ``t`` UTC seconds
    (int64).  Timestamps must be strictly ascending; equal-timestamp
    fixes are a dedup concern of the ingest layer and are rejected here.
    """

    user_id: str
    lat: np.ndarray
    lon: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        who = f"user {self.user_id!r}"
        lat = _column(self.lat, np.float64, f"{who}: lat")
        lon = _column(self.lon, np.float64, f"{who}: lon")
        t = _column(self.t, np.int64, f"{who}: t")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "t", t)
        if not lat.shape == lon.shape == t.shape:
            raise DataError(f"{who}: lat, lon and t differ in length")
        if t.shape[0] == 0:
            raise DataError(f"trajectory of {who} has no points")
        for name, col, limit in (("latitude", lat, 90), ("longitude", lon, 180)):
            i = _first(~(np.abs(col) <= limit))  # NaN fails too
            if i is not None:
                raise DataError(
                    f"{who}: {name} {col[i]} outside [-{limit}, {limit}]"
                )
        i = _first(t[1:] <= t[:-1])
        if i is not None:
            raise DataError(
                f"{who}: timestamps not strictly ascending at index {i + 1} "
                f"({t[i]} -> {t[i + 1]})"
            )

    def __len__(self) -> int:
        return self.t.shape[0]

    __eq__ = _same_columns


@dataclass(frozen=True)
class PoiRecord:
    """One entry of a POI alphabet: dense id, centroid, optional label."""

    poi_id: int
    lat: float
    lon: float
    label: Optional[str] = None

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise DataError(f"POI {self.poi_id}: latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise DataError(f"POI {self.poi_id}: longitude {self.lon} out of range")


@dataclass(frozen=True)
class PoiAlphabet:
    """Indexed set of POIs; ids are dense integers 0..size-1."""

    entries: tuple[PoiRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        ids = [e.poi_id for e in self.entries]
        if ids != list(range(len(ids))):
            raise DataError("POI ids must be dense integers 0..n-1 in order")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def synthetic(cls, size: int) -> "PoiAlphabet":
        """``size`` POIs without geography: centroids at lat 0 on a
        0.001-degree longitude grid, labels S0, S1, ..."""
        return cls(
            tuple(
                PoiRecord(i, 0.0, round(0.001 * i, 6), f"S{i}")
                for i in range(size)
            )
        )


@dataclass(frozen=True, eq=False)
class PoiSequence:
    """Time-ordered POI visits of one user, self-transitions eliminated.

    ``poi_ids`` and ``timestamps`` are int64 arrays of equal length, with
    strictly ascending timestamps, no two consecutive equal poi_ids and
    no negative poi_id, so that no stream holds SEPARATOR.  Use
    :meth:`from_visits` to build one from raw visit data, which collapses
    runs of the same POI to their first visit.
    """

    user_id: str
    poi_ids: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        who = f"user {self.user_id!r}"
        ids = _column(self.poi_ids, np.int64, f"{who}: poi_ids")
        ts = _column(self.timestamps, np.int64, f"{who}: timestamps")
        object.__setattr__(self, "poi_ids", ids)
        object.__setattr__(self, "timestamps", ts)
        if ids.shape != ts.shape:
            raise DataError(f"{who}: poi_ids and timestamps differ in length")
        if ids.shape[0] == 0:
            raise DataError(f"{who}: empty symbol sequence")
        i = _first(ts[1:] <= ts[:-1])
        if i is not None:
            raise DataError(
                f"{who}: timestamps not strictly ascending "
                f"({ts[i]} -> {ts[i + 1]})"
            )
        i = _first(ids[1:] == ids[:-1])
        if i is not None:
            raise DataError(f"{who}: self-transition {ids[i]} -> {ids[i]}")
        lo = int(ids.min())
        if lo < 0:
            raise DataError(f"{who}: poi_id {lo} not in alphabet")

    @classmethod
    def from_visits(
        cls, user_id: str, poi_ids: Sequence[int], timestamps: Sequence[int]
    ) -> "PoiSequence":
        """Build a sequence from visits in time order, keeping the first
        visit of each run of the same POI (and its timestamp)."""
        ids = np.asarray(poi_ids, dtype=np.int64)
        starts = np.ones(ids.shape[0], dtype=bool)
        starts[1:] = ids[1:] != ids[:-1]
        return cls(
            user_id, ids[starts], np.asarray(timestamps, dtype=np.int64)[starts]
        )

    def __len__(self) -> int:
        return self.poi_ids.shape[0]

    __eq__ = _same_columns


def check_poi_ids(seq: PoiSequence, n_pois: int) -> PoiSequence:
    """seq itself, once every poi_id is below n_pois."""
    hi = int(seq.poi_ids.max())
    if hi >= n_pois:
        raise DataError(f"user {seq.user_id!r}: poi_id {hi} "
                        f"not in alphabet of size {n_pois}")
    return seq


@dataclass(frozen=True)
class Dataset:
    """A named collection of POI sequences over one shared alphabet."""

    name: str
    alphabet: PoiAlphabet
    sequences: tuple[PoiSequence, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise DataError("dataset name must be nonempty")
        object.__setattr__(self, "sequences", tuple(self.sequences))
        for seq in self.sequences:
            check_poi_ids(seq, self.alphabet.size)

    @property
    def n_users(self) -> int:
        return len(self.sequences)


# The symbol that joins user streams.  No PoiSequence holds a negative
# poi_id, and the metrics treat every negative symbol as the end of a
# user: no pair or gram spans one.
SEPARATOR = -1


def concat_user_streams(sequences: Sequence[PoiSequence]) -> np.ndarray:
    """Flatten per-user symbol streams into one dataset-level stream.

    SEPARATOR sits between users so that cross-user n-grams can never
    form.  One user's stream is returned as is.  Returns an int64 array
    in user order.
    """
    if not sequences:
        raise DataError("empty dataset")
    sep = np.asarray([SEPARATOR], dtype=np.int64)
    parts = []
    for seq in sequences:
        parts += (sep, seq.poi_ids)
    return np.concatenate(parts[1:])
