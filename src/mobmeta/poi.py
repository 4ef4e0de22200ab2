"""Staypoint detection and POI clustering: RawTrajectory -> PoiSequence."""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

from .core import (
    DataError,
    Dataset,
    PoiAlphabet,
    PoiRecord,
    PoiSequence,
    RawTrajectory,
)

EARTH_RADIUS_M = 6371008.8


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a sphere of radius 6371008.8 m."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class ExtractionParams:
    stay_radius_m: float = 200.0
    stay_min_duration_s: float = 1200.0
    cluster_merge_radius_m: float = 250.0
    min_visits: int = 2

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise DataError(f"{f.name} must be a positive number")
        if self.cluster_merge_radius_m < self.stay_radius_m:
            warnings.warn(
                "cluster_merge_radius_m < stay_radius_m: adjacent staypoints "
                "of one dwell may land in separate POIs",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Staypoint:
    """A dwell episode: centroid of its fixes plus arrival/departure times."""

    user_id: str
    lat: float
    lon: float
    arrival: int
    departure: int


def _unwrap(lon: float, ref: float = 0.0) -> float:
    """``lon`` moved by a multiple of 360 degrees to within 180 of ``ref``,
    so that means across the dateline stay local; unchanged when already
    there (round(0.5) is 0).  With the default ``ref`` it wraps a mean of
    unwrapped longitudes back into [-180, 180]."""
    return lon - 360.0 * round((lon - ref) / 360.0)


# Margin added to the triangle-inequality bound of detect_staypoints so
# that it also bounds haversine_m's *computed* distances, which carry float
# error: about 1e-10 m at city scales and up to about 0.3 m near the
# antipode, where asin flattens.  Every distance the bound sums is at most
# stay_radius (larger ones fail the bound and force an exact check), so an
# antipodal distance only enters with a radius of 2e7 m, whose slack is
# 20 m; even a 1e7 m radius has 10 m.  A relative slack therefore always
# exceeds the error it has to cover, and costs nothing at small radii.
STAY_BOUND_SLACK = 1e-6


def detect_staypoints(
    traj: RawTrajectory, p: ExtractionParams
) -> list[Staypoint]:
    """Greedy forward scan for dwell windows.

    A window [i..j] qualifies while every fix lies within stay_radius of
    the running window centroid; it is closed at the first violating fix.
    Windows lasting at least stay_min_duration are emitted and the scan
    resumes after them, so emitted windows never overlap.  Longitudes are
    unwrapped to within 180 degrees of the window's first fix, so a dwell
    on the dateline averages to a point on it.

    The scan carries ``bound``, an upper bound on every window fix's
    distance to the current centroid.  When the centroid moves by
    ``drift``, great-circle distance being a metric gives the new bound
    ``bound + drift + slack`` (slack = STAY_BOUND_SLACK * stay_radius
    covers float error); while that is within stay_radius only the new fix
    is measured, and otherwise the whole window is re-measured and the
    bound reset to the exact maximum.  The result equals that of
    re-measuring every fix for every candidate centroid, at about two
    distance evaluations per fix instead of one per window fix.
    """
    lat, lon, t = traj.lat.tolist(), traj.lon.tolist(), traj.t.tolist()
    n = len(t)
    radius = p.stay_radius_m
    slack = STAY_BOUND_SLACK * radius
    out: list[Staypoint] = []
    i = 0
    while i < n:
        ref = lon[i]
        lat_sum, lon_sum = lat[i], ref
        cur_lat, cur_lon = lat[i], ref
        bound = 0.0
        j = i
        while j + 1 < n:
            new_lat, new_lon = lat[j + 1], _unwrap(lon[j + 1], ref)
            cand_lat = (lat_sum + new_lat) / (j + 2 - i)
            cand_lon = (lon_sum + new_lon) / (j + 2 - i)
            d_new = haversine_m(new_lat, new_lon, cand_lat, cand_lon)
            if d_new > radius:
                break
            nb = bound + haversine_m(cur_lat, cur_lon, cand_lat, cand_lon) + slack
            if nb > radius:
                nb = max(
                    haversine_m(lat[m], _unwrap(lon[m], ref), cand_lat, cand_lon)
                    for m in range(i, j + 1)
                )
                if nb > radius:
                    break
            bound = max(nb, d_new)
            lat_sum += new_lat
            lon_sum += new_lon
            cur_lat, cur_lon = cand_lat, cand_lon
            j += 1
        if t[j] - t[i] >= p.stay_min_duration_s:
            out.append(
                Staypoint(
                    traj.user_id,
                    lat_sum / (j + 1 - i),
                    _unwrap(lon_sum / (j + 1 - i)),
                    t[i],
                    t[j],
                )
            )
            i = j + 1
        else:
            i += 1
    return out


def build_alphabet(
    staypoints: Sequence[Staypoint], p: ExtractionParams
) -> tuple[PoiAlphabet, list[Optional[int]]]:
    """Cluster staypoints into POIs; returns alphabet and per-staypoint ids.

    Processing order is sorted by (arrival, user_id, lat, lon) so the
    greedy result is deterministic.  Each staypoint joins the nearest
    existing cluster whose running-mean centroid is within
    cluster_merge_radius (ties to the older cluster), else founds a new
    one; the mean takes each longitude unwrapped to within 180 degrees of
    the centroid, so clusters on the dateline stay on it.  Clusters with
    fewer than min_visits members are dropped; their staypoints get
    assignment None.  Surviving clusters are renumbered densely in
    founding order.
    """
    if not staypoints:
        raise DataError("no staypoints to cluster")
    order = sorted(
        range(len(staypoints)),
        key=lambda idx: (
            staypoints[idx].arrival,
            staypoints[idx].user_id,
            staypoints[idx].lat,
            staypoints[idx].lon,
        ),
    )
    centroids: list[tuple[float, float]] = []
    members: list[list[int]] = []
    cluster_of = [0] * len(staypoints)
    for idx in order:
        sp = staypoints[idx]
        best = -1
        best_dist = p.cluster_merge_radius_m
        for c, (clat, clon) in enumerate(centroids):
            dist = haversine_m(sp.lat, sp.lon, clat, clon)
            if dist <= best_dist and (best == -1 or dist < best_dist):
                best, best_dist = c, dist
        if best == -1:
            centroids.append((sp.lat, sp.lon))
            members.append([idx])
            cluster_of[idx] = len(centroids) - 1
        else:
            members[best].append(idx)
            k = len(members[best])
            clat, clon = centroids[best]
            centroids[best] = (
                clat + (sp.lat - clat) / k,
                _unwrap(clon + (_unwrap(sp.lon, clon) - clon) / k),
            )
            cluster_of[idx] = best
    poi_of_cluster: dict[int, int] = {}
    entries = []
    for c in range(len(centroids)):
        if len(members[c]) >= p.min_visits:
            poi_of_cluster[c] = len(entries)
            lat, lon = centroids[c]
            entries.append(PoiRecord(len(entries), lat, lon, None))
    if not entries:
        raise DataError("no POIs survive min_visits")
    assignments: list[Optional[int]] = [
        poi_of_cluster.get(cluster_of[i]) for i in range(len(staypoints))
    ]
    return PoiAlphabet(tuple(entries)), assignments


def to_poi_sequence(
    user_id: str,
    staypoints: Sequence[Staypoint],
    assignments: Sequence[Optional[int]],
) -> Optional[PoiSequence]:
    """Order one user's assigned staypoints by arrival into a PoiSequence.

    Discarded staypoints (assignment None) are skipped; consecutive
    duplicates collapse to the first arrival.  Returns None if nothing
    survives.
    """
    visits = sorted(
        (sp.arrival, pid)
        for sp, pid in zip(staypoints, assignments)
        if pid is not None
    )
    if not visits:
        return None
    arrivals, pids = zip(*visits)
    return PoiSequence.from_visits(user_id, pids, arrivals)


def extract_dataset(
    trajs: Sequence[RawTrajectory],
    params: ExtractionParams,
    name: str,
) -> Dataset:
    """Full extraction: staypoints per user, one shared alphabet, sequences.

    Users whose sequence collapses below 2 symbols are excluded from the
    dataset and listed in provenance["excluded_short_users"]; raw fix
    counts are recorded for the length-vs-symbols report distinction.
    """
    all_sps: list[Staypoint] = []
    spans: dict[str, tuple[int, int]] = {}
    for traj in trajs:
        sps = detect_staypoints(traj, params)
        spans[traj.user_id] = (len(all_sps), len(all_sps) + len(sps))
        all_sps.extend(sps)
    if not all_sps:
        raise DataError("no staypoints detected in any trajectory")
    alphabet, assignments = build_alphabet(all_sps, params)
    sequences = []
    excluded: list[str] = []
    for traj in trajs:
        lo, hi = spans[traj.user_id]
        seq = to_poi_sequence(
            traj.user_id, all_sps[lo:hi], assignments[lo:hi]
        )
        if seq is None or len(seq) < 2:
            excluded.append(traj.user_id)
            continue
        sequences.append(seq)
    if not sequences:
        raise DataError("all users collapsed to short sequences")
    return Dataset(
        name=name,
        alphabet=alphabet,
        sequences=tuple(sequences),
        provenance={
            "source": "extract",
            "extraction_params": asdict(params),
            "raw_fix_count": sum(len(t) for t in trajs),
            "excluded_short_users": excluded,
        },
    )
