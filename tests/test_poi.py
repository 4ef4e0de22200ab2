import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobmeta import poi
from mobmeta.core import DataError, RawTrajectory
from mobmeta.poi import (
    EARTH_RADIUS_M,
    ExtractionParams,
    Staypoint,
    build_alphabet,
    detect_staypoints,
    extract_dataset,
    haversine_m,
    to_poi_sequence,
)
import oracles

DEG_M = EARTH_RADIUS_M * math.pi / 180.0  # meters per degree along a meridian


def traj(user, fixes):
    return RawTrajectory(user, *zip(*fixes))


def test_haversine_analytic_points():
    # along the equator the great circle is the equator itself
    assert haversine_m(0, 0, 0, 1) == pytest.approx(DEG_M, rel=1e-12)
    assert haversine_m(0, 0, 0, 180) == pytest.approx(
        math.pi * EARTH_RADIUS_M, rel=1e-12
    )
    assert haversine_m(45.0, 7.0, 45.0, 7.0) == 0.0
    # symmetric
    assert haversine_m(10, 20, 30, 40) == haversine_m(30, 40, 10, 20)


def test_haversine_matches_law_of_cosines(rng):
    for _ in range(50):
        lat1, lat2 = rng.uniform(-80, 80, 2)
        lon1, lon2 = rng.uniform(-179, 179, 2)
        p1, p2 = math.radians(lat1), math.radians(lat2)
        cosang = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(
            p2
        ) * math.cos(math.radians(lon2 - lon1))
        expected = EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, cosang)))
        assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(
            expected, abs=1e-4
        )


def test_params_validation_and_warning():
    with pytest.raises(DataError):
        ExtractionParams(stay_radius_m=-1)
    with pytest.raises(DataError):
        ExtractionParams(min_visits=0)
    with pytest.warns(UserWarning):
        ExtractionParams(stay_radius_m=300.0, cluster_merge_radius_m=100.0)


P = ExtractionParams(
    stay_radius_m=200.0,
    stay_min_duration_s=1200.0,
    cluster_merge_radius_m=250.0,
    min_visits=2,
)


def test_single_dwell_detected():
    # 10 identical fixes spanning 30 minutes
    fixes = [(45.0, 7.0, i * 200) for i in range(10)]
    sps = detect_staypoints(traj("u", fixes), P)
    assert len(sps) == 1
    assert sps[0].arrival == 0 and sps[0].departure == 1800
    assert sps[0].lat == pytest.approx(45.0) and sps[0].lon == pytest.approx(7.0)


def test_continuous_motion_yields_nothing():
    # 1 km per minute, one fix per minute
    step = 1000.0 / DEG_M
    fixes = [(45.0 + i * step, 7.0, i * 60) for i in range(40)]
    assert detect_staypoints(traj("u", fixes), P) == []


def test_two_dwells_on_hand_built_trace():
    # 50 fixes: dwell A (15 fixes, 28 min), travel, dwell B (20), travel
    fixes = []
    t = 0
    for i in range(15):
        fixes.append((45.0, 7.0, t))
        t += 120
    for i in range(10):
        fixes.append((45.0 + (i + 1) * 1000.0 / DEG_M, 7.0, t))
        t += 60
    for i in range(20):
        fixes.append((45.0 + 11000.0 / DEG_M, 7.0, t))
        t += 120
    for i in range(5):
        fixes.append((45.0 + (12 + i) * 1000.0 / DEG_M, 7.0, t))
        t += 60
    assert len(fixes) == 50
    tr = traj("u", fixes)
    sps = detect_staypoints(tr, P)
    assert len(sps) == 2
    assert (sps[0].arrival, sps[0].departure) == (0, 14 * 120)
    naive = oracles.naive_staypoints(tr, P)
    assert [
        (sp.lat, sp.lon, sp.arrival, sp.departure) for sp in sps
    ] == pytest.approx(naive)


def test_detector_agrees_with_naive_on_random_walks(rng):
    for _ in range(20):
        fixes = []
        lat, lon, t = 45.0, 7.0, 0
        for _ in range(60):
            if rng.random() < 0.5:  # dwell-ish jitter vs jump
                lat += rng.uniform(-30, 30) / DEG_M
            else:
                lat += rng.uniform(300, 900) / DEG_M
            t += int(rng.integers(60, 400))
            fixes.append((lat, lon, t))
        tr = traj("u", fixes)
        got = [
            (sp.lat, sp.lon, sp.arrival, sp.departure)
            for sp in detect_staypoints(tr, P)
        ]
        assert got == pytest.approx(oracles.naive_staypoints(tr, P))


@pytest.mark.parametrize("first, rest", [(-179.99995, 179.99995),
                                         (179.99995, -179.9999)])
def test_dwell_across_the_dateline_is_detected(first, rest):
    # 10 fixes alternating 11-16 m either side of the antimeridian over
    # 30 minutes; the second case's unwrapped mean lies beyond 180
    fixes = [(0.0, rest if i % 2 else first, i * 200) for i in range(10)]
    tr = traj("u", fixes)
    sps = detect_staypoints(tr, P)
    assert [(s.arrival, s.departure) for s in sps] == [(0, 1800)]
    assert -180.0 <= sps[0].lon <= 180.0
    assert haversine_m(0.0, 180.0, sps[0].lat, sps[0].lon) < 10.0
    assert sps == oracles.staypoints_by_full_recheck(tr, P)
    assert [(s.lat, s.lon, s.arrival, s.departure) for s in sps] == \
        pytest.approx(oracles.naive_staypoints(tr, P))


def _offset(lat, lon, north_m, east_m):
    """(lat, lon) moved by the given meters; latitude clamped at the
    poles, longitude wrapped across the dateline."""
    lat2 = min(90.0, max(-90.0, lat + north_m / DEG_M))
    coslat = max(1e-3, math.cos(math.radians(lat2)))
    lon2 = (lon + east_m / (DEG_M * coslat) + 180.0) % 360.0 - 180.0
    return lat2, lon2


# dwell anchors: mid-latitude, on the dateline, next to the north pole,
# next to the south pole on the dateline
ANCHORS = [(45.0, 7.0), (0.0, 180.0), (89.9999, 0.0), (-89.99, -180.0)]


@st.composite
def staypoint_cases(draw):
    """A trace that alternates dwells of fixes jittered out to about the
    stay radius with jumps of several radii, plus its parameters."""
    radius = draw(st.sampled_from([1.0, 50.0, 200.0, 5e5]))
    lat, lon = draw(st.sampled_from(ANCHORS))
    unit = st.floats(-1.0, 1.0)
    fixes, t = [], 0
    for _ in range(draw(st.integers(1, 60))):
        if draw(st.booleans()) and draw(st.booleans()):
            lat, lon = _offset(lat, lon, draw(unit) * 6 * radius,
                               draw(unit) * 6 * radius)
        r = draw(st.floats(0.0, 1.3)) * radius
        theta = draw(unit) * math.pi
        fixes.append((*_offset(lat, lon, r * math.cos(theta),
                               r * math.sin(theta)), t))
        t += draw(st.integers(30, 600))
    params = ExtractionParams(
        stay_radius_m=radius,
        stay_min_duration_s=draw(st.sampled_from([300.0, 1200.0])),
        cluster_merge_radius_m=max(250.0, radius),
    )
    return traj("u", fixes), params


@settings(max_examples=300, deadline=None)
@given(staypoint_cases())
def test_detector_equals_full_recheck(case):
    tr, params = case
    assert detect_staypoints(tr, params) == oracles.staypoints_by_full_recheck(
        tr, params
    )


def test_long_dwell_costs_few_distance_evaluations(monkeypatch):
    # one dwell of 2,000 fixes jittered up to 60 m per axis: the full
    # re-check measures about 1,000 distances per fix, the drift bound
    # a handful
    rng = np.random.default_rng(2008)
    n = 2000
    east = 60.0 / (DEG_M * math.cos(math.radians(45.0)))
    tr = traj("u", [(45.0 + rng.uniform(-60, 60) / DEG_M,
                     7.0 + rng.uniform(-1, 1) * east, 30 * i)
                    for i in range(n)])
    calls = 0
    exact = poi.haversine_m

    def counting(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    monkeypatch.setattr(poi, "haversine_m", counting)
    sps = detect_staypoints(tr, P)
    assert [(s.arrival, s.departure) for s in sps] == [(0, 30 * (n - 1))]
    assert calls <= 20 * n


def sp(user, lat_m, t):
    """Staypoint lat_m meters north of 45N along the meridian at 7E."""
    return Staypoint(user, 45.0 + lat_m / DEG_M, 7.0, t, t + 1800)


def test_close_staypoints_merge():
    alpha, assign = build_alphabet(
        [sp("u", 0.0, 0), sp("u", 10.0, 4000)],
        ExtractionParams(min_visits=1),
    )
    assert alpha.size == 1
    assert assign == [0, 0]


def test_distant_staypoints_stay_apart():
    alpha, assign = build_alphabet(
        [sp("u", 0.0, 0), sp("u", 10000.0, 4000)],
        ExtractionParams(min_visits=1),
    )
    assert alpha.size == 2
    assert assign == [0, 1]


def test_staypoints_across_the_dateline_merge():
    # 22 m apart across the antimeridian: one POI on it, not at lon 0
    east = Staypoint("u", 0.0, 179.9999, 0, 1800)
    west = Staypoint("u", 0.0, -179.9999, 4000, 5800)
    alpha, assign = build_alphabet([east, west], ExtractionParams())
    assert assign == [0, 0]
    poi = alpha.entries[0]
    assert -180.0 <= poi.lon <= 180.0
    assert haversine_m(0.0, 180.0, poi.lat, poi.lon) < 1.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_chain_clustering_follows_processing_order():
    # A at 0 m, B at 90 m, C at 180 m; merge radius 100 m.  A founds a
    # cluster, B joins it (90 <= 100) pulling the centroid to 45 m, C is
    # then 135 m away and founds its own cluster.
    params = ExtractionParams(cluster_merge_radius_m=100.0, min_visits=1)
    a, b, c = sp("u", 0.0, 0), sp("u", 90.0, 4000), sp("u", 180.0, 8000)
    alpha, assign = build_alphabet([a, b, c], params)
    assert assign == [0, 0, 1]
    got_m = (alpha.entries[0].lat - 45.0) * DEG_M
    assert got_m == pytest.approx(45.0, abs=1e-6)
    # with min_visits=2 the singleton C cluster is dropped
    alpha2, assign2 = build_alphabet(
        [a, b, c], ExtractionParams(cluster_merge_radius_m=100.0, min_visits=2)
    )
    assert alpha2.size == 1
    assert assign2 == [0, 0, None]


def test_all_filtered_is_error():
    with pytest.raises(DataError, match="min_visits"):
        build_alphabet([sp("u", 0.0, 0)], ExtractionParams(min_visits=5))


def test_min_visits_monotonicity(rng):
    sps = [
        sp(f"u{int(rng.integers(3))}", float(rng.uniform(0, 2000)), i * 4000)
        for i in range(40)
    ]
    sizes = []
    for mv in (1, 2, 3, 5, 8):
        try:
            alpha, _ = build_alphabet(
                sps, ExtractionParams(min_visits=mv)
            )
            sizes.append(alpha.size)
        except DataError:
            sizes.append(0)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_to_poi_sequence_collapse_and_short():
    sps = [sp("u", 0.0, 0), sp("u", 5.0, 4000), sp("u", 5000.0, 8000)]
    seq = to_poi_sequence("u", sps, [0, 0, 1])
    assert seq.poi_ids.tolist() == [0, 1]
    assert seq.timestamps.tolist() == [0, 8000]
    seq2 = to_poi_sequence("u", sps, [0, 0, None])
    assert seq2.poi_ids.tolist() == [0]
    assert to_poi_sequence("u", sps, [None, None, None]) is None


def test_extract_dataset_excludes_short_users():
    # alice alternates two spots, bob dwells once at a shared spot
    fixes_a = []
    t = 0
    for cycle in range(4):
        for spot_m in (0.0, 5000.0):
            for _ in range(8):
                fixes_a.append((45.0 + spot_m / DEG_M, 7.0, t))
                t += 300
            t += 900
    fixes_b = [(45.0, 7.0, 100 + i * 300) for i in range(8)]
    ds = extract_dataset(
        [traj("alice", fixes_a), traj("bob", fixes_b)], P, "walk"
    )
    assert [s.user_id for s in ds.sequences] == ["alice"]
    assert ds.provenance["excluded_short_users"] == ["bob"]
    assert ds.alphabet.size == 2
    assert ds.sequences[0].poi_ids.tolist() == [0, 1] * 4
    assert ds.provenance["raw_fix_count"] == len(fixes_a) + len(fixes_b)


def test_extraction_deterministic():
    fixes = []
    for k, spot_m in enumerate((0.0, 5000.0, 0.0, 5000.0)):
        fixes += [
            (45.0 + spot_m / DEG_M, 7.0, k * 3000 + i * 200) for i in range(10)
        ]
    ds1 = extract_dataset([traj("u", fixes)], P, "d")
    ds2 = extract_dataset([traj("u", fixes)], P, "d")
    assert ds1 == ds2
