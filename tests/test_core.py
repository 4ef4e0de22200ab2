import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobmeta.core import (
    DataError,
    PoiAlphabet,
    PoiRecord,
    PoiSequence,
    SEPARATOR,
    RawTrajectory,
    concat_user_streams,
)

from conftest import make_dataset
from oracles import collapse_self_transitions


def test_raw_trajectory_range_checks():
    RawTrajectory("u", [45.0, -90.0], [7.0, 180.0], [0, 1])
    for lat, lon in ((95.0, 7.0), (45.0, 181.0), (float("nan"), 7.0),
                     (45.0, float("-inf"))):
        with pytest.raises(DataError):
            RawTrajectory("u", [45.0, lat], [7.0, lon], [0, 1])


def test_raw_trajectory_requires_ascending_time():
    with pytest.raises(DataError, match="index 1"):
        RawTrajectory("u", [1.0, 1.0], [1.0, 1.0], [10, 5])
    with pytest.raises(DataError, match="no points"):
        RawTrajectory("u", [], [], [])
    with pytest.raises(DataError, match="differ in length"):
        RawTrajectory("u", [1.0, 1.0], [1.0], [1, 2])


def test_columns_are_read_only_copies():
    ids, ts = np.array([0, 1, 0]), np.array([5, 6, 7])
    seq = PoiSequence("u", ids, ts)
    ids[0] = 9
    assert seq.poi_ids.tolist() == [0, 1, 0]
    traj = RawTrajectory("u", [1.0, 2.0], [3.0, 4.0], [1, 2])
    for col in (seq.poi_ids, seq.timestamps, traj.lat, traj.lon, traj.t,
                seq.poi_ids[1:]):
        with pytest.raises(ValueError):
            col[0] = 0
    assert seq.poi_ids.dtype == seq.timestamps.dtype == np.int64
    assert traj.lat.dtype == traj.lon.dtype == np.float64
    assert traj.t.dtype == np.int64


def test_collapse_examples():
    assert collapse_self_transitions([1, 1, 2, 2, 2, 3, 1, 1]) == [1, 2, 3, 1]
    assert collapse_self_transitions([5]) == [5]
    assert collapse_self_transitions([]) == []
    assert collapse_self_transitions([2, 3, 2, 3]) == [2, 3, 2, 3]


def test_collapse_is_idempotent(rng):
    for _ in range(50):
        seq = rng.integers(0, 4, size=40).tolist()
        once = collapse_self_transitions(seq)
        assert collapse_self_transitions(once) == once
        assert all(a != b for a, b in zip(once, once[1:]))


def test_poi_sequence_rejects_self_transitions():
    with pytest.raises(DataError, match="self-transition 1 -> 1"):
        PoiSequence("u", [2, 1, 1], [0, 5, 6])


def test_poi_sequence_from_visits_keeps_first_of_run():
    seq = PoiSequence.from_visits("u", [7, 7, 3, 3, 7], [0, 10, 20, 30, 40])
    assert seq.poi_ids.tolist() == [7, 3, 7]
    assert seq.timestamps.tolist() == [0, 20, 40]
    assert seq.poi_ids.dtype == np.int64


def test_poi_sequence_requires_ascending_time():
    with pytest.raises(DataError):
        PoiSequence.from_visits("u", [1, 2], [10, 10])
    with pytest.raises(DataError, match="int64|too large"):
        PoiSequence("u", [0, 1], [0, 2**63])


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 40)),
                min_size=1, max_size=30))
def test_from_visits_equals_collapse_oracle(visits):
    ids = [p for p, _ in visits]
    ts = [t for _, t in visits]
    kept = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
    kept_ts = [ts[i] for i in kept]
    if any(b <= a for a, b in zip(kept_ts, kept_ts[1:])):
        with pytest.raises(DataError, match="not strictly ascending"):
            PoiSequence.from_visits("u", ids, ts)
        return
    seq = PoiSequence.from_visits("u", ids, ts)
    assert seq.poi_ids.tolist() == collapse_self_transitions(ids)
    assert seq.timestamps.tolist() == kept_ts


def test_alphabet_dense_ids_and_separator():
    alpha = PoiAlphabet(
        (PoiRecord(0, 0.0, 0.0, "a"), PoiRecord(1, 1.0, 1.0, "b"))
    )
    assert alpha.size == 2
    assert [e.poi_id for e in alpha.entries] == [0, 1]
    with pytest.raises(DataError):
        PoiAlphabet((PoiRecord(1, 0.0, 0.0, "a"),))
    synthetic = PoiAlphabet.synthetic(3)
    assert synthetic.entries[2] == PoiRecord(2, 0.0, 0.002, "S2")
    assert synthetic.size == 3


def test_dataset_rejects_out_of_alphabet_symbols():
    with pytest.raises(DataError, match="poi_id 5 not in alphabet"):
        make_dataset({"u": [0, 5, 0]}, n_pois=3)
    with pytest.raises(DataError, match="poi_id -1 not in alphabet"):
        make_dataset({"u": [0, -1, 0]}, n_pois=3)


def test_concat_single_user_has_no_separator():
    ds = make_dataset({"a": [0, 1, 0, 2, 1]})
    stream = concat_user_streams(ds.sequences)
    assert stream.tolist() == [0, 1, 0, 2, 1]


def test_concat_unique_separator():
    ds = make_dataset({"a": [0, 1], "b": [2, 1], "c": [0, 2]})
    stream = concat_user_streams(ds.sequences)
    assert stream.tolist() == [0, 1, SEPARATOR, 2, 1, SEPARATOR, 0, 2]


def test_sequence_refuses_a_negative_poi_id():
    # so that no user stream can hold the separator
    with pytest.raises(DataError, match="user 'u': poi_id -1 not in alphabet"):
        PoiSequence("u", [0, -1, 0], [0, 1, 2])
    with pytest.raises(DataError, match=f"poi_id {SEPARATOR} not in"):
        PoiSequence.from_visits("u", [SEPARATOR, SEPARATOR, 0], [0, 1, 2])


def test_dataset_equality_and_n_users():
    ds1 = make_dataset({"a": [0, 1], "b": [1, 0]})
    ds2 = make_dataset({"a": [0, 1], "b": [1, 0]})
    assert ds1 == ds2
    assert ds1.n_users == 2
    assert ds1 != make_dataset({"a": [0, 1], "b": [1, 0, 1]})
