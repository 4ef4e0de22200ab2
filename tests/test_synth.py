import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobmeta.core import DataError
from mobmeta.ingest import dataset_digest, save_dataset
from mobmeta.entropy import binary_entropy
from mobmeta.metrics import mutual_information_at_distance
from mobmeta.predictors import PredictorSpec, train
from mobmeta.rng import SplitMix64
from mobmeta.synth import (
    SourceSpec,
    generate,
    raw_stream,
    spec_from_dict,
    spec_to_dict,
)
from oracles import (
    ScalarSplitMix64, mi_by_pair_enumeration, native_predict,
    scalar_raw_stream,
)

ZD4 = np.array(
    [
        [0.0, 1 / 3, 1 / 3, 1 / 3],
        [1 / 3, 0.0, 1 / 3, 1 / 3],
        [1 / 3, 1 / 3, 0.0, 1 / 3],
        [1 / 3, 1 / 3, 1 / 3, 0.0],
    ]
)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        SourceSpec(kind="brownian", n_symbols=10)
    with pytest.raises(ValueError, match="dist"):
        SourceSpec(kind="iid", n_symbols=10)
    with pytest.raises(ValueError, match="normalized"):
        SourceSpec(kind="iid", n_symbols=10, dist=(0.5, 0.6))
    with pytest.raises(ValueError, match="normalized"):
        SourceSpec(
            kind="markov_order_k", n_symbols=10,
            transition=np.array([[0.5, 0.4], [0.5, 0.5]]),
        )
    with pytest.raises(ValueError, match="nest"):
        inner = SourceSpec(kind="periodic", n_symbols=10, pattern=(0, 1))
        outer = SourceSpec(
            kind="regime_switch", n_symbols=10,
            spec_a=inner, spec_b=inner, switch_fraction=0.5,
        )
        SourceSpec(
            kind="regime_switch", n_symbols=10,
            spec_a=outer, spec_b=inner,
        )
    with pytest.raises(ValueError, match="eps"):
        SourceSpec(kind="copy_with_gap", n_symbols=10, gap=2, eps=1.0)


def test_seed_determinism():
    spec = SourceSpec(
        kind="markov_order_k", n_symbols=500, n_users=3, seed=9,
        transition=ZD4,
    )
    ds1, gt1 = generate(spec)
    ds2, gt2 = generate(spec)
    assert ds1 == ds2 and gt1 == gt2
    ds3, _ = generate(
        SourceSpec(kind="markov_order_k", n_symbols=500, n_users=3,
                   seed=10, transition=ZD4)
    )
    assert ds3 != ds1


def test_users_draw_from_one_stream():
    spec = SourceSpec(
        kind="markov_order_k", n_symbols=300, n_users=2, seed=4,
        transition=ZD4,
    )
    ds, _ = generate(spec)
    a, b = ds.sequences
    assert a.user_id == "u0000" and b.user_id == "u0001"
    assert a.poi_ids.tolist() != b.poi_ids.tolist()


def test_periodic_markov1_is_perfect():
    ds, gt = generate(
        SourceSpec(kind="periodic", n_symbols=300, pattern=(0, 1, 2), seed=1)
    )
    assert gt["entropy_rate_bits"] == 0.0
    assert gt["collapse_is_noop"] is True
    ids = ds.sequences[0].poi_ids
    assert ids.shape[0] == 300
    model = train(
        PredictorSpec(kind="markov_k", k=1), ids[:150], alphabet_size=3
    )
    assert all(
        native_predict(model, [int(ids[i - 1])])[0] == int(ids[i])
        for i in range(150, 300)
    )


def test_copy_with_gap_noiseless_freezes_periodic():
    # eps=0 copies the first gap driver bits forever: the emitted stream
    # is exactly periodic with period 2*gap (bit period times phase)
    spec = SourceSpec(kind="copy_with_gap", n_symbols=20_000, gap=5,
                      eps=0.0, seed=12)
    ds, gt = generate(spec)
    assert gt["bit_channel_mi_at_gap_bits"] == 1.0
    assert gt["phase_mi_every_distance_bits"] == 1.0
    assert gt["entropy_rate_bits"] == 0.0
    assert gt["collapse_is_noop"] is True
    ids = ds.sequences[0].poi_ids
    # collapse really was a no-op
    assert ids.tolist() == raw_stream(spec, SplitMix64(12))
    assert np.array_equal(ids[10:], ids[:-10])
    # no two adjacent symbols equal (the phase bit alternates)
    assert np.all(ids[1:] != ids[:-1])


def test_copy_with_gap_designed_dependence():
    # small eps keeps the bit process mixing, so the plug-in estimate
    # converges to the ensemble value: 1 bit of phase at every distance
    # plus the bit channel's 1 - H_b(eps/2) at the gap
    eps = 0.05
    spec = SourceSpec(kind="copy_with_gap", n_symbols=40_000, gap=5,
                      eps=eps, seed=12)
    ds, gt = generate(spec)
    designed = 1.0 - binary_entropy(eps / 2.0)
    assert gt["bit_channel_mi_at_gap_bits"] == pytest.approx(designed)
    ids = ds.sequences[0].poi_ids
    assert mutual_information_at_distance(ids, 5) == pytest.approx(
        1.0 + designed, abs=0.02
    )
    for d in (1, 2, 3, 4):
        assert mutual_information_at_distance(ids, d) == pytest.approx(
            1.0, abs=0.02
        )


def test_copy_with_gap_noisy_channel_matches_oracle():
    eps = 0.2
    spec = SourceSpec(kind="copy_with_gap", n_symbols=20_000, gap=3,
                      eps=eps, seed=8)
    ds, gt = generate(spec)
    designed = 1.0 - binary_entropy(eps / 2.0)
    assert gt["bit_channel_mi_at_gap_bits"] == pytest.approx(designed)
    ids = ds.sequences[0].poi_ids.tolist()
    got = mutual_information_at_distance(ids, 3)
    assert got == pytest.approx(
        mi_by_pair_enumeration(ids, 3), abs=1e-12
    )
    assert got - 1.0 == pytest.approx(designed, abs=0.03)


def test_regime_switch_halves_match_their_specs():
    spec_a = SourceSpec(
        kind="markov_order_k", n_symbols=2, transition=ZD4
    )
    spec_b = SourceSpec(kind="periodic", n_symbols=2, pattern=(0, 1, 2, 3))
    spec = SourceSpec(
        kind="regime_switch", n_symbols=20_000, seed=3,
        spec_a=spec_a, spec_b=spec_b, switch_fraction=0.5,
    )
    _, gt = generate(spec)
    assert gt["switch_index"] == 10_000
    stream = raw_stream(spec, SplitMix64(3))
    first, second = stream[:10_000], stream[10_000:]

    def transition_freqs(seg):
        counts = np.zeros((4, 4))
        for a, b in zip(seg, seg[1:]):
            counts[a, b] += 1
        return counts / counts.sum(axis=1, keepdims=True)

    np.testing.assert_allclose(transition_freqs(first), ZD4, atol=0.04)
    cycle = np.zeros((4, 4))
    for s in range(4):
        cycle[s, (s + 1) % 4] = 1.0
    # skip the boundary transition, it belongs to neither regime
    np.testing.assert_allclose(transition_freqs(second[1:]), cycle, atol=1e-12)


def test_ground_truth_entropies():
    _, gt = generate(
        SourceSpec(kind="iid", n_symbols=100, dist=(0.5, 0.25, 0.25), seed=2)
    )
    assert gt["entropy_rate_bits"] == pytest.approx(1.5)
    assert gt["collapse_is_noop"] is False
    _, gt = generate(
        SourceSpec(kind="markov_order_k", n_symbols=100, seed=2,
                   transition=ZD4)
    )
    assert gt["entropy_rate_bits"] == pytest.approx(math.log2(3))
    assert gt["collapse_is_noop"] is True
    det = np.array([[0.0, 1.0], [1.0, 0.0]])
    _, gt = generate(
        SourceSpec(kind="markov_order_k", n_symbols=100, seed=2,
                   transition=det)
    )
    assert gt["entropy_rate_bits"] == pytest.approx(0.0, abs=1e-12)


def test_constant_collapse_rejected():
    with pytest.raises(DataError, match="constant"):
        generate(SourceSpec(kind="periodic", n_symbols=50, pattern=(2, 2)))


def test_spec_dict_round_trip():
    inner_a = SourceSpec(
        kind="markov_order_k", n_symbols=2, transition=ZD4
    )
    inner_b = SourceSpec(kind="periodic", n_symbols=2, pattern=(0, 1, 2))
    for spec in (
        SourceSpec(kind="iid", n_symbols=50, n_users=2, seed=3,
                   dist=(0.5, 0.5)),
        SourceSpec(kind="periodic", n_symbols=40, n_users=3, seed=8,
                   pattern=(2, 0, 3, 1)),
        SourceSpec(kind="markov_order_k", n_symbols=60, n_users=2, seed=9,
                   transition=np.full((3, 3, 3), 1 / 3)),
        SourceSpec(kind="copy_with_gap", n_symbols=50, gap=4, eps=0.1),
        SourceSpec(kind="regime_switch", n_symbols=50, seed=5,
                   spec_a=inner_a, spec_b=inner_b, switch_fraction=0.7),
    ):
        back = spec_from_dict(spec_to_dict(spec))
        assert spec_to_dict(back) == spec_to_dict(spec)


def test_spec_from_dict_rejects_malformed():
    with pytest.raises(DataError, match="malformed source spec"):
        spec_from_dict({"kind": "iid", "n_symbols": 50})
    with pytest.raises(DataError, match="malformed source spec"):
        spec_from_dict({"n_symbols": 50})


@pytest.mark.parametrize("key", ["gap", "seed_"])
def test_spec_from_dict_refuses_a_key_its_kind_does_not_read(key):
    obj = {"kind": "periodic", "n_symbols": 50, "pattern": [0, 1], key: 3}
    with pytest.raises(DataError, match=f"kind periodic does not read "
                                        f"'{key}'; it reads: n_symbols"):
        spec_from_dict(obj)


def test_nested_spec_holds_its_kind_fields_only():
    # generation reads only the dynamics of spec_a and spec_b, so their
    # JSON form holds nothing else and n_symbols, n_users, seed are refused
    inner = SourceSpec(kind="periodic", n_symbols=99999, seed=2,
                       pattern=(0, 1, 2))
    spec = SourceSpec(kind="regime_switch", n_symbols=50, n_users=2, seed=5,
                      spec_a=inner, spec_b=inner)
    obj = spec_to_dict(spec)
    assert obj["spec_a"] == obj["spec_b"] == {"kind": "periodic",
                                              "pattern": [0, 1, 2]}
    back = spec_from_dict(obj)
    assert (back.spec_a.n_symbols, back.spec_a.n_users, back.spec_a.seed) == (
        50, 2, 5)
    for key in ("n_symbols", "n_users", "seed"):
        bad = dict(obj, spec_b={**obj["spec_b"], key: 3})
        with pytest.raises(DataError, match=f"kind periodic does not read "
                                            f"'{key}'; it reads: pattern$"):
            spec_from_dict(bad)


def test_provenance_recorded():
    ds, _ = generate(
        SourceSpec(kind="periodic", n_symbols=30, pattern=(0, 1), seed=6)
    )
    assert ds.provenance["source"] == "synth"
    assert ds.provenance["kind"] == "periodic"
    assert ds.provenance["seed"] == 6
    assert ds.name == "synth_periodic"


def zipf(k):
    w = [1.0 / (i + 1) for i in range(k)]
    total = math.fsum(w)
    return tuple(x / total for x in w)


def order2_transition():
    """A 4-symbol order-2 table with one zero-probability entry per row."""
    a, b, c = np.indices((4, 4, 4))
    w = ((a * 7 + b * 3 + c * 5) % 4).astype(np.float64)
    return w / w.sum(axis=-1, keepdims=True)


PINNED_SPECS = {
    "iid_zipf_k300": (
        SourceSpec(kind="iid", dist=zipf(300), n_symbols=2500, n_users=2,
                   seed=7),
        "404cf1146e3bd44d8a65f838aaf42adab97ffa3fff9277511982fbdc87086402"),
    "markov_order2": (
        SourceSpec(kind="markov_order_k", transition=order2_transition(),
                   n_symbols=3000, n_users=2, seed=5),
        "ad507f8068704b73503b2f1b4e1af70133e77352fb4cdc16e5335262819ffc15"),
    "copy_with_gap": (
        SourceSpec(kind="copy_with_gap", gap=6, eps=0.3, n_symbols=4000,
                   n_users=2, seed=7),
        "46bb40eb879a4118de18403ae489f19652b8c0cda01a7b323496a88aa4bdbb2f"),
    "regime_switch": (
        SourceSpec(kind="regime_switch", n_symbols=3000, n_users=2, seed=13,
                   switch_fraction=0.4,
                   spec_a=SourceSpec(kind="iid", dist=zipf(5), n_symbols=2),
                   spec_b=SourceSpec(kind="copy_with_gap", gap=3, eps=0.2,
                                     n_symbols=2)),
        "e15cb014626057386e3da75bb858fce62c7487ebad6be91925f0e81e8b2fa910"),
}


@pytest.mark.parametrize("spec, digest", PINNED_SPECS.values(),
                         ids=PINNED_SPECS)
def test_saved_dataset_bytes_pinned(tmp_path, spec, digest):
    # captured while every draw was one scalar SplitMix64 step: block
    # draws must leave the saved datasets byte for byte as they were
    ds, _ = generate(spec)
    save_dataset(ds, tmp_path / "d")
    assert dataset_digest(tmp_path / "d") == "sha256:" + digest


SOURCES = [
    SourceSpec(kind="iid", dist=zipf(7), n_symbols=2),
    SourceSpec(kind="iid", dist=(0.5, 0.0, 0.5), n_symbols=2),
    SourceSpec(kind="periodic", pattern=(0, 1, 2), n_symbols=2),
    SourceSpec(kind="markov_order_k", transition=ZD4, n_symbols=2),
    SourceSpec(kind="markov_order_k", transition=order2_transition(),
               n_symbols=2),
    SourceSpec(kind="copy_with_gap", gap=1, eps=0.0, n_symbols=2),
    SourceSpec(kind="copy_with_gap", gap=4, eps=0.3, n_symbols=2),
    SourceSpec(kind="copy_with_gap", gap=9, eps=0.99, n_symbols=2),
]


@settings(max_examples=80, deadline=None)
@given(seed=st.sampled_from((0, 1, 2**64 - 1)) | st.integers(0, 2**64 - 1),
       source=st.integers(0, len(SOURCES) - 1),
       regime=st.integers(-1, len(SOURCES) - 1),
       n=st.sampled_from((2, 3)) | st.integers(2, 300),
       fraction=st.floats(0.05, 0.95))
def test_raw_stream_equals_scalar_draws(seed, source, regime, n, fraction):
    # against the scalar loop, output for output, and the state after it:
    # the next user's stream starts where this one's left off
    spec = SOURCES[source]
    if regime >= 0:
        spec = SourceSpec(kind="regime_switch", n_symbols=n, spec_a=spec,
                          spec_b=SOURCES[regime], switch_fraction=fraction)
    else:
        spec = dataclasses.replace(spec, n_symbols=n)
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert raw_stream(spec, rng) == scalar_raw_stream(spec, oracle)
    assert rng.state == oracle.state
