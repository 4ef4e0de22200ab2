import dataclasses
import hashlib
import math
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobmeta import validation
from mobmeta.core import DataError, InfeasiblePlanError
from mobmeta.predictors import ExternalModel, PredictorSpec, train
from mobmeta.synth import SourceSpec, generate
from mobmeta.validation import (
    LEAKY_SCHEMES,
    SCHEME_PARAMS,
    ValidationPlan,
    _test_contexts,
    default_sensitivity_plans,
    evaluate,
    make_folds,
    validation_sensitivity,
)
from conftest import make_dataset, random_collapsed
from oracles import (
    ScalarSplitMix64, contexts_by_walk, evaluate_per_position,
)

M1 = PredictorSpec(kind="markov_k", k=1)


def spans(folds):
    return [
        (
            (int(f.train_idx.min()), int(f.train_idx.max()) + 1),
            (int(f.test_idx.min()), int(f.test_idx.max()) + 1),
        )
        for f in folds
    ]


def test_plan_validation():
    with pytest.raises(ValueError, match="scheme"):
        ValidationPlan("tenfold")
    with pytest.raises(ValueError, match="split"):
        ValidationPlan("holdout", split=1.0)
    with pytest.raises(ValueError, match="k must"):
        ValidationPlan("kfold", k=1)
    with pytest.raises(ValueError, match="p="):
        ValidationPlan("block_rolling", k=5, p=5)
    assert ValidationPlan("holdout").leaky
    assert not ValidationPlan("block_rolling").leaky
    assert ValidationPlan("block_rolling", k=10, p=1).label == (
        "block_rolling:k=10,p=1"
    )


def test_block_rolling_shape():
    folds = make_folds(ValidationPlan("block_rolling", k=10, p=1), 100)
    assert len(folds) == 9
    assert spans(folds)[0] == ((0, 10), (10, 20))
    assert spans(folds)[8] == ((80, 90), (90, 100))
    # test blocks are disjoint and consecutive
    test_ranges = [t for _, t in spans(folds)]
    assert test_ranges == [(10 * i, 10 * i + 10) for i in range(1, 10)]


def test_block_rolling_p2_trains_two_blocks():
    folds = make_folds(ValidationPlan("block_rolling", k=5, p=2), 50)
    assert len(folds) == 3
    assert spans(folds)[0] == ((0, 20), (20, 30))


def test_rolling_expanding_train():
    folds = make_folds(ValidationPlan("rolling", k=5), 50)
    assert len(folds) == 4
    assert spans(folds)[3] == ((0, 40), (40, 50))


def test_window10_cumulative_is_nine_folds():
    folds = make_folds(ValidationPlan("window10_cumulative"), 200)
    assert len(folds) == 9
    assert spans(folds)[0] == ((0, 20), (20, 40))
    assert spans(folds)[8] == ((0, 180), (180, 200))


def test_remainder_goes_to_last_block():
    folds = make_folds(ValidationPlan("block_rolling", k=10, p=1), 105)
    assert spans(folds)[8] == ((80, 90), (90, 105))


def test_kfold_shape_and_tag():
    folds = make_folds(ValidationPlan("kfold", k=3, shuffled=True), 30)
    assert len(folds) == 3
    assert all(f.leaky for f in folds)
    assert all(f.test_idx.shape[0] == 10 for f in folds)
    covered = np.sort(np.concatenate([f.test_idx for f in folds]))
    assert covered.tolist() == list(range(30))
    for f in folds:
        assert np.intersect1d(f.train_idx, f.test_idx).size == 0


def test_leave_one_out_shape():
    folds = make_folds(ValidationPlan("leave_one_out"), 7)
    assert len(folds) == 7
    assert [int(f.test_idx[0]) for f in folds] == list(range(7))
    assert all(f.train_idx.shape[0] == 6 for f in folds)


def test_no_fold_stores_a_train_array():
    # every fold builds its train positions when read, so the n folds of
    # leave_one_out hold O(n) memory, not O(n^2)
    n = 3000
    tracemalloc.start()
    try:
        folds = make_folds(ValidationPlan("leave_one_out"), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 20  # a twentieth of the n^2 int64 positions
    for f in (folds[0], folds[1234], folds[-1]):
        np.testing.assert_array_equal(
            f.train_idx, np.setdiff1d(np.arange(n), f.test_idx))
    for scheme, kw in (("kfold", dict(k=3)), ("bootstrap", dict(iterations=5))):
        for f in make_folds(ValidationPlan(scheme, seed=1, **kw), 100):
            np.testing.assert_array_equal(
                f.train_idx, np.setdiff1d(np.arange(100), f.test_idx))
    for f in make_folds(ValidationPlan("rolling", k=5), 100):
        np.testing.assert_array_equal(f.train_idx, np.setdiff1d(
            np.arange(int(f.test_idx[-1]) + 1), f.test_idx))
    for scheme in SCHEME_PARAMS:
        for f in make_folds(ValidationPlan(scheme), 100):
            assert [field.name for field in dataclasses.fields(f)
                    if isinstance(getattr(f, field.name), np.ndarray)
                    ] == ["test_idx"]


@st.composite
def fold_plans(draw):
    k = draw(st.integers(2, 12))
    plan = ValidationPlan(
        draw(st.sampled_from(sorted(SCHEME_PARAMS))),
        split=draw(st.floats(0.05, 0.95)),
        k=k,
        p=draw(st.integers(1, k - 1)),
        iterations=draw(st.integers(1, 6)),
        shuffled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return plan, draw(st.integers(2, 300))


@settings(max_examples=200, deadline=None)
@given(fold_plans())
def test_every_fold_partitions_its_range(case):
    plan, n = case
    try:
        folds = make_folds(plan, n)
    except InfeasiblePlanError:
        return
    for f in folds:
        train, test = f.train_idx, f.test_idx
        assert train.size and test.size
        assert np.all(np.diff(test) > 0)
        assert np.intersect1d(train, test).size == 0
        np.testing.assert_array_equal(
            np.sort(np.concatenate([train, test])), np.arange(f.lo, f.hi))
        if plan.leaky:
            assert (f.lo, f.hi) == (0, n)
        else:
            np.testing.assert_array_equal(test, np.arange(test[0], f.hi))


# sha256 of every fold's train then test positions as little-endian int64,
# captured while every draw was one scalar SplitMix64 step (a bootstrap
# fold's train positions are its distinct draws)
PINNED_FOLDS = [
    ("kfold", dict(k=3), 257, 3,
     "5d7134e6bfb113ac84d47d91a26adf3560607c253985a0813ecad6df69d49c34"),
    ("kfold", dict(k=10), 257, 3,
     "ac1ee35935a8423b7207dd426c0e080023ca54ac4361d65267dd4f8b618aa7b3"),
    ("bootstrap", dict(iterations=20), 257, 3,
     "8357a1cd3b37ab29a153d18911412824b3caea189359a0bafd43669d97806a00"),
    ("kfold", dict(k=3), 4000, 11,
     "458d68a379b08cb658a1dba6baa7f77bf94dd3a807bea9f410dfa9b3f9d40c7e"),
    ("kfold", dict(k=10), 4000, 11,
     "ce1ed2f2e14431aff5cff7d51dd44bc227ab5702ceeaebdfefd75de4a168be2a"),
    ("bootstrap", dict(iterations=20), 4000, 11,
     "8d79f6bf3e2c6f2f212dc78cbb50715844cfed3503d252a424a1d8d5fb0bce10"),
]


@pytest.mark.parametrize("scheme, kw, n, seed, digest", PINNED_FOLDS)
def test_shuffled_fold_bytes_pinned(scheme, kw, n, seed, digest):
    h = hashlib.sha256()
    for f in make_folds(ValidationPlan(scheme, seed=seed, **kw), n):
        h.update(np.asarray(f.train_idx, dtype="<i8").tobytes())
        h.update(np.asarray(f.test_idx, dtype="<i8").tobytes())
    assert h.hexdigest() == digest


def test_holdout_shape():
    folds = make_folds(ValidationPlan("holdout", split=0.8), 10)
    assert len(folds) == 1
    assert spans(folds)[0] == ((0, 8), (8, 10))


def test_bootstrap_oob_disjoint():
    folds = make_folds(ValidationPlan("bootstrap", iterations=5, seed=3), 40)
    assert folds
    for f in folds:
        assert np.intersect1d(f.train_idx, f.test_idx).size == 0
        # the distinct draws and the out-of-bag positions partition [0, 40)
        np.testing.assert_array_equal(
            np.sort(np.concatenate([f.train_idx, f.test_idx])), np.arange(40))


@pytest.mark.parametrize("n", [2, 3, 17, 40, 257])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_bootstrap_folds_equal_setdiff(n, seed):
    plan = ValidationPlan("bootstrap", iterations=8, seed=seed)
    rng = ScalarSplitMix64(seed)
    expected = []
    for it in range(plan.iterations):
        draws = np.sort(
            np.asarray([rng.randint(n) for _ in range(n)], dtype=np.int64)
        )
        oob = np.setdiff1d(np.arange(n), draws)
        if oob.size:
            expected.append((it, draws, oob))
    folds = make_folds(plan, n)
    assert [f.index for f in folds] == [it for it, _, _ in expected]
    for f, (_, draws, oob) in zip(folds, expected):
        np.testing.assert_array_equal(f.train_idx, np.unique(draws))
        np.testing.assert_array_equal(f.test_idx, oob)
        assert f.test_idx.dtype == oob.dtype


TIME_ORDERED = ("rolling", "block_rolling", "window10_cumulative")


def test_time_ordered_folds_never_leak():
    for scheme in TIME_ORDERED:
        for n in (40, 100, 173):
            for k in (4, 10):
                for p in (1, 2):
                    plan = ValidationPlan(scheme, k=k, p=p)
                    try:
                        folds = make_folds(plan, n)
                    except InfeasiblePlanError:
                        continue
                    for f in folds:
                        assert not f.leaky
                        assert int(f.train_idx.max()) < int(f.test_idx.min())
                    assert len(
                        {int(f.test_idx.min()) for f in folds}
                    ) == len(folds)


def test_leaky_schemes_are_tagged():
    for scheme in LEAKY_SCHEMES:
        plan = ValidationPlan(scheme)
        for f in make_folds(plan, 50):
            assert f.leaky


def test_infeasible_plans():
    with pytest.raises(InfeasiblePlanError, match="block size"):
        make_folds(ValidationPlan("block_rolling", k=10, p=1), 15)
    with pytest.raises(InfeasiblePlanError, match="exceeds"):
        make_folds(ValidationPlan("kfold", k=10), 5)
    with pytest.raises(InfeasiblePlanError, match="no train or no test"):
        make_folds(ValidationPlan("holdout", split=0.1), 5)
    with pytest.raises(InfeasiblePlanError, match="at least 2"):
        make_folds(ValidationPlan("rolling"), 1)


def test_seeded_schemes_reproducible():
    for scheme, kw in (("kfold", dict(k=5)), ("bootstrap", dict(iterations=4))):
        a = make_folds(ValidationPlan(scheme, seed=9, **kw), 60)
        b = make_folds(ValidationPlan(scheme, seed=9, **kw), 60)
        c = make_folds(ValidationPlan(scheme, seed=10, **kw), 60)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.train_idx, fb.train_idx)
            assert np.array_equal(fa.test_idx, fb.test_idx)
        assert any(
            not np.array_equal(fa.test_idx, fc.test_idx)
            for fa, fc in zip(a, c)
        )


def cycle_dataset(n=300, users=("u0",)):
    return make_dataset(
        {u: [0, 1, 2] * (n // 3) for u in users}, n_pois=3
    )


def test_perfect_predictor_on_cycle():
    res = evaluate(
        cycle_dataset(),
        M1,
        ValidationPlan("block_rolling", k=10, p=1),
    )
    assert all(r.accuracy == 1.0 for r in res.folds)
    assert res.accuracy_user_mean == 1.0
    assert res.accuracy_weighted == 1.0
    assert res.bits_weighted is not None and res.bits_weighted <= 0.02
    assert not res.leaky


def test_random_uniform_on_iid_uniform_8():
    ds, _ = generate(
        SourceSpec(
            kind="iid",
            n_symbols=6500,
            n_users=2,
            seed=17,
            dist=(0.125,) * 8,
        )
    )
    res = evaluate(
        ds,
        PredictorSpec(kind="random_uniform"),
        ValidationPlan("block_rolling", k=10, p=1),
    )
    assert res.n_predictions >= 10_000
    assert res.accuracy_weighted == pytest.approx(0.125, abs=0.02)


def test_uniform_model_bits_exactly_log2_n():
    ds, _ = generate(
        SourceSpec(
            kind="iid", n_symbols=500, n_users=1, seed=5, dist=(0.125,) * 8
        )
    )
    bits = evaluate(
        ds, PredictorSpec(kind="random_uniform"), ValidationPlan("holdout")
    ).bits_weighted
    assert bits == 3.0


def order2_dataset():
    # next is the symbol before last w.p. 0.9, else one of the two
    # remaining non-current symbols; markov_1 sees near-uniform choices
    t = np.zeros((4, 4, 4))
    for a in range(4):
        for b in range(4):
            if a == b:
                for c in range(4):
                    if c != b:
                        t[a, b, c] = 1.0 / 3
            else:
                t[a, b, a] = 0.9
                for c in range(4):
                    if c not in (a, b):
                        t[a, b, c] = 0.05
    ds, _ = generate(
        SourceSpec(
            kind="markov_order_k",
            n_symbols=4000,
            n_users=2,
            seed=23,
            transition=t,
        )
    )
    return ds


def test_markov2_beats_markov1_on_order2_source():
    ds = order2_dataset()
    plan = ValidationPlan("block_rolling", k=10, p=1)
    bits1 = evaluate(ds, M1, plan).bits_weighted
    bits2 = evaluate(
        ds, PredictorSpec(kind="markov_k", k=2), plan
    ).bits_weighted
    assert bits2 < bits1 - 0.3


def test_aggregate_identity_and_bounds():
    ds = order2_dataset()
    res = evaluate(ds, M1, ValidationPlan("block_rolling", k=10, p=1))
    total_correct = sum(r.n_correct for r in res.folds)
    total_pred = sum(r.n_predictions for r in res.folds)
    assert res.n_predictions == total_pred
    assert res.accuracy_weighted == total_correct / total_pred
    per_user = {}
    for r in res.folds:
        per_user.setdefault(r.user_id, []).append(r.accuracy)
    assert res.accuracy_user_mean == pytest.approx(
        float(np.mean([np.mean(v) for v in per_user.values()]))
    )
    assert all(0.0 <= r.accuracy <= 1.0 for r in res.folds)
    assert all(
        r.bits_per_symbol is None or r.bits_per_symbol >= 0.0
        for r in res.folds
    )


def test_fold_curve_sorted_means():
    res = evaluate(
        cycle_dataset(users=("a", "b")),
        M1,
        ValidationPlan("block_rolling", k=5, p=1),
    )
    curve = res.fold_curve()
    assert [f for f, _ in curve] == [0, 1, 2, 3]
    assert all(a == 1.0 for _, a in curve)


def test_to_dict_round_trip_fields():
    res = evaluate(cycle_dataset(), M1, ValidationPlan("holdout"))
    d = res.to_dict()
    assert d["plan"] == "holdout:split=0.8"
    assert d["model"] == "markov_1"
    assert d["leaky"] is True
    assert d["n_predictions"] == res.n_predictions
    assert d["folds"][0]["user_id"] == "u0"
    assert set(d["folds"][0]) == {
        "user_id", "fold", "train_lo", "train_hi", "test_lo", "test_hi",
        "n_correct", "n_predictions", "accuracy", "bits_per_symbol", "leaky",
    }


def test_short_users_excluded_with_warning():
    ds = make_dataset(
        {"long": [0, 1, 2] * 100, "short": [0, 1, 2]}, n_pois=3
    )
    with pytest.warns(UserWarning, match="excluding user 'short'"):
        res = evaluate(ds, M1, ValidationPlan("block_rolling", k=10, p=1))
    assert res.excluded_users == ("short",)
    assert {r.user_id for r in res.folds} == {"long"}


def test_infeasible_for_every_stream_raises_plan_error():
    ds = make_dataset({"a": [0, 1, 2], "b": [1, 2, 0]}, n_pois=3)
    with pytest.warns(UserWarning):
        with pytest.raises(InfeasiblePlanError, match="every stream"):
            evaluate(ds, M1, ValidationPlan("block_rolling", k=10, p=1))


def test_argmax_only_external_has_no_bits():
    cmd = (
        sys.executable, "-m", "mobmeta.extpred",
        "--model", "top_frequency", "--alphabet-size", "3", "--argmax-only",
    )
    spec = PredictorSpec(kind="external", command=cmd)
    ds = cycle_dataset(n=60)
    res = evaluate(ds, spec, ValidationPlan("holdout"))
    assert res.bits_user_mean is None
    assert res.bits_weighted is None


def test_sensitivity_rows_and_guard():
    ds = cycle_dataset(n=120)
    with pytest.raises(ValueError, match="at least 2"):
        validation_sensitivity(ds, M1, [ValidationPlan("holdout")])
    rows = validation_sensitivity(ds, M1, default_sensitivity_plans())
    assert len(rows) == 6
    assert [(r.scheme, r.params) for r in rows] == [
        ("holdout", "split=0.8"),
        ("holdout", "split=0.7"),
        ("holdout", "split=0.6"),
        ("kfold", "k=3,shuffled=true"),
        ("kfold", "k=5,shuffled=true"),
        ("kfold", "k=10,shuffled=true"),
    ]
    assert all(r.leaky for r in rows)
    assert all(0.0 <= r.accuracy_weighted <= 1.0 for r in rows)


def test_teacher_forcing_reveals_test_prefix():
    # train block has only 0->1->2; the walk must use revealed test
    # symbols as context, so accuracy stays perfect deep into the block
    ds = make_dataset({"u": [0, 1, 2] * 50}, n_pois=3)
    res = evaluate(ds, M1, ValidationPlan("block_rolling", k=2, p=1))
    (fold,) = res.folds
    assert fold.n_predictions == 75
    assert fold.accuracy == 1.0


@pytest.mark.parametrize("plan", [
    ValidationPlan("holdout", split=0.7),
    ValidationPlan("kfold", k=4),
    ValidationPlan("kfold", k=3, shuffled=False),
    ValidationPlan("leave_one_out"),
    ValidationPlan("bootstrap", iterations=5, seed=3),
    ValidationPlan("rolling", k=4),
    ValidationPlan("block_rolling", k=5, p=2),
    ValidationPlan("window10_cumulative"),
], ids=lambda plan: plan.label)
def test_test_contexts_match_backward_walk(rng, plan):
    n = 53
    symbols = rng.integers(0, 5, size=n)
    timestamps = 1000 + 7 * np.arange(n)
    for fold in make_folds(plan, n):
        assert np.all(np.diff(fold.test_idx) > 0)
        for need in (0, 1, 2, 3, 64):
            # the PREDICT block of each test position holds the walk's
            # context, one "poi_id t" line per position
            assert list(
                _test_contexts(fold, symbols, timestamps, need)
            ) == [
                (truth, f"PREDICT {len(ctx)}\n".encode() + "".join(
                    f"{s} {t}\n" for s, t in zip(ctx, ctx_ts)).encode())
                for truth, ctx, ctx_ts in contexts_by_walk(
                    fold.train_idx.tolist(), fold.test_idx.tolist(),
                    symbols.tolist(), timestamps.tolist(), need,
                )
            ]


def test_bootstrap_trains_on_distinct_positions():
    # repeated draws must not become self-transitions: bootstrap scores
    # what kfold scores on the same source
    ds, _ = generate(
        SourceSpec(kind="copy_with_gap", n_symbols=2000, gap=6, eps=0.05)
    )
    for k in (1, 2):
        spec = PredictorSpec(kind="markov_k", k=k)
        boot = evaluate(ds, spec, ValidationPlan("bootstrap", iterations=7))
        kfold = evaluate(ds, spec, ValidationPlan("kfold", k=3))
        assert boot.accuracy_weighted == pytest.approx(
            kfold.accuracy_weighted, abs=0.05
        )


@st.composite
def scoring_cases(draw):
    n_pois = draw(st.integers(2, 30))
    streams = {
        f"u{u}": random_collapsed(
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
            draw(st.integers(20, 300)),
            n_pois,
        )
        for u in range(draw(st.integers(1, 2)))
    }
    spec = PredictorSpec(
        kind=draw(st.sampled_from(
            ["markov_k", "mmc", "top_frequency", "random_uniform"]
        )),
        k=draw(st.integers(1, 3)),
        top_m=draw(st.integers(1, n_pois + 1)),
    )
    k = draw(st.integers(2, 10))
    plan = ValidationPlan(
        draw(st.sampled_from(sorted(SCHEME_PARAMS))),
        split=draw(st.sampled_from([0.5, 0.7, 0.8, 0.9])),
        k=k,
        p=draw(st.integers(1, k - 1)),
        iterations=draw(st.integers(1, 5)),
        shuffled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return make_dataset(streams, n_pois=n_pois), spec, plan


def _outcome(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except (InfeasiblePlanError, DataError) as e:
            return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(scoring_cases())
def test_evaluate_equals_per_position_oracle(case):
    ds, spec, plan = case
    got = _outcome(evaluate, ds, spec, plan)
    if isinstance(got, validation.EvaluationResult):
        got = got.to_dict()
    assert got == _outcome(evaluate_per_position, ds, spec, plan)


class CountingModel:
    """A native model that records every batch it is asked to score."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def score(self, seq, ends, truth):
        self.batches.append((seq.tolist(), ends.tolist(), truth.tolist()))
        return self.inner.score(seq, ends, truth)


@pytest.fixture
def counted(monkeypatch):
    calls = {"symbols": [], "models": []}

    def counting_train(spec, symbols, *args, **kwargs):
        calls["symbols"].append(np.asarray(symbols).tolist())
        calls["models"].append(CountingModel(train(spec, symbols, *args,
                                                   **kwargs)))
        return calls["models"][-1]

    monkeypatch.setattr(validation, "train", counting_train)
    return calls


@pytest.mark.parametrize("plan", [
    ValidationPlan("holdout", split=0.7),
    ValidationPlan("kfold", k=4),
    ValidationPlan("bootstrap", iterations=5, seed=3),
    ValidationPlan("rolling", k=4),
    ValidationPlan("block_rolling", k=5, p=2),
], ids=lambda plan: plan.label)
def test_each_native_fold_is_one_batch(rng, counted, plan):
    # one score call per fold (native models and CountingModel have no
    # single-context predict), and the batch ends read exactly the
    # contexts and truths of the backward walk
    symbols = random_collapsed(rng, 400, 4)
    ds = make_dataset({"u": symbols}, n_pois=4)
    evaluate(ds, PredictorSpec(kind="markov_k", k=2), plan)
    folds = make_folds(plan, len(symbols))
    assert len(counted["models"]) == len(folds)
    for model, fold in zip(counted["models"], folds):
        (seq, ends, truth), = model.batches
        assert truth == [seq[e] for e in ends]
        want = contexts_by_walk(
            fold.train_idx.tolist(), fold.test_idx.tolist(), symbols,
            list(range(len(symbols))), 2,
        )
        assert [(seq[e], seq[max(0, e - 2):e]) for e in ends] == [
            (symbol, ctx) for symbol, ctx, _ in want
        ]


@pytest.mark.parametrize("plan", [
    ValidationPlan("rolling", k=10),
    ValidationPlan("window10_cumulative"),
], ids=lambda plan: plan.label)
def test_expanding_windows_train_each_fold_on_its_prefix(rng, counted, plan):
    streams = {"a": random_collapsed(rng, 300, 5),
               "b": random_collapsed(rng, 240, 5)}
    ds = make_dataset(streams, n_pois=5)
    result = evaluate(ds, PredictorSpec(kind="markov_k", k=2), plan)
    assert len(result.folds) == 2 * 9
    assert counted["symbols"] == [
        streams[r.user_id][: r.train_hi] for r in result.folds
    ]


# answers every PREDICT with POI 0 and appends everything it reads to
# <dir>/<pid>.log, so each file holds exactly one instance's input
LOGGING_PREDICTOR = textwrap.dedent("""\
    import os, sys
    with open(os.path.join(sys.argv[1], f"{os.getpid()}.log"), "w") as log:
        for line in sys.stdin:
            log.write(line)
            word, count = line.split()
            for _ in range(int(count)):
                log.write(sys.stdin.readline())
            if word == "PREDICT":
                print(0, flush=True)
""")

LOOKAHEAD_PLANS = [
    ValidationPlan("block_rolling", k=4, p=1),
    ValidationPlan("rolling", k=3),
    ValidationPlan("kfold", k=3),
    ValidationPlan("bootstrap", iterations=2, seed=3),
    ValidationPlan("holdout", external_context_window=3),
    ValidationPlan("block_rolling", k=6, p=1),
]


@pytest.fixture
def logging_predictor(tmp_path):
    script = tmp_path / "logs.py"
    script.write_text(LOGGING_PREDICTOR, encoding="utf-8")
    log_dir = tmp_path / "logs"
    log_dir.mkdir()
    spec = PredictorSpec(
        kind="external", command=(sys.executable, str(script), str(log_dir))
    )
    return spec, log_dir


def two_user_dataset(rng):
    return make_dataset(
        {"a": random_collapsed(rng, 40, 4), "b": random_collapsed(rng, 33, 4)},
        n_pois=4,
    )


def fold_input(plan, symbols, timestamps):
    """The bytes each fold's predictor instance must read, fold by fold."""
    out = []
    for fold in make_folds(plan, len(symbols)):
        pos = sorted(set(fold.train_idx.tolist()))
        lines = [f"TRAIN {len(pos)}"]
        lines += [f"{symbols[i]} {timestamps[i]}" for i in pos]
        for _, ctx, ctx_ts in contexts_by_walk(
            pos, fold.test_idx.tolist(), symbols, timestamps,
            plan.external_context_window,
        ):
            lines.append(f"PREDICT {len(ctx)}")
            lines += [f"{s} {t}" for s, t in zip(ctx, ctx_ts)]
        out.append("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("plan", LOOKAHEAD_PLANS, ids=lambda p: p.label)
def test_each_external_instance_reads_one_fold(rng, logging_predictor, plan):
    spec, log_dir = logging_predictor
    ds = two_user_dataset(rng)
    evaluate(ds, spec, plan)
    want = [
        block
        for seq in ds.sequences
        for block in fold_input(plan, seq.poi_ids.tolist(),
                                seq.timestamps.tolist())
    ]
    got = [p.read_text(encoding="utf-8") for p in log_dir.iterdir()]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("plan", LOOKAHEAD_PLANS, ids=lambda p: p.label)
def test_one_start_per_fold_and_at_most_four_alive(
    rng, logging_predictor, monkeypatch, plan
):
    # one queue of folds across both users, four in conversation at once
    # and the next started only once a child is reaped: the peak is
    # min(folds of all users, 4)
    spec, _ = logging_predictor
    start, close = ExternalModel.start, ExternalModel.close
    live = {"now": 0, "peak": 0, "starts": 0}

    def counting_start(cls, *args, **kwargs):
        model = start(*args, **kwargs)
        live["starts"] += 1
        live["now"] += 1
        live["peak"] = max(live["peak"], live["now"])
        return model

    def counting_close(self):
        live["now"] -= 1
        close(self)

    monkeypatch.setattr(ExternalModel, "start", classmethod(counting_start))
    monkeypatch.setattr(ExternalModel, "close", counting_close)
    ds = two_user_dataset(rng)
    evaluate(ds, spec, plan)
    n_folds = [len(make_folds(plan, len(s))) for s in ds.sequences]
    assert live["starts"] == sum(n_folds)
    assert live["now"] == 0
    assert live["peak"] == min(sum(n_folds), 4)


# reads its stdin unbuffered, and after each PREDICT block fails if more
# input is already waiting, in its own buffer or in the pipe
NO_READ_AHEAD_PREDICTOR = textwrap.dedent("""\
    import os, select, sys
    buf = b""

    def line():
        global buf
        while b"\\n" not in buf:
            data = os.read(0, 65536)
            if not data:
                return None
            buf += data
        head, _, buf = buf.partition(b"\\n")
        return head

    while (header := line()) is not None:
        word, count = header.split()
        for _ in range(int(count)):
            line()
        if word == b"PREDICT":
            if buf or select.select([0], [], [], 0)[0]:
                sys.exit("input beyond the PREDICT block")
            os.write(1, b"0\\n")
""")


@pytest.mark.parametrize("plan", LOOKAHEAD_PLANS, ids=lambda p: p.label)
def test_no_child_gets_a_request_before_its_last_response(rng, tmp_path,
                                                          monkeypatch, plan):
    # PREDICT i+1 carries the true symbol of position i, so it may only go
    # out once response i has been read; the loop also starts no thread
    script = tmp_path / "no_read_ahead.py"
    script.write_text(NO_READ_AHEAD_PREDICTOR, encoding="utf-8")
    spec = PredictorSpec(kind="external", command=(sys.executable, str(script)))

    def no_thread(self):
        raise AssertionError("the external loop started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    ds = two_user_dataset(rng)
    res = evaluate(ds, spec, plan)
    want = sum(fold.test_idx.size for seq in ds.sequences
               for fold in make_folds(plan, len(seq.poi_ids)))
    assert res.n_predictions == want


def test_train_block_beyond_pipe_buffer_keeps_the_lookahead(tmp_path):
    # each child sleeps 1 s before it reads, and each TRAIN block (19,700
    # symbols, about 150 kB) exceeds the pipe buffer; TRAIN blocks are
    # written without blocking, so the three sleeps overlap instead of
    # adding up to about 3 s
    script = tmp_path / "slow_start.py"
    script.write_text(textwrap.dedent("""\
        import sys, time
        time.sleep(1.0)
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                print(0, flush=True)
    """), encoding="utf-8")
    ds = make_dataset(
        {"u": random_collapsed(np.random.default_rng(14), 20_000, 4)},
        n_pois=4,
    )
    spec = PredictorSpec(kind="external", command=(sys.executable, str(script)))
    plan = ValidationPlan("block_rolling", k=200, p=197,
                          external_context_window=1)
    t0 = time.perf_counter()
    res = evaluate(ds, spec, plan)
    elapsed = time.perf_counter() - t0
    assert len(res.folds) == 3
    assert elapsed < 2 * 1.0


@pytest.mark.parametrize("plan,n", [
    (ValidationPlan("holdout", split=0.7), 30),
    (ValidationPlan("kfold", k=3, seed=5), 30),
    (ValidationPlan("leave_one_out"), 7),
    (ValidationPlan("bootstrap", iterations=2, seed=1), 30),
    (ValidationPlan("rolling", k=3), 30),
    (ValidationPlan("block_rolling", k=4, p=2), 30),
    (ValidationPlan("window10_cumulative"), 30),
], ids=lambda x: getattr(x, "label", None))
def test_reference_external_equals_per_position_oracle(plan, n):
    ds = make_dataset(
        {"u": random_collapsed(np.random.default_rng(n), n, 4)}, n_pois=4
    )
    cmd = (sys.executable, "-m", "mobmeta.extpred", "--model", "markov:1",
           "--alphabet-size", "4")
    spec = PredictorSpec(kind="external", command=cmd)
    want = evaluate_per_position(ds, spec, plan)
    assert evaluate(ds, spec, plan).to_dict() == want
    assert want["n_predictions"] > 0
