import io
import math
import os
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobmeta import extpred, predictors
from mobmeta.core import DataError
from mobmeta.predictors import (
    ExternalModel,
    MarkovModel,
    MmcModel,
    PredictorSpec,
    ProtocolError,
    parse_model,
    request_block,
    request_lines,
    train,
)
from conftest import random_collapsed
from oracles import DictModel, native_predict, transition_counts

M1 = PredictorSpec(kind="markov_k", k=1)


def test_spec_validation_and_labels():
    assert PredictorSpec(kind="markov_k", k=2).label == "markov_2"
    assert PredictorSpec(kind="mmc", top_m=5).label == "mmc_5"
    assert PredictorSpec(kind="top_frequency").label == "top_frequency"
    with pytest.raises(ValueError, match="order"):
        PredictorSpec(kind="markov_k", k=4)
    with pytest.raises(ValueError, match="kind"):
        PredictorSpec(kind="lstm")
    with pytest.raises(ValueError, match="command"):
        PredictorSpec(kind="external")


@pytest.mark.parametrize("spec, order", [
    (PredictorSpec(kind="random_uniform"), -1),
    (PredictorSpec(kind="top_frequency"), 0),
    (PredictorSpec(kind="mmc", top_m=3), 1),
    (PredictorSpec(kind="markov_k", k=1), 1),
    (PredictorSpec(kind="markov_k", k=3), 3),
    (PredictorSpec(kind="mmc", top_m=2), 1),
])
def test_spec_order_is_the_highest_order_trained(spec, order):
    assert spec.order == order
    model = train(spec, [0, 1, 2, 0, 1, 2, 0], 3)
    # mmc over part of the alphabet counts its state chain, and mmc over
    # all of it is markov_1
    tables = (model.inner.tables if isinstance(model, MmcModel)
              else model.tables)
    assert len(tables) == order + 1


def test_external_spec_has_no_order():
    with pytest.raises(ValueError, match="no model order"):
        PredictorSpec(kind="external", command=("x",)).order


def test_train_refuses_an_external_spec(spawned):
    # an external predictor is started and trained through ExternalModel
    spec = PredictorSpec(kind="external", command=(sys.executable, "-c", ""))
    with pytest.raises(ValueError, match="no model order"):
        train(spec, [0, 1, 0], alphabet_size=2)
    assert spawned == []


def test_parse_model():
    assert parse_model("markov:2") == PredictorSpec(kind="markov_k", k=2)
    assert parse_model("markov") == PredictorSpec(kind="markov_k", k=1)
    assert parse_model("mmc") == PredictorSpec(kind="mmc", top_m=10)
    assert parse_model("top_frequency").kind == "top_frequency"
    assert parse_model("random_uniform").kind == "random_uniform"
    ext = parse_model("external", ["predict", "--flag"])
    assert ext.command == ("predict", "--flag")
    with pytest.raises(ValueError, match="unknown model 'lstm'"):
        parse_model("lstm")
    with pytest.raises(ValueError, match="bad model 'mmc:x'"):
        parse_model("mmc:x")
    with pytest.raises(ValueError, match="bad model 'markov:9'.*order"):
        parse_model("markov:9")
    with pytest.raises(ValueError, match="needs a command"):
        parse_model("external")


def test_markov1_counts_and_smoothing():
    model = train(M1, [0, 1, 0, 1, 0], alphabet_size=2)
    assert transition_counts(model) == {(0,): {1: 2}, (1,): {0: 2}}
    dist = native_predict(model, [0])[1]
    a = predictors.SMOOTHING_ALPHA
    np.testing.assert_allclose(
        dist, [a / (2 + 2 * a), (2 + a) / (2 + 2 * a)]
    )
    assert native_predict(model, [0]) == (1, pytest.approx(dist.tolist()))


def test_markov2_uses_two_symbol_context():
    # after (0,1) always 2; after (1,1) never seen
    seq = [0, 1, 2, 0, 1, 2, 1, 0, 1, 2]
    model = train(PredictorSpec(kind="markov_k", k=2), seq, alphabet_size=3)
    assert native_predict(model, [0, 1])[0] == 2
    assert transition_counts(model)[(0, 1)] == {2: 3}


def test_backoff_walks_down_orders():
    seq = [0, 1, 0, 1, 0, 1, 0, 1, 2]
    model = train(PredictorSpec(kind="markov_k", k=2), seq, alphabet_size=3)
    # context (2,2) unseen at order 2; (2,) unseen at order 1 (2 is the
    # last symbol, it never precedes anything); order 0 counts win
    d = native_predict(model, [2, 2])[1]
    order0 = native_predict(train(
        PredictorSpec(kind="top_frequency"), seq, alphabet_size=3
    ), [])[1]
    np.testing.assert_array_equal(d, order0)


def test_tie_break_prefers_smallest_id():
    model = train(PredictorSpec(kind="top_frequency"), [1, 0, 0, 1],
                  alphabet_size=3)
    assert native_predict(model, [])[0] == 0


def test_random_uniform_model():
    model = train(PredictorSpec(kind="random_uniform"), [], alphabet_size=5)
    pred, dist = native_predict(model, [3])
    assert pred == 0
    np.testing.assert_array_equal(dist, np.full(5, 0.2))


def test_training_minimums():
    with pytest.raises(DataError, match="at least 3"):
        train(PredictorSpec(kind="markov_k", k=2), [0, 1], alphabet_size=2)
    with pytest.raises(DataError, match="at least 1"):
        train(PredictorSpec(kind="top_frequency"), [], alphabet_size=2)
    with pytest.raises(DataError, match="at least 2"):
        train(PredictorSpec(kind="mmc"), [0], alphabet_size=2)
    with pytest.raises(DataError, match="outside alphabet"):
        train(M1, [0, 5], alphabet_size=2)


def test_mmc_equals_markov1_when_top_covers_alphabet(rng):
    seq = random_collapsed(rng, 200, 4)
    mmc = train(PredictorSpec(kind="mmc", top_m=10), seq, alphabet_size=4)
    m1 = train(M1, seq, alphabet_size=4)
    assert type(mmc) is MarkovModel
    assert transition_counts(mmc) == transition_counts(m1)
    for ctx in ([0], [1], [2], [3], [2, 3]):
        np.testing.assert_array_equal(
            native_predict(mmc, ctx)[1], native_predict(m1, ctx)[1]
        )
        assert native_predict(mmc, ctx)[0] == native_predict(m1, ctx)[0]


def test_mmc_other_state_mass_spread(rng):
    # alphabet 5, top 2; symbols 3 and 4 are rare
    seq = [0, 1] * 40 + [3, 4, 3, 0] + [0, 1] * 10
    mmc = train(PredictorSpec(kind="mmc", top_m=2), seq, alphabet_size=5)
    assert mmc.top_states == (0, 1)
    # most frequent non-top symbol is 3 (seen twice vs once for 4)
    assert mmc.other_resolution == 3
    dist = native_predict(mmc, [0])[1]
    assert dist.shape == (5,)
    assert dist.sum() == pytest.approx(1.0)
    # the three non-top symbols share the other mass equally
    assert dist[2] == dist[3] == dist[4]


def test_mmc_other_resolution_when_all_training_in_top():
    seq = [0, 1] * 10
    mmc = train(PredictorSpec(kind="mmc", top_m=2), seq, alphabet_size=4)
    assert mmc.other_resolution == 2


@pytest.mark.parametrize("kind", ["random_uniform", "top_frequency",
                                  "markov_k", "mmc"])
def test_train_rejects_symbols_outside_alphabet(kind):
    for bad in ([7, 1, 2, 3], [9], [-1], [2**70]):
        with pytest.raises(DataError, match="outside alphabet"):
            train(PredictorSpec(kind=kind), bad, alphabet_size=5)


def assert_same_as_dict(model, ref, contexts):
    for ctx in contexts:
        pred, dist = native_predict(model, ctx)
        want_pred, want_dist = ref.predict(ctx)
        assert pred == want_pred
        np.testing.assert_array_equal(dist, want_dist)
    if model.spec.kind != "top_frequency":
        assert transition_counts(model) == ref.transition_counts()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n_sym=st.integers(1, 6),
    kind=st.sampled_from(["markov_k", "mmc", "top_frequency"]),
    k=st.integers(1, 3),
)
def test_count_tables_equal_dict_reference(data, n_sym, kind, k):
    top_m = data.draw(st.integers(1, 7))
    spec = PredictorSpec(kind=kind, k=k, top_m=top_m)
    stream = data.draw(
        st.lists(st.integers(0, n_sym - 1), min_size=4, max_size=30)
    )
    ref = DictModel(spec, stream, n_sym)
    # every context the stream holds, shorter ones at its start, and a
    # few that may never occur
    contexts = {tuple(stream[max(0, i - k - 1) : i])
                for i in range(len(stream) + 1)}
    contexts |= {tuple(c) for c in data.draw(st.lists(
        st.lists(st.integers(0, n_sym - 1), max_size=k + 1), max_size=4))}
    contexts = sorted(contexts)
    assert_same_as_dict(train(spec, stream, n_sym), ref, contexts)


def test_markov3_keys_do_not_overflow_at_a_wide_alphabet():
    # raw base-K keys of four symbols would pass 2**63 here
    K = 100_000
    rng = np.random.default_rng(7)
    stream = (K - 1 - rng.integers(0, 6, size=300)).tolist()
    spec = PredictorSpec(kind="markov_k", k=3)
    ref = DictModel(spec, stream, K)
    contexts = [stream[i - 3 : i] for i in range(3, 300, 37)]
    contexts += [[K - 1, K - 2, K - 3], [0, K - 1], []]
    assert_same_as_dict(train(spec, stream, K), ref, contexts)


@pytest.mark.parametrize("top_m", ["1", "10", "100", "seen", "K-1", "K",
                                   "K+1"])
def test_mmc_at_a_wide_alphabet_equals_dict_reference(top_m):
    # Zipf visits over 300 POIs leave some never seen, so a top set of
    # every seen POI resolves "other" to the smallest unseen id; the
    # 100th most frequent POI ties with its neighbours
    K = 300
    rng = np.random.default_rng(7)
    weights = 1.0 / np.arange(1, K + 1)
    stream = rng.choice(K, size=2500, p=weights / weights.sum()).tolist()
    seen = len(set(stream))
    assert seen < K - 1
    m = {"seen": seen, "K-1": K - 1, "K": K, "K+1": K + 1}.get(top_m)
    spec = PredictorSpec(kind="mmc", top_m=m or int(top_m))
    ref = DictModel(spec, stream, K)
    unseen = sorted(set(range(K)) - set(stream))
    contexts = [stream[i - 1 : i] for i in range(1, 2500, 23)]
    contexts += [[], [unseen[0]], [unseen[-1]], [stream[-1], unseen[0]]]
    model = train(spec, stream, K)
    assert_same_as_dict(model, ref, contexts)
    if top_m == "seen":
        assert model.other_resolution == unseen[0]


def test_transition_counts_type_guard():
    model = train(PredictorSpec(kind="top_frequency"), [0, 1], alphabet_size=2)
    with pytest.raises(TypeError, match="transition table"):
        transition_counts(model)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n_sym=st.integers(2, 6),
    kind=st.sampled_from(["markov_k", "mmc", "top_frequency", "random_uniform"]),
)
def test_distribution_is_normalized(data, n_sym, kind):
    k = data.draw(st.integers(1, 3)) if kind == "markov_k" else 1
    top_m = data.draw(st.integers(1, 8)) if kind == "mmc" else 10
    spec = PredictorSpec(kind=kind, k=k, top_m=top_m)
    stream = data.draw(
        st.lists(st.integers(0, n_sym - 1), min_size=4, max_size=50)
    )
    model = train(spec, stream, alphabet_size=n_sym)
    ctx = data.draw(st.lists(st.integers(0, n_sym - 1), min_size=0, max_size=5))
    pred, dist = native_predict(model, ctx)
    assert 0 <= pred < n_sym
    assert dist.shape == (n_sym,)
    assert np.all(dist > 0.0)
    assert math.isclose(float(dist.sum()), 1.0, abs_tol=1e-9)


def test_reference_child_smooths_as_the_native_models():
    assert extpred.ALPHA == predictors.SMOOTHING_ALPHA


def ext_spec(*extra):
    cmd = (
        sys.executable, "-m", "mobmeta.extpred",
        "--model", "markov:1", "--alphabet-size", "4", *extra,
    )
    return PredictorSpec(kind="external", command=cmd)


def train_block(symbols) -> bytes:
    """The TRAIN block of `symbols` at index timestamps."""
    return request_block(b"TRAIN",
                         request_lines(symbols, range(len(symbols))))


def test_external_matches_native_bitwise(rng):
    seq = random_collapsed(rng, 300, 4)
    native = train(M1, seq, alphabet_size=4)
    with ExternalModel.start(ext_spec(), 4) as ext:
        ext.send(train_block(seq))
        for ctx in ([0], [1], [2], [3], [1, 2], [3, 0, 1]):
            poi, dist = ext.predict(ctx)
            n_poi, n_dist = native_predict(native, ctx)
            assert poi == n_poi
            np.testing.assert_array_equal(dist, n_dist)


def test_external_argmax_only(rng):
    seq = random_collapsed(rng, 100, 4)
    with ExternalModel.start(ext_spec("--argmax-only"), 4) as ext:
        ext.send(train_block(seq))
        poi, dist = ext.predict([2])
        assert dist is None
        assert poi == native_predict(train(M1, seq, alphabet_size=4), [2])[0]


# what a child over 4 POIs does instead of answering its first PREDICT
VIOLATIONS = {
    "bad_sum": 'print("0 0.5 0.5 0.5 0.5", flush=True)',
    "wrong_len": 'print("0 0.5 0.5", flush=True)',
    "oob_id": 'print(9, flush=True)',
    "garbage": 'print("not-a-poi", flush=True)',
    "close": "sys.exit(0)",
}


@pytest.mark.parametrize(
    "mode,msg",
    [
        ("bad_sum", "sum to 1"),
        ("wrong_len", "probabilities, got"),
        ("oob_id", "outside"),
        ("garbage", "integer poi_id"),
        ("close", "closed stdout"),
    ],
)
def test_external_protocol_violations(rng, mode, msg):
    seq = random_collapsed(rng, 50, 4)
    script = textwrap.dedent(f"""\
        import sys
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                {VIOLATIONS[mode]}
    """)
    spec = PredictorSpec(kind="external",
                         command=(sys.executable, "-c", script))
    with ExternalModel.start(spec, 4) as ext:
        ext.send(train_block(seq))
        with pytest.raises(ProtocolError, match=msg) as exc:
            ext.predict([1])
        assert "line 1" in str(exc.value)


@pytest.mark.parametrize("model", ["markov:1", "markov:2", "markov:3",
                                   "mmc:2", "top_frequency", "random_uniform"])
def test_reference_predictor_memo_answers_like_native(rng, monkeypatch,
                                                      model):
    # the reference predictor answers a context whose last k symbols it has
    # seen since the last TRAIN from a memo: every line must still be the
    # native answer, and each distinct tail is predicted once per TRAIN
    n_sym = 5
    spec = parse_model(model)
    contexts = [[], [1], [3, 1], [0, 3, 1], [2, 0, 3, 1], [1], [7], [2, 7],
                [-1, 2], [4, 2], [0, 1, 2], [3, 1, 2], [3, 1, 2], [5, 0, 1]]
    lines, want, calls, distinct = [], [], [], 0
    for symbols in (random_collapsed(rng, 60, n_sym - 1),
                    random_collapsed(rng, 40, n_sym)):
        native = train(spec, symbols, n_sym)
        k = spec.order
        distinct += len({tuple(c[max(len(c) - k, 0):]) for c in contexts})
        lines.append(f"TRAIN {len(symbols)}")
        lines += [f"{s} {t}" for t, s in enumerate(symbols)]
        for ctx in contexts:
            lines.append(f"PREDICT {len(ctx)}")
            lines += [f"{s} {t}" for t, s in enumerate(ctx)]
            pred, dist = native_predict(native, ctx)
            want.append(f"{pred} " + " ".join(repr(float(p)) for p in dist))
    predict = extpred.CountModel.predict

    def counted(self, context):
        calls.append(tuple(context))
        return predict(self, context)

    monkeypatch.setattr(extpred.CountModel, "predict", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert extpred.serve(["--model", model,
                          "--alphabet-size", str(n_sym)]) == 0
    assert out.getvalue().splitlines() == want
    assert len(calls) == distinct


def test_child_that_exits_before_reading_train_is_reaped(spawned):
    # a TRAIN block larger than the pipe buffer makes the write fail once
    # the child is gone, unless its closed stdout is seen first; either
    # way the child must not be left unreaped
    spec = PredictorSpec(kind="external", command=(sys.executable, "-c", ""))
    with pytest.raises(ProtocolError,
                       match="pipe closed before response|closed stdout"):
        with ExternalModel.start(spec, 2) as ext:
            ext.send(train_block([0, 1] * 20_000))
            ext.predict([0])
    assert len(spawned) == 1
    assert spawned[0].returncode is not None


def test_error_inside_with_is_not_masked_by_close(tmp_path, monkeypatch,
                                                  spawned):
    # the child answers garbage and then ignores end of input: leaving the
    # block must report the garbage, not the close timeout
    script = tmp_path / "garbage_then_linger.py"
    script.write_text(textwrap.dedent("""\
        import sys, time
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                print("garbage", flush=True)
        time.sleep(30)
    """), encoding="utf-8")
    monkeypatch.setattr(predictors, "CLOSE_TIMEOUT_S", 0.3)
    spec = PredictorSpec(kind="external", command=(sys.executable, str(script)))
    with pytest.raises(ProtocolError, match="integer poi_id"):
        with ExternalModel.start(spec, 4) as ext:
            ext.send(train_block([0, 1, 2, 3]))
            ext.predict([1])
    assert spawned[0].returncode is not None


def test_protocol_error_is_data_error():
    assert issubclass(ProtocolError, DataError)


def test_external_sends_one_write_and_flush_per_request(rng, monkeypatch):
    # a request block below the pipe buffer goes out in one os.write,
    # which is the flush: the pipes are unbuffered
    seq = random_collapsed(rng, 100, 4)
    native = train(M1, seq, alphabet_size=4)
    with ExternalModel.start(ext_spec(), 4) as ext:
        ext.send(train_block(seq))
        stdin = ext._proc.stdin.fileno()
        write, writes = os.write, []

        def counting_write(fd, data):
            writes.append(fd)
            return write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        ctx = random_collapsed(rng, 64, 4)
        for i in range(1, 4):
            poi, dist = ext.predict(ctx, list(range(64)))
            assert writes.count(stdin) == i
            assert poi == native_predict(native, ctx)[0]
            np.testing.assert_array_equal(dist, native_predict(native, ctx)[1])
