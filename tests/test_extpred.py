"""The reference external predictor: its stdlib count model against the
native models, and the flags it rejects."""

import argparse
import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mobmeta import extpred
from mobmeta.core import DataError
from mobmeta.predictors import parse_model, train
from oracles import native_predict


def run_serve(argv: list[str], text: str) -> tuple[int, str]:
    """serve() on `text` as stdin: (exit status, stdout)."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            status = extpred.serve(argv)
    finally:
        sys.stdin = stdin
    return status, out.getvalue()


def block(verb: str, symbols: list[int]) -> str:
    return f"{verb} {len(symbols)}\n" + "".join(
        f"{s} {t}\n" for t, s in enumerate(symbols))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_sym=st.integers(1, 8),
       model=st.sampled_from(["markov:1", "markov:2", "markov:3", "mmc",
                              "top_frequency", "random_uniform"]))
def test_serve_lines_equal_native_predict(data, n_sym, model):
    # every response line is the native prediction printed with repr,
    # byte for byte, over several TRAIN blocks: contexts empty, shorter
    # than k, and holding ids outside the alphabet
    if model == "mmc":  # top sets smaller than, equal to and over n_sym
        model = f"mmc:{data.draw(st.integers(1, n_sym + 1))}"
    spec = parse_model(model)
    text, want = "", []
    for _ in range(data.draw(st.integers(1, 3))):
        symbols = data.draw(st.lists(st.integers(0, n_sym - 1), min_size=4,
                                     max_size=40))
        native = train(spec, symbols, n_sym)
        text += block("TRAIN", symbols)
        contexts = data.draw(st.lists(
            st.lists(st.integers(-2, n_sym + 2), max_size=5), max_size=12))
        for ctx in contexts:
            text += block("PREDICT", ctx)
            pred, dist = native_predict(native, ctx)
            want.append(f"{pred} " + " ".join(repr(float(p)) for p in dist))
    status, out = run_serve(["--model", model, "--alphabet-size", str(n_sym)],
                            text)
    assert status == 0
    assert out.splitlines() == want


@pytest.mark.parametrize("argv,named", [
    (["--model", "markov:4", "--alphabet-size", "4"], "'markov:4'"),
    (["--model", "markov:0", "--alphabet-size", "4"], "'markov:0'"),
    (["--model", "markov:x", "--alphabet-size", "4"], "'markov:x'"),
    (["--model", "mmc:0", "--alphabet-size", "4"], "'mmc:0'"),
    (["--model", "lstm", "--alphabet-size", "4"], "'lstm'"),
    (["--model", "external", "--alphabet-size", "4"], "'external'"),
    (["--model", "markov:1", "--alphabet-size", "0"], "'0'"),
    (["--model", "markov:1", "--alphabet-size", "-3"], "'-3'"),
    (["--model", "markov:1", "--alphabet-size", "x"], "'x'"),
    (["--model", "markov:", "--alphabet-size", "4"], "'markov:'"),
    (["--model", "mmc:", "--alphabet-size", "4"], "'mmc:'"),
])
def test_bad_flags_exit_2_naming_the_value(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        extpred.serve(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", [
    "markov", "markov:1", "markov:3", "markov:0", "markov:4", "markov:",
    "markov:x", "mmc", "mmc:5", "mmc:0", "mmc:", "top_frequency",
    "top_frequency:7", "random_uniform", "random_uniform:1", "bogus",
    "external",
])
def test_child_and_harness_read_one_model_grammar(model):
    try:
        spec = parse_model(model, ["predict"])
    except ValueError:
        spec = None
    try:
        kind, arg = extpred._model_arg(model)
    except argparse.ArgumentTypeError:
        kind = None
    if model == "external":  # a child runs a model, it is not external
        assert spec is not None and kind is None
        return
    assert (spec is None) == (kind is None)
    if spec is None:
        return
    assert (kind, arg) == {"markov_k": ("markov", spec.k),
                           "mmc": ("mmc", spec.top_m)
                           }.get(spec.kind, (spec.kind, 0))
    assert extpred.CountModel(kind, arg, [0, 1, 2, 3], 4).k == spec.order


def test_bad_model_exits_2_in_a_child():
    for model, why in (
        ("markov:4", "markov order must be in 1..3"),
        ("top_frequency:7", "top_frequency takes no argument"),
        ("random_uniform:zz", "random_uniform takes no argument"),
        ("random_uniform:", "random_uniform takes no argument"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "mobmeta.extpred", "--model", model,
             "--alphabet-size", "4"],
            input="", capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert f"bad model {model!r}: {why}" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("model,symbols,native,child", [
    ("markov:2", [0, 1], "needs at least 3", "markov needs at least 3 "
     "training symbols, got 2"),
    ("top_frequency", [], "needs at least 1", "top_frequency needs at "
     "least 1 training symbols, got 0"),
    ("markov:1", [0, 4, 1], "outside alphabet", "training symbol outside "
     "alphabet"),
])
def test_train_block_native_rejects_ends_the_child(capsys, model, symbols,
                                                   native, child):
    # a TRAIN block the native train() refuses ends the child with a data
    # error, not a traceback
    with pytest.raises(DataError, match=native):
        train(parse_model(model), symbols, 4)
    status, out = run_serve(["--model", model, "--alphabet-size", "4"],
                            block("TRAIN", symbols) + block("PREDICT", [0]))
    assert status == 1
    assert out == ""
    assert capsys.readouterr().err == f"data error: {child}\n"


def test_random_uniform_needs_no_training_symbols():
    status, out = run_serve(["--model", "random_uniform",
                             "--alphabet-size", "4"],
                            block("TRAIN", []) + block("PREDICT", [3]))
    assert status == 0
    assert out == "0 0.25 0.25 0.25 0.25\n"


@pytest.mark.parametrize("text,cause", [
    ("TRAIN 2\n0 0\n", "input closed mid-block"),
    ("TRAIN 2\n0 x\n1 1\n", "line '0 x' is not two integers"),
    ("FOO\n", "unknown op 'FOO'"),
    ("TRAIN\n", "block header 'TRAIN' has no count"),
])
def test_malformed_input_is_a_protocol_error(capsys, text, cause):
    status, out = run_serve(["--model", "markov:1", "--alphabet-size", "4"],
                            text)
    assert (status, out) == (1, "")
    assert capsys.readouterr().err == f"protocol error: {cause}\n"
