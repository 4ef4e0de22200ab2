"""Reference external predictor speaking the stdio line protocol.

Run as ``python -m mobmeta.extpred --model markov:1 --alphabet-size 8``.
It imports only the standard library, so a fold's child starts without
numpy, and it is a template for a user predictor: read TRAIN and PREDICT
blocks from stdin and answer each PREDICT with one line (the protocol is
described in `predictors.ExternalModel`).

Its count model is a dict version of the native markov_k, mmc,
top_frequency and random_uniform, which all smooth by alpha 0.01 and
back off to lower orders, and it does the same floating-point operations
in the same order.  It prints probabilities with repr(), which
round-trips doubles exactly.  So a correctly wired adapter reproduces
every native model's in-process results bit for bit.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

ALPHA = 0.01  # predictors.SMOOTHING_ALPHA, without importing numpy


def _model_arg(text: str) -> tuple[str, int]:
    """(kind, markov order or mmc top set size) of a --model value:
    markov:K with K in 1..3, mmc[:M] with M >= 1, top_frequency or
    random_uniform, read as `predictors.parse_model` reads them."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "markov":
            k = int(arg or 1)
            if not 1 <= k <= 3:
                raise ValueError(f"markov order must be in 1..3, got {k}")
            return kind, k
        if kind == "mmc":
            top_m = int(arg or 10)
            if top_m < 1:
                raise ValueError(f"top_m must be >= 1, got {top_m}")
            return kind, top_m
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad model {text!r}: {e}") from None
    if kind in ("top_frequency", "random_uniform"):
        return kind, 0
    raise argparse.ArgumentTypeError(f"unknown model {text!r}")


def _alphabet_size(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"alphabet size must be an integer >= 1, got {text!r}")


def _windows(stream: list[int], k: int) -> list[dict]:
    """For each order j = 0..k, {context: {next symbol: count}} over the
    stream's windows of j + 1 symbols; a context is a tuple of j symbols."""
    orders = []
    for j in range(k + 1):
        nexts: dict[tuple[int, ...], dict[int, int]] = {}
        for gram, count in Counter(zip(*(stream[i:] for i in range(j + 1)))
                                   ).items():
            nexts.setdefault(gram[:-1], {})[gram[-1]] = count
        orders.append(nexts)
    return orders


def _serve(orders: list[dict], ctx: list[int],
           n: int) -> tuple[int, list[float]]:
    """(argmax, probabilities of 0..n-1) after ctx.

    The highest order whose context was seen in training serves: its
    most frequent next symbol (smallest id on ties) and the smoothed
    (alpha + count) / (total + alpha * n).  When no order serves, the
    argmax is 0 and every symbol gets 1 / n.
    """
    for j in range(min(len(orders) - 1, len(ctx)), -1, -1):
        counts = orders[j].get(tuple(ctx[len(ctx) - j:]))
        if counts:
            best = min(counts, key=lambda s: (-counts[s], s))
            denominator = sum(counts.values()) + ALPHA * n
            return best, [(ALPHA + counts.get(s, 0)) / denominator
                          for s in range(n)]
    return 0, [1.0 / n] * n


class CountModel:
    """One TRAIN block's model.

    markov:k counts orders 0..k, top_frequency order 0 alone and
    random_uniform nothing.  mmc:M with M below the alphabet size counts
    orders 0..1 of the stream of states: state i is the i-th smallest id
    of the top set (the M most frequent training POIs, ties to the
    smaller id), and a last "other" state stands for every other POI.
    Its probability is split evenly over them, and it resolves to the
    most frequent POI outside the top set (the smallest unseen id when
    none was seen).  A larger M leaves no other POI: that mmc is
    markov:1.
    """

    def __init__(self, kind: str, arg: int, symbols: list[int], n: int):
        # the highest order counted; counting it takes k + 1 symbols
        self.k = {"random_uniform": -1, "top_frequency": 0, "mmc": 1
                  }.get(kind, arg)
        if len(symbols) < self.k + 1:
            raise ValueError(f"{kind} needs at least {self.k + 1} training "
                             f"symbols, got {len(symbols)}")
        if not all(0 <= s < n for s in symbols):
            raise ValueError("training symbol outside alphabet")
        self.n = n
        self.state: dict[int, int] | None = None  # mmc: top POI -> state
        if kind == "mmc" and arg < n:
            freq = Counter(symbols)
            by_freq = sorted(freq, key=lambda s: (-freq[s], s))
            top = sorted(by_freq[:arg])
            other = (by_freq[arg] if len(by_freq) > arg else
                     next(i for i, s in enumerate(top + [n]) if s != i))
            self.state = {s: i for i, s in enumerate(top)}
            self.resolve = top + [other]
            symbols = [self.state.get(s, len(top)) for s in symbols]
        self.orders = _windows(symbols, self.k)

    def predict(self, ctx: list[int]) -> tuple[int, list[float]]:
        """(argmax, probabilities of 0..n-1) after the context."""
        if self.state is None:
            return _serve(self.orders, ctx, self.n)
        at = self.state
        best, p = _serve(self.orders, [at.get(s, len(at)) for s in ctx[-1:]],
                         len(self.resolve))
        return self.resolve[best], [p[at[s]] if s in at
                                    else p[-1] / (self.n - len(at))
                                    for s in range(self.n)]


def _read_block(stdin, header: str) -> tuple[str, list[int]]:
    """(op, symbols) of the block that `header` opens.

    ValueError on an unknown op, a header without a count or a line that
    is not two integers; EOFError when input closes mid-block.
    """
    header = header.rstrip("\n")
    op, _, count = header.partition(" ")
    if op not in ("TRAIN", "PREDICT"):
        raise ValueError(f"unknown op {op!r}")
    if not count.strip().isdigit():
        raise ValueError(f"block header {header!r} has no count")
    symbols = []
    for _ in range(int(count)):
        line = stdin.readline()
        if not line:
            raise EOFError("input closed mid-block")
        try:
            symbol, t = line.split()
            symbols.append(int(symbol))
            int(t)  # checked, not used: the count model ignores time
        except ValueError:
            raise ValueError(
                f"line {line.rstrip()!r} is not two integers") from None
    return op, symbols


def _response(model: CountModel, ctx: list[int], argmax_only: bool) -> str:
    pred, probs = model.predict(ctx)
    if argmax_only:
        return f"{pred}\n"
    return f"{pred} " + " ".join(map(repr, probs)) + "\n"


def serve(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mobmeta.extpred")
    ap.add_argument("--model", type=_model_arg, required=True,
                    help="markov:K (K in 1..3) | mmc[:M] | top_frequency "
                         "| random_uniform")
    ap.add_argument("--alphabet-size", type=_alphabet_size, required=True)
    ap.add_argument("--argmax-only", action="store_true",
                    help="respond with the poi_id alone, no distribution")
    args = ap.parse_args(argv)
    kind, arg = args.model
    n_sym = args.alphabet_size

    stdin, stdout = sys.stdin, sys.stdout
    model = None
    while True:
        line = stdin.readline()
        if not line:
            return 0
        try:
            op, symbols = _read_block(stdin, line)
        except (EOFError, ValueError) as e:
            print(f"protocol error: {e}", file=sys.stderr)
            return 1
        if op == "TRAIN":
            try:
                model = CountModel(kind, arg, symbols, n_sym)
            except ValueError as e:
                print(f"data error: {e}", file=sys.stderr)
                return 1
            # a model reads only the last k context symbols, so contexts
            # that share them share the response line
            memo: dict[tuple[int, ...], str] = {}
            continue
        if model is None:
            print("protocol error: PREDICT before TRAIN", file=sys.stderr)
            return 1
        key = tuple(symbols[-model.k:]) if model.k > 0 else ()
        if key not in memo:
            memo[key] = _response(model, symbols, args.argmax_only)
        stdout.write(memo[key])
        stdout.flush()


if __name__ == "__main__":
    sys.exit(serve())
