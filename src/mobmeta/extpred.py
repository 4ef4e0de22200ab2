"""Reference external predictor speaking the stdio line protocol.

Run as ``python -m mobmeta.extpred --model markov:1 --alphabet-size 8``.
Wraps the native models, so a correctly wired adapter must reproduce
in-process results bit for bit (probabilities are printed with repr(),
which round-trips doubles exactly).

``--misbehave`` deliberately violates the protocol in one chosen way;
the harness's error paths are tested against it.
"""

from __future__ import annotations

import argparse
import sys

from .predictors import parse_model, train

MISBEHAVIORS = ("none", "bad_sum", "wrong_len", "oob_id", "garbage", "close")


def _read_block(stdin, n: int) -> tuple[list[int], list[int]]:
    symbols, ts = [], []
    for _ in range(n):
        line = stdin.readline()
        if not line:
            raise EOFError("input closed mid-block")
        a, b = line.split()
        symbols.append(int(a))
        ts.append(int(b))
    return symbols, ts


def serve(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mobmeta.extpred")
    ap.add_argument("--model", required=True)
    ap.add_argument("--alphabet-size", type=int, required=True)
    ap.add_argument("--argmax-only", action="store_true",
                    help="respond with the poi_id alone, no distribution")
    ap.add_argument("--misbehave", choices=MISBEHAVIORS, default="none")
    args = ap.parse_args(argv)
    spec = parse_model(args.model)
    n_sym = args.alphabet_size

    stdin, stdout = sys.stdin, sys.stdout
    model = None
    while True:
        line = stdin.readline()
        if not line:
            return 0
        op, _, count = line.partition(" ")
        n = int(count)
        if op == "TRAIN":
            symbols, ts = _read_block(stdin, n)
            model = train(spec, symbols, n_sym, ts)
            # a model reads only the last k context symbols, so contexts
            # that share them share the answer
            k = len(model.tables) - 1
            memo = {}
            continue
        if op != "PREDICT":
            print(f"protocol error: unknown op {op!r}", file=sys.stderr)
            return 1
        ctx, _ = _read_block(stdin, n)
        if model is None:
            print("protocol error: PREDICT before TRAIN", file=sys.stderr)
            return 1
        key = tuple(ctx[-k:]) if k > 0 else ()
        if key not in memo:
            memo[key] = model.predict(ctx)
        pred, dist = memo[key]
        if args.misbehave == "close":
            return 0
        if args.misbehave == "garbage":
            stdout.write("not-a-poi\n")
        elif args.misbehave == "oob_id":
            stdout.write(f"{n_sym + 5}\n")
        elif args.misbehave == "wrong_len":
            stdout.write(f"{pred} 0.5 0.5\n" if n_sym != 2
                         else f"{pred} 1.0\n")
        elif args.misbehave == "bad_sum":
            stdout.write(f"{pred} " + " ".join(["0.5"] * n_sym) + "\n")
        elif args.argmax_only or dist is None:
            stdout.write(f"{pred}\n")
        else:
            stdout.write(
                f"{pred} " + " ".join(repr(float(p)) for p in dist) + "\n"
            )
        stdout.flush()


if __name__ == "__main__":
    sys.exit(serve())
