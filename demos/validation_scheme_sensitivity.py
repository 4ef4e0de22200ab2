"""Show how the validation scheme changes the measured accuracy.

A source that switches behavior three quarters of the way through the
observation window is evaluated with the same markov_1 model under the
conventional schemes (holdout at three split points, shuffled k-fold)
and under time-ordered block rolling.  The conventional schemes disagree
by a wide margin because each one tests a different share of the two
regimes: holdout tests only the tail after its split point, most or all
of it in the second regime, while k-fold tests every position.  Training
on the future is not what separates them.  Holdout never does: its one
fold trains on [0, m) and tests [m, n).  k-fold does, but predicting
each of its test positions only from the training windows that end
before it scored 0.833 on this source, against its 0.834.  Block rolling
pins the regime change to a single fold, where the fold curve shows it.
"""

import numpy as np

from mobmeta.predictors import PredictorSpec
from mobmeta.synth import SourceSpec, generate
from mobmeta.validation import (
    ValidationPlan,
    default_sensitivity_plans,
    evaluate,
    validation_sensitivity,
)


def switching_dataset():
    base = dict(n_symbols=10_000, n_users=8, seed=7)
    routine = SourceSpec(kind="periodic", pattern=(0, 1, 2, 3), **base)
    drift = SourceSpec(
        kind="markov_order_k",
        transition=np.where(np.eye(4, dtype=bool), 0.0, 1 / 3),
        **base,
    )
    spec = SourceSpec(kind="regime_switch", spec_a=routine, spec_b=drift,
                      switch_fraction=0.75, **base)
    ds, _ = generate(spec)
    return ds


def main():
    ds = switching_dataset()
    model = PredictorSpec(kind="markov_k", k=1)

    rows = validation_sensitivity(
        ds, model, default_sensitivity_plans(seed=0)
    )
    print("scheme sensitivity on the regime-switching source (markov_1):")
    for r in rows:
        tag = "leaky" if r.leaky else "ok"
        print(f"  {r.scheme:>10} {r.params:<22} acc {r.accuracy_user_mean:.4f}"
              f"  ({tag})")
    accs = [r.accuracy_user_mean for r in rows]
    print(f"  spread: {max(accs) - min(accs):.4f}")
    print()

    res = evaluate(ds, model, ValidationPlan("block_rolling", k=10, p=1))
    print(f"block_rolling:k=10,p=1 accuracy by fold "
          f"(weighted {res.accuracy_weighted:.4f}):")
    for fold, acc in res.fold_curve():
        bar = "#" * int(acc * 40)
        print(f"  fold {fold}: {acc:6.4f} |{bar:<40}|")
    print()
    print("folds 0..5 sit inside the routine regime and score near 1.0;")
    print("the switch lands in fold 6 and the curve drops to chance level")


if __name__ == "__main__":
    main()
