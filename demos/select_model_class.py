"""Run the rule-based selector on three synthetic datasets.

The selector reads a characterization report and walks an ordered rule
list; the first rule whose conditions all hold names the model class.
The trace printed for each dataset shows every rule that was checked,
so a verdict is always explainable from the measured attributes.
"""

import numpy as np

from mobmeta.characterize import characterize
from mobmeta.selector import recommend
from mobmeta.synth import SourceSpec, generate


def datasets():
    common = dict(n_symbols=15_000, n_users=4, seed=11)
    chain = np.where(np.eye(5, dtype=bool), 0.0, 1 / 4)
    return [
        ("memoryless chain",
         SourceSpec(kind="markov_order_k", transition=chain, **common)),
        ("five-stop loop",
         SourceSpec(kind="periodic", pattern=(0, 1, 2, 3, 4), **common)),
        ("hundred-stop route",
         SourceSpec(kind="periodic", pattern=tuple(range(120)), **common)),
    ]


def main():
    for name, spec in datasets():
        ds, _ = generate(spec)
        rep = characterize(ds, 12)
        rec = recommend(rep)
        print(f"{name}: {rec.verdict}  ({rec.rationale})")
        for entry in rec.trace:
            conds = ", ".join(
                f"{k} {c['value']:.3g} vs {c['threshold']:g}"
                f" [{'Y' if c['satisfied'] else 'n'}]"
                for k, c in entry["conditions"].items()
            ) or "always"
            mark = "*" if entry["fired"] else " "
            print(f"  {mark} {entry['rule']}: {conds} "
                  f"-> {entry['verdict_if_matched']}")
        print()


if __name__ == "__main__":
    main()
