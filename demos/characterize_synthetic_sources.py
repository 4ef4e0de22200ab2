"""Characterize four synthetic sources and compare their meta-attributes.

Each source has a known structure, so the printed table shows how the
statistics separate them:
1. a periodic visitor (zero entropy, fully predictable)
2. a memoryless chain (entropy near log2(m-1), MI dies after d=1)
3. a copy-with-gap source (MI stays high far beyond d=1)
4. a heavy-tailed iid visitor (high entropy, no usable dependence)
"""

import numpy as np

from mobmeta.characterize import characterize
from mobmeta.synth import SourceSpec, generate


def sources():
    common = dict(n_symbols=20_000, n_users=5, seed=3)
    chain = np.where(np.eye(6, dtype=bool), 0.0, 1 / 5)
    zipfish = np.array([1 / (r + 1) for r in range(8)])
    zipfish = zipfish / zipfish.sum()
    return [
        ("weekly routine", SourceSpec(kind="periodic",
                                      pattern=(0, 1, 0, 2, 3), **common)),
        ("memoryless chain", SourceSpec(kind="markov_order_k",
                                        transition=chain, **common)),
        ("copy with gap 6", SourceSpec(kind="copy_with_gap", gap=6,
                                       eps=0.05, **common)),
        ("heavy-tailed iid", SourceSpec(kind="iid", dist=tuple(zipfish),
                                        **common)),
    ]


def spark(curve, width=24):
    """Tiny ASCII rendition of I(d) against d."""
    marks = " .:-=+*#"
    vals = [i for _, i in curve][:width]
    top = max(vals) or 1.0
    return "".join(marks[int(v / top * (len(marks) - 1))] for v in vals)


def main():
    print(f"{'source':<18} {'S bits':>7} {'Pi_max':>7} {'ldd':>4} "
          f"{'alpha':>6}  I(d), d=1..24")
    for name, spec in sources():
        ds, _ = generate(spec)
        rep = characterize(ds, d_max=24)
        alpha = "-" if rep.ldd_exponent_alpha is None else (
            f"{rep.ldd_exponent_alpha:.2f}"
        )
        depth = "-" if rep.ldd_depth is None else str(rep.ldd_depth)
        print(
            f"{name:<18} {rep.entropy_bits_mean:>7.3f} "
            f"{rep.predictability_mean:>7.4f} {depth:>4} {alpha:>6}  "
            f"|{spark(rep.mi_curve)}|"
        )
    print()
    print("the copy-with-gap row keeps MI high at every distance, which is")
    print("what the ldd column is measuring; the chain forgets after one step")


if __name__ == "__main__":
    main()
