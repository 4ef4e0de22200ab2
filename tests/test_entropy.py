import math

import numpy as np
import pytest

from mobmeta.entropy import (
    binary_entropy,
    fano_predictability,
    lz_entropy_rate,
    lz_match_lengths,
)
from oracles import brute_entropy_rate, brute_match_lengths, fano_residual


def test_match_lengths_hand_example():
    # seq = 01010: positions 2 and 3 have seen their 2-grams before
    assert lz_match_lengths([0, 1, 0, 1, 0]).tolist() == [1, 1, 3, 3, 2]
    assert lz_entropy_rate([0, 1, 0, 1, 0]) == pytest.approx(
        5 * math.log2(5) / 10
    )


def test_match_lengths_agree_with_quadratic_scan(rng):
    for n_sym in (2, 3, 5, 12):
        for n in (2, 3, 17, 64, 300):
            seq = rng.integers(0, n_sym, size=n).tolist()
            assert (
                lz_match_lengths(seq).tolist() == brute_match_lengths(seq)
            ), (n_sym, n, seq[:20])


def copy_with_gap_stream(rng, n, gap, eps):
    """4 symbols, s_i = 2*b_i + (i mod 2), each bit b_i copying b_{i-gap}
    with probability 1 - eps: long repeats, so the automaton clones about
    one state per symbol."""
    bits = rng.integers(0, 2, size=gap).tolist()
    for i in range(gap, n):
        bits.append(bits[i - gap] if rng.random() >= eps
                    else int(rng.integers(0, 2)))
    return [2 * b + i % 2 for i, b in enumerate(bits)]


@pytest.mark.parametrize("kind", ["copy_with_gap", "periodic", "iid_k300"])
def test_match_lengths_agree_on_repeats_and_wide_alphabets(rng, kind):
    if kind == "copy_with_gap":
        seq = copy_with_gap_stream(rng, 400, 6, 0.05)
    elif kind == "periodic":
        seq = [0, 3, 1, 3, 2] * 60 + [1]
    else:
        seq = rng.integers(0, 300, size=600).tolist()
    got = lz_match_lengths(seq).tolist()
    assert got == brute_match_lengths(seq)
    if kind != "iid_k300":
        assert max(got) > 40  # the scan really follows long matches


def test_entropy_rate_matches_brute_force(rng):
    seq = rng.integers(0, 4, size=500).tolist()
    assert lz_entropy_rate(seq) == pytest.approx(brute_entropy_rate(seq))


def test_constant_sequence_near_zero():
    assert lz_entropy_rate([3] * 10_000) <= 0.02


def test_relabeling_invariance(rng):
    seq = rng.integers(0, 6, size=400)
    perm = rng.permutation(6)
    relabeled = perm[seq]
    assert lz_match_lengths(seq).tolist() == lz_match_lengths(relabeled).tolist()
    assert lz_entropy_rate(seq) == lz_entropy_rate(relabeled)


def test_iid_uniform_approaches_log2_n(rng):
    # convergence is O(1/log n) from below, so the tolerance is loose
    seq = rng.integers(0, 8, size=60_000).tolist()
    s = lz_entropy_rate(seq)
    assert 2.7 <= s <= 3.02


def test_too_short_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        lz_entropy_rate([1])


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328)
    assert binary_entropy(0.3) == binary_entropy(0.7)


def test_fano_endpoints():
    assert fano_predictability(0.0, 5) == pytest.approx(1.0)
    assert fano_predictability(math.log2(5), 5) == pytest.approx(1.0 / 5)


def test_fano_solves_the_bound_equation(rng):
    for n in (2, 3, 7, 64, 1000):
        for s in rng.uniform(0.0, math.log2(n), size=6):
            pi = fano_predictability(float(s), n)
            assert fano_residual(pi, float(s), n) == pytest.approx(0.0, abs=1e-9)


def test_fano_round_trips_probability(rng):
    for n in (2, 5, 40):
        for p in rng.uniform(1.0 / n + 1e-6, 1.0 - 1e-6, size=5):
            s = binary_entropy(float(p)) + (1.0 - p) * math.log2(n - 1)
            assert fano_predictability(s, n) == pytest.approx(float(p), abs=1e-9)


def test_fano_monotone_decreasing_in_entropy():
    grid = np.linspace(0.0, math.log2(12), 25)
    pis = [fano_predictability(float(s), 12) for s in grid]
    assert all(a >= b - 1e-12 for a, b in zip(pis, pis[1:]))


def test_fano_clamps_small_excursions():
    with pytest.warns(UserWarning, match="clamping"):
        assert fano_predictability(-0.05, 4) == pytest.approx(1.0)
    with pytest.warns(UserWarning, match="clamping"):
        assert fano_predictability(2.05, 4) == pytest.approx(0.25)


def test_fano_rejects_implausible_entropy():
    with pytest.raises(ValueError):
        fano_predictability(-0.2, 4)
    with pytest.raises(ValueError):
        fano_predictability(2.2, 4)
    with pytest.raises(ValueError, match="alphabet"):
        fano_predictability(0.5, 1)
