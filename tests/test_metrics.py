import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mobmeta.core import DataError
from mobmeta.metrics import (
    MATCH_LENGTHS,
    _pair_counts,
    _separator_hits,
    attribute_correlations,
    fit_power_law,
    match_structure,
    mi_decay_curve,
    mutual_information_at_distance,
    pmi,
    pmi_from_counts,
    top_pmi,
)
from oracles import (
    brute_match_structure,
    mi_by_cell_sum,
    mi_by_pair_enumeration,
    pairs_at_distance,
    pearson_by_hand,
    top_pmi_by_counting,
)


def test_mi_alternating_sequence_is_one_bit():
    # 0101...0 of odd length: the lag-1 pair table is exactly half (0,1)
    # and half (1,0), so I = H(X) + H(Y) - H(X,Y) = 1 + 1 - 1 = 1
    seq = [0, 1] * 500 + [0]
    assert mutual_information_at_distance(seq, 1) == pytest.approx(1.0)
    assert mutual_information_at_distance(seq, 2) == pytest.approx(1.0)


def test_mi_iid_is_near_zero(rng):
    seq = rng.integers(0, 4, size=20_000)
    assert mutual_information_at_distance(seq, 1) < 0.002


def test_mi_matches_both_oracle_forms(rng):
    for d in (1, 2, 5):
        seq = rng.integers(0, 5, size=800).tolist()
        got = mutual_information_at_distance(seq, d)
        assert got == pytest.approx(mi_by_pair_enumeration(seq, d), abs=1e-12)
        assert got == mi_by_cell_sum(seq, d)


def test_mi_separator_windows_excluded(rng):
    # separator strictly inside the window must drop the pair too
    sep = 5
    seq = (
        rng.integers(0, 5, size=300).tolist()
        + [sep]
        + rng.integers(0, 5, size=300).tolist()
    )
    for d in (1, 2, 4):
        got = mutual_information_at_distance(seq, d, separator_id=sep)
        assert got == pytest.approx(
            mi_by_pair_enumeration(seq, d, separator=sep), abs=1e-12
        )
    # pair counting really does skip the straddling windows
    assert len(pairs_at_distance(seq, 3, separator=sep)) == 601 - 3 - 4


@pytest.mark.parametrize("k", [50, 300])
def test_mi_exact_at_wide_alphabets(rng, k):
    # the fsum'd cell terms equal the oracle's to the last bit, not just
    # within a tolerance, also where most cells hold one or two pairs
    seq = rng.integers(0, k, size=3000).tolist()
    with_sep = seq[:1000] + [k] + seq[1000:2000] + [k] + seq[2000:]
    for d in (1, 2, 7, 40):
        assert mutual_information_at_distance(seq, d) == mi_by_cell_sum(
            seq, d
        )
        assert mutual_information_at_distance(
            with_sep, d, separator_id=k
        ) == mi_by_cell_sum(with_sep, d, separator=k)


def test_mi_reversal_symmetric(rng):
    seq = rng.integers(0, 4, size=500).tolist()
    for d in (1, 3):
        assert mutual_information_at_distance(
            seq, d
        ) == pytest.approx(
            mutual_information_at_distance(seq[::-1], d), abs=1e-12
        )


def test_mi_argument_errors():
    with pytest.raises(ValueError, match="distance"):
        mutual_information_at_distance([0, 1, 0], 0)
    with pytest.raises(DataError, match="no pairs"):
        mutual_information_at_distance([0, 1, 0], 3)


def test_pmi_from_counts_values():
    # pair always follows: log2(N * C_ab / (C_a * C_b)) = log2(10*5/(5*5))
    assert pmi_from_counts(10, 5, 5, 5) == pytest.approx(math.log2(2.0))
    # independence: C_ab = C_a * C_b / N exactly
    assert pmi_from_counts(100, 20, 10, 2) == 0.0
    assert pmi_from_counts(10, 5, 5, 0) == float("-inf")
    with pytest.raises(DataError):
        pmi_from_counts(10, 0, 5, 1)


def test_pmi_on_sequence():
    # b follows a every time a occurs; N=10 pairs, C(a)=C(b)=... build it:
    # 0 1 0 1 0 1 0 1 0 1 0 -> pairs (0,1)x5 and (1,0)x5
    seq = [0, 1] * 5 + [0]
    assert pmi(seq, 0, 1, 1) == pytest.approx(1.0)  # log2(10*5/(5*5))
    assert pmi(seq, 0, 0, 1) == float("-inf")
    with pytest.raises(DataError, match="never occurs"):
        pmi(seq, 0, 7, 1)


def test_pmi_matches_direct_count(rng):
    seq = rng.integers(0, 4, size=400).tolist()
    d = 2
    prs = pairs_at_distance(seq, d)
    n = len(prs)
    c_a = sum(1 for x, _ in prs if x == 1)
    c_b = sum(1 for _, y in prs if y == 2)
    c_ab = sum(1 for p in prs if p == (1, 2))
    expected = math.log2(n * c_ab / (c_a * c_b))
    assert pmi(seq, 1, 2, d) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", [2, 4, 50, 300])
def test_top_pmi_matches_counting_oracle(rng, k):
    # in the cyclic stream nearly every cell has the same score, so the
    # (a, b) tie order decides; top_k beyond the cell count returns all
    random_seq = rng.integers(0, k, size=2000).tolist()
    cyclic = list(range(k)) * (2000 // k) + [0]
    for seq in (random_seq, cyclic):
        with_sep = seq[:700] + [k] + seq[700:]
        for d in (1, 3):
            for top_k in (1, 10, 10**6):
                assert top_pmi(seq, d, top_k) == top_pmi_by_counting(
                    seq, d, top_k
                )
                assert top_pmi(
                    with_sep, d, top_k, k
                ) == top_pmi_by_counting(with_sep, d, top_k, separator=k)


def test_top_pmi_ties_by_pair():
    # 0 1 2 0 1 2 ... 0: the three lag-1 cells share one score, log2(3)
    got = top_pmi([0, 1, 2] * 10 + [0], 1, 10)
    assert [key for key, _ in got] == [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    assert {v for _, v in got} == {math.log2(3.0)}


def test_fit_power_law_recovers_exponent():
    ds = np.arange(1, 40)
    vals = 2.5 * ds ** -0.8
    alpha, rmse = fit_power_law(ds, vals)
    assert alpha == pytest.approx(0.8, abs=1e-9)
    assert rmse == pytest.approx(0.0, abs=1e-9)


def test_fit_power_law_guards():
    with pytest.raises(ValueError, match="2 points"):
        fit_power_law([1], [0.5])
    with pytest.raises(ValueError, match="positive"):
        fit_power_law([1, 2], [0.5, 0.0])


def test_mi_decay_curve_shape_and_depth(rng):
    # 2-block copy source: strong MI at d=1 fading with distance
    n = 4000
    seq = np.empty(n, dtype=np.int64)
    seq[0] = 0
    for i in range(1, n):
        seq[i] = seq[i - 1] if rng.random() < 0.9 else rng.integers(0, 4)
    decay = mi_decay_curve(seq, 12)
    curve = dict(decay.curve)
    assert set(curve) == set(range(1, 13))
    assert curve[1] > curve[6] > curve[12] >= 0.0
    assert decay.ldd_depth is not None and decay.ldd_depth >= 1
    assert decay.alpha is not None and decay.alpha > 0


def test_mi_decay_curve_guards():
    with pytest.raises(ValueError, match="d_max"):
        mi_decay_curve([0, 1] * 20, 4)  # 4*10 >= 40
    with pytest.raises(ValueError, match="d_max"):
        mi_decay_curve([0, 1] * 50, 0)


def test_mi_decay_no_dependence_leaves_alpha_none(rng):
    seq = rng.integers(0, 2, size=3000)
    decay = mi_decay_curve(seq, 5)
    assert decay.alpha is None
    assert decay.ldd_depth is None


def triples(rows: np.ndarray) -> list[tuple[int, int, int]]:
    assert rows.dtype == np.int64 and rows.shape[1:] == (3,)
    return [tuple(r) for r in rows.tolist()]


def test_match_structure_hand_example():
    # abab: "a" repeats at 2, "b" repeats at 3, "ab" repeats at 2
    got = [row for row in triples(match_structure([0, 1, 0, 1]))
           if row[1] <= 2]
    assert got == [(2, 1, 2), (2, 2, 2), (3, 1, 2)]


def test_match_structure_matches_quadratic_oracle(rng):
    seq = rng.integers(0, 3, size=200).tolist()
    got = match_structure(seq)
    assert triples(got) == brute_match_structure(seq)


def test_match_structure_separator_skipped(rng):
    sep = 3
    seq = (
        rng.integers(0, 3, size=60).tolist()
        + [sep]
        + rng.integers(0, 3, size=60).tolist()
    )
    got = triples(match_structure(seq, separator_id=sep))
    assert got == brute_match_structure(seq, separator=sep)
    assert all(
        sep not in seq[pos : pos + L] for pos, L, _ in got
    )


def test_match_structure_smallest_delta():
    # position 4 gram "0": previous occurrences at 0 and 2; delta is 2
    got = [row for row in triples(match_structure([0, 1, 0, 1, 0]))
           if row[1] == 1]
    assert (4, 1, 2) in got


@st.composite
def match_cases(draw):
    """(stream, separator) over 1-6 symbols; separators anywhere,
    adjacent ones included."""
    k = draw(st.integers(1, 6))
    seq = draw(st.lists(st.integers(0, k - 1), max_size=80))
    sep = None
    if draw(st.booleans()):
        sep = k
        for i in draw(st.lists(st.integers(0, len(seq)), max_size=5)):
            seq.insert(i, sep)
    return seq, sep


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(match_cases())
@example(([9, 0, 1, 0, 1, 0], 9))  # separator first
@example(([0, 1, 0, 1, 0, 9], 9))  # separator last
@example(([0, 1, 9, 9, 0, 1, 9, 0, 1], 9))  # adjacent ones
@example(([3, 0, 3, 1, 0, 3, 1, 3], 0))  # the smallest symbol
@example(([2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0], None))
@example(([0, 1, 0], None))  # some lengths greater than n
@example(([5] * 40, None))  # constant stream
def test_match_structure_equals_quadratic_oracle(case):
    seq, sep = case
    got = match_structure(seq, sep)
    assert triples(got) == brute_match_structure(seq, MATCH_LENGTHS, sep)


def test_pair_counts_with_a_large_span(rng):
    # one symbol far above the rest makes span ~1e5 while only a few
    # cells are occupied; the separator is the largest symbol
    far, sep = 100_000, 100_001
    seq = rng.integers(0, 4, size=600).tolist()
    for i in rng.choice(600, size=40, replace=False).tolist():
        seq[i] = far
    seq[200] = seq[201] = seq[450] = sep
    stream = np.asarray(seq, dtype=np.int64)
    for d in (1, 2, 5, 30):
        x, y, c_xy, n, c_x, c_y = _pair_counts(
            stream, d, _separator_hits(stream, sep)
        )
        pairs = pairs_at_distance(seq, d, separator=sep)
        joint = sorted(Counter(pairs).items())
        assert n == len(pairs)
        assert list(zip(x.tolist(), y.tolist())) == [xy for xy, _ in joint]
        assert c_xy.tolist() == [c for _, c in joint]
        left, right = Counter(a for a, _ in pairs), Counter(b for _, b in pairs)
        assert c_x.tolist() == [left[a] for a in x.tolist()]
        assert c_y.tolist() == [right[b] for b in y.tolist()]
        assert far in x.tolist() and sep not in x.tolist() + y.tolist()
        assert mutual_information_at_distance(
            seq, d, separator_id=sep
        ) == mi_by_cell_sum(seq, d, separator=sep)
        assert top_pmi(seq, d, 25, separator_id=sep) == top_pmi_by_counting(
            seq, d, 25, separator=sep
        )


@st.composite
def pair_count_cases(draw):
    """(stream, separator) over 1-12 symbols and up to 160 positions, so
    the span x span table is on either side of the pair count: without a
    separator, with one that never occurs, or with some inside."""
    k = draw(st.integers(1, 12))
    seq = draw(st.lists(st.integers(0, k - 1), min_size=3, max_size=160))
    kind = draw(st.sampled_from(["none", "absent", "inside"]))
    if kind == "none":
        return seq, None
    if kind == "inside":
        for i in draw(st.lists(st.integers(1, len(seq) - 1), min_size=1,
                               max_size=4)):
            seq.insert(i, k)
    return seq, k


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(pair_count_cases(), st.integers(1, 12), st.integers(0, 20))
@example(([0, 1, 2, 3] * 4 + [0], None), 1, 5)  # 16 cells, 16 pairs
@example(([0, 1, 2, 3] * 4, None), 1, 5)  # 16 cells, 15 pairs
@example(([0, 1, 2, 3] * 4 + [0, 4, 0], 4), 1, 5)  # one past the separator
def test_both_table_builds_equal_the_oracles(case, d, top_k):
    # exact equality: the dense and the sorted table give the same cells,
    # counts and marginals, so every figure keeps its last bit
    seq, sep = case
    if len(pairs_at_distance(seq, d, sep)) >= 2:
        assert mutual_information_at_distance(
            seq, d, separator_id=sep
        ) == mi_by_cell_sum(seq, d, separator=sep)
        assert top_pmi(seq, d, top_k, separator_id=sep) == (
            top_pmi_by_counting(seq, d, top_k, separator=sep)
        )
    # pairs only fall as d grows, so the curve runs to the last d with 2
    d_max = (len(seq) - 1) // 10
    while d_max and len(pairs_at_distance(seq, d_max, sep)) < 2:
        d_max -= 1
    if d_max:
        assert mi_decay_curve(seq, d_max, separator_id=sep).curve == tuple(
            (e, mi_by_cell_sum(seq, e, separator=sep))
            for e in range(1, d_max + 1)
        )


def test_correlations_hand_checked():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [2.0, 1.0, 4.0, 3.0, 6.0]
    zs = [5.0, 4.0, 3.0, 2.0, 1.0]
    names, corr = attribute_correlations(
        ["x", "y", "z"], np.array([xs, ys, zs])
    )
    assert names == ["x", "y", "z"]
    assert corr[0, 1] == pytest.approx(pearson_by_hand(xs, ys))
    assert corr[0, 2] == pytest.approx(-1.0)
    assert np.allclose(corr, corr.T)
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(corr >= -1.0) and np.all(corr <= 1.0)


def test_correlations_drop_constant_with_warning():
    m = np.array([[1.0, 2.0, 3.0], [7.0, 7.0, 7.0]])
    with pytest.warns(UserWarning, match="no variance"):
        names, corr = attribute_correlations(["a", "b"], m)
    assert names == ["a"]
    assert corr.shape == (1, 1)


def test_correlations_need_three_users():
    with pytest.raises(DataError, match="3 users"):
        attribute_correlations(["a"], np.array([[1.0, 2.0]]))
