"""Entropy-rate estimation from LZ match lengths and the Fano
predictability bound.

The estimator is the match-length form: S = n*log2(n) / sum_i Lambda_i,
where Lambda_i is the length of the shortest substring starting at
position i that does not appear anywhere in positions < i (equivalently
the longest match length + 1, capped at n-i+1, with Lambda_0 = 1).
Match lengths are computed against a suffix automaton grown one symbol
at a time, so the whole scan is O(n) amortized rather than the quadratic
cost of re-searching the prefix at every position.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np


class _SuffixAutomaton:
    """Online suffix automaton over integer symbols.

    States are parallel arrays; state 0 is the root (empty string).
    link[0] = -1 acts as a sentinel with length -1, which makes
    minlen(v) = len(link(v)) + 1 uniform across all states.
    """

    def __init__(self):
        self.length = [0]
        self.link = [-1]
        self.trans: list[dict[int, int]] = [{}]
        self.last = 0

    def extend(self, c: int) -> None:
        length, link, trans = self.length, self.link, self.trans
        cur = len(length)
        length.append(length[self.last] + 1)
        link.append(0)
        trans.append({})
        p = self.last
        while p != -1 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p != -1:
            q = trans[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur


def lz_match_lengths(seq: Sequence[int]) -> np.ndarray:
    """Lambda_i for every position: shortest-novel-substring lengths.

    Lambda_i = (longest L such that seq[i:i+L] occurs inside seq[:i]) + 1.
    The walk keeps a (state, l) pair for the current match; moving to the
    next position drops the front symbol, which is a suffix-link ascent,
    and every automaton extension is followed by the same ascent because
    clone splits can re-home strings of length <= len(clone).
    """
    seq = [int(x) for x in seq]
    n = len(seq)
    sa = _SuffixAutomaton()
    length, link, trans = sa.length, sa.link, sa.trans
    lambdas = np.empty(n, dtype=np.int64)
    state, l = 0, 0
    for i in range(n):
        while i + l < n:
            nxt = trans[state].get(seq[i + l])
            if nxt is None:
                break
            state = nxt
            l += 1
        lambdas[i] = l + 1
        sa.extend(seq[i])
        if l > 0:
            l -= 1
        while link[state] != -1 and l <= length[link[state]]:
            state = link[state]
    return lambdas


def lz_entropy_rate(seq: Sequence[int]) -> float:
    """Bits per symbol from LZ match lengths; requires length >= 2."""
    n = len(seq)
    if n < 2:
        raise ValueError(f"need at least 2 symbols, got {n}")
    lambdas = lz_match_lengths(seq)
    return n * math.log2(n) / float(lambdas.sum())


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


# How far an entropy estimate may fall outside [0, log2 N] and still be
# clamped as estimator noise rather than rejected.
CLAMP_SLACK_BITS = 0.1


def fano_predictability(s_bits: float, n_symbols: int) -> float:
    """Upper bound on prediction accuracy for entropy rate S and alphabet N.

    Solves H_b(Pi) + (1 - Pi) * log2(N - 1) = S for the unique Pi in
    [1/N, 1]; the left side is strictly decreasing there, from log2(N)
    down to 0, so bisection converges unconditionally.  S slightly
    outside [0, log2 N] is clamped with a warning (estimator noise); more
    than CLAMP_SLACK_BITS outside is an error.
    """
    if n_symbols < 2:
        raise ValueError(f"alphabet size must be >= 2, got {n_symbols}")
    s_max = math.log2(n_symbols)
    if s_bits < 0.0:
        if s_bits < -CLAMP_SLACK_BITS:
            raise ValueError(
                f"entropy rate {s_bits} is not plausible (< -{CLAMP_SLACK_BITS})"
            )
        warnings.warn(f"clamping entropy rate {s_bits} to 0", stacklevel=2)
        s_bits = 0.0
    elif s_bits > s_max:
        if s_bits > s_max + CLAMP_SLACK_BITS:
            raise ValueError(
                f"entropy rate {s_bits} exceeds log2(N) = {s_max} by more "
                f"than {CLAMP_SLACK_BITS} bits"
            )
        warnings.warn(
            f"clamping entropy rate {s_bits} to log2(N) = {s_max}", stacklevel=2
        )
        s_bits = s_max
    log_nm1 = math.log2(n_symbols - 1)

    def residual(pi: float) -> float:
        return binary_entropy(pi) + (1.0 - pi) * log_nm1 - s_bits

    lo, hi = 1.0 / n_symbols, 1.0
    if residual(hi) >= 0.0:
        return 1.0
    if residual(lo) <= 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    return 0.5 * (lo + hi)
