"""Dependence metrics over symbol streams: mutual information at a
distance, its decay curve over one stream with a power-law fit,
pointwise MI and its top pairs, repeat (match) structure, and per-user
attribute correlations.  A dataset's users are joined into that one
stream by core.SEPARATOR.  Every negative symbol ends a user: no pair
whose window [i, i+d] holds one is counted, nor any gram that contains
one.

All estimates are plug-in (empirical counts, no bias correction).  MI,
PMI and top-PMI read one pair-count table, `_pair_counts`: its occupied
cells in arrays with one entry per cell, and per-symbol marginals.  When
the alphabet is narrow enough that a square table holds no more entries
than there are pairs, the table is dense: one build covers a block of
one or more distances, one bincount of (distance, x, y) codes, whose
right-hand symbols are rows of a sliding window over the padded stream.
A decay curve builds blocks of up to _BLOCK_PAIRS pairs.  Otherwise
each distance is one build, the runs of a sorted array of its (x, y)
codes.  A decay curve finds the separator positions once for all its
distances, and skips the separator mask when the stream holds none.

MI is taken in count form, I(d)·N = Σ_cells f(c_xy) − Σ_x f(c_x) −
Σ_y f(c_y) + f(N) with f(c) = c·log2(c), tabled once per stream for
every count up to the largest.  math.fsum adds the f terms of every
cell and marginal of a distance, so I(d)·N is their exactly rounded sum,
whatever their order or grouping.  A wide table of one distance has more
cells and marginals than count values, so there each count value enters
once, weighted by how often it occurs as a cell count less as a
marginal, in parts short enough that every weighted part is an exact
product: the same exactly rounded sum.
Match structure is array code too: exact gram ranks by prefix doubling,
one stable argsort per match length.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DataError


def _log2(values: np.ndarray) -> np.ndarray:
    """math.log2 element by element.

    Not np.log2: its vectorized kernels may differ from the correctly
    rounded libm result in the last bit (numpy 2.4 does on a few hundred
    of 2M random inputs), which would change reported figures between numpy
    builds and break the exact agreement with the oracles.
    """
    return np.fromiter(map(math.log2, values.tolist()), np.float64)


def _separator_hits(stream: np.ndarray) -> Optional[np.ndarray]:
    """Prefix counts of the separators, the negative symbols (hits[j] =
    separators in stream[:j]), or None when the stream holds none, so that
    no pair needs masking."""
    at = stream < 0
    if not at.any():
        return None
    return np.concatenate(([0], np.cumsum(at, dtype=np.int64)))


# The most pairs one `_pair_counts` build of a decay curve holds: a curve
# over n symbols builds the dense tables of max(1, _BLOCK_PAIRS // n)
# distances at once, so a block's code array stays at 256 kB or below.
_BLOCK_PAIRS = 1 << 15


class _PairTable(NamedTuple):
    """The count tables of (s_i, s_{i+d}) pairs over a range of distances.

    The occupied cells come in ascending (distance, x, y) order: at[j]
    is the index in the range of cell j's distance, and c_xy[j] its
    joint count.  c_x[k, s] pairs at the k-th distance start at symbol
    s, c_y[k, s] end at it, 0 for a symbol no pair does.  n_pairs counts
    the pairs at every distance of the range.
    """

    x: np.ndarray
    y: np.ndarray
    c_xy: np.ndarray
    n_pairs: int
    c_x: np.ndarray
    c_y: np.ndarray
    at: np.ndarray


def _pair_counts(
    stream: np.ndarray, ds: range, hits: Optional[np.ndarray]
) -> _PairTable:
    """The count tables of the (s_i, s_{i+d}) pairs of every distance d in
    ds, a nonempty range of consecutive distances >= 1.

    stream is an int64 array of symbols and hits its `_separator_hits`,
    which may be None only when no symbol is negative.  Marginals are
    taken from the paired positions only, so the three entropy forms of
    the MI identity share one empirical table.  A pair is dropped when a
    separator appears anywhere in its window [i, i+d], not just at the
    endpoints, so no pair straddles a user boundary.  Raises DataError
    naming the first distance with fewer than 2 pairs.

    With span = largest symbol + 1, a table is dense when its span x span
    square holds no more entries than there are pairs (before separators
    drop any), and sorted otherwise.  Dense tables, of one distance or
    several, are one build: a bincount of (distance, x, y) codes over
    the whole block (`_dense_block`), linear in the pairs, with one set
    of array calls for the block.  A range of several distances must
    have dense tables.  A sorted table is of one distance (`_sorted_one`):
    the runs of its sorted codes, so that the cost is a sort of the pairs
    and does not grow with the square of the largest symbol.
    """
    if ds.step != 1 or not ds or ds.start < 1:
        raise ValueError(f"distances must be consecutive and >= 1, got {ds}")
    n, last = stream.shape[0], ds[-1]
    if n <= ds.start:
        raise DataError(
            f"sequence of length {n} has no pairs at distance {ds.start}"
        )
    span = max(int(stream.max()), 0) + 1
    # pairs per distance before any separator drops one: n - mean(ds)
    if span * span <= n - (ds.start + last) / 2:
        return _dense_block(stream, ds, hits, span)
    if len(ds) > 1:
        raise ValueError(f"distances {ds} have sorted tables: build each "
                         "on its own")
    return _sorted_one(stream, ds.start, hits, span)


def _dense_block(
    stream: np.ndarray, ds: range, hits: Optional[np.ndarray], span: int
) -> _PairTable:
    """`_pair_counts` as one bincount over the joint codes of the block.

    Row k of a sliding window over the stream, padded by the largest
    distance with the symbol span, holds the right-hand symbols of the
    k-th distance.  A pair that runs into the padding, which only a
    stream without separators keeps, gets y = span, a column the table
    drops.  The marginals are the table's row and column sums.
    """
    n, last, size = stream.shape[0], ds[-1], len(ds)
    width = span + 1
    padded = np.concatenate((stream, np.full(last, span, dtype=np.int64)))
    offsets = np.arange(size, dtype=np.int64) * (span * width)
    codes = stream * width + offsets[:, None]
    codes += sliding_window_view(padded, n)[ds.start :]  # one array less
    if hits is None:
        if n - last < 2:  # n - 1 is the first distance with one pair
            raise DataError(f"fewer than 2 pairs at distance {n - 1}")
    else:
        # a window that runs past the end counts as holding a separator
        ends = np.concatenate((hits[1:], hits[-1] + np.arange(1, last + 1)))
        keep = sliding_window_view(ends, n)[ds.start :] == hits[:-1]
        short = np.flatnonzero(keep.sum(axis=1) < 2)
        if short.shape[0]:
            raise DataError(f"fewer than 2 pairs at distance {ds[short[0]]}")
        codes = codes[keep]
    cube = np.bincount(codes.ravel(), minlength=size * span * width)
    cube = cube.reshape(size, span, width)[:, :, :span]
    flat = cube.ravel()
    cells = np.flatnonzero(flat)  # ascending codes: (k, x, y) order
    at, xy = np.divmod(cells, span * span)
    x, y = np.divmod(xy, span)
    c_x = cube.sum(axis=2)
    return _PairTable(x, y, flat[cells], int(c_x.sum()), c_x,
                      cube.sum(axis=1), at)


def _sorted_one(
    stream: np.ndarray, d: int, hits: Optional[np.ndarray], span: int
) -> _PairTable:
    """`_pair_counts` of the one distance d, from the runs of its sorted
    (x, y) codes."""
    left, right = stream[:-d], stream[d:]
    if hits is not None:
        keep = (hits[d + 1 :] - hits[: -d - 1]) == 0
        left, right = left[keep], right[keep]
    n_pairs = int(left.shape[0])
    if n_pairs < 2:
        raise DataError(f"fewer than 2 pairs at distance {d}")
    codes = left * span + right
    codes.sort()
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    c_xy = np.diff(np.concatenate(([0], starts, [n_pairs])))
    x, y = np.divmod(codes[np.concatenate(([0], starts))], span)
    return _PairTable(x, y, c_xy, n_pairs,
                      np.bincount(left, minlength=span)[None, :],
                      np.bincount(right, minlength=span)[None, :],
                      np.zeros_like(x))


class _CountLogs:
    """f(c) = c*log2(c) for c = 0 up to the largest count of one symbol in
    a stream, which bounds every cell and marginal count of its pair
    tables at every distance.

    f is computed as the oracles compute it, the float product of c and
    math.log2(c) (through `_log2`), with f(0) = f(1) = 0.
    """

    def __init__(self, stream: np.ndarray):
        top = int(np.bincount(stream[stream >= 0]).max(initial=0))
        c = np.arange(top + 1, dtype=np.int64)
        self.f = np.zeros(top + 1)
        self.f[2:] = c[2:] * _log2(c[2:])

    @functools.cached_property
    def parts(self) -> np.ndarray:
        """f as a (len(f), 3) array of `_split` parts: row c sums to f(c)
        exactly."""
        return _split(self.f)


# Each f(c) = c*log2(c) is split into parts of at most 18 significant bits
# (18, 18 and 17 of its 53), so a part times any integer h with |h| <
# 2**35 is exact in float64.  The h of a count c >= 2 counts cells and
# marginals of c pairs each, so |h| <= 2N/c <= N, the number of pairs; f(0)
# and f(1) are 0, so their h may be any size.
_PART_SHIFTS = (35, 17, 0)
_PART_MASKS = ((1 << 18) - 1, (1 << 18) - 1, (1 << 17) - 1)


def _split(f: np.ndarray) -> np.ndarray:
    """Each finite f >= 0 as a row of three parts of at most 18 significant
    bits each, which sum to it exactly."""
    fraction, exponent = np.frexp(f)
    mantissa = np.ldexp(fraction, 53).astype(np.int64)  # f = m * 2**(e-53)
    return np.stack([
        np.ldexp((mantissa >> shift) & mask, exponent - 53 + shift)
        for shift, mask in zip(_PART_SHIFTS, _PART_MASKS)
    ], axis=1)


def _weighted_terms(h: np.ndarray, parts: np.ndarray) -> list[float]:
    """The exact products h[c] * each part of row c, over every c with
    h[c] != 0: math.fsum of them is the exactly rounded sum of h[c] times
    the value row c splits.  h is an int64 array as long as parts, each
    |h[c]| < 2**35."""
    c = h.nonzero()[0]
    return (parts[c] * h[c, None]).ravel().tolist()


def _mi_bits(table: _PairTable, logs: _CountLogs) -> list[float]:
    """I(d) in bits for each distance of a `_pair_counts` table.

    I(d)·N is the exactly rounded sum of that distance's f terms, +f per
    cell, -f per left and per right marginal and +f(N), whatever their
    order or grouping.  math.fsum adds the terms themselves, leaving out
    the cells of one pair (f(1) = 0), unless the table is of one distance
    and has more terms than there are count values: then each count value
    c enters once, weighted by its signed multiplicity h[c], the cells
    holding c pairs less the marginals equal to c.
    """
    rows, cells = table.c_x.shape[0], table.c_xy.shape[0]
    size = logs.f.shape[0]
    if rows == 1 and cells + table.c_x.size * 2 > size:
        h = (np.bincount(table.c_xy, minlength=size)
             - np.bincount(np.concatenate((table.c_x[0], table.c_y[0])),
                           minlength=size))
        by_term, pairs = [_weighted_terms(h, logs.parts)], [table.n_pairs]
    else:
        pairs = table.c_x.sum(axis=1).tolist()
        f = logs.f[np.concatenate((table.c_xy, table.c_x, table.c_y),
                                  axis=None)]
        many = f[:cells] != 0
        cell_terms = f[:cells][many].tolist()
        ends = np.searchsorted(table.at[many], np.arange(rows + 1)).tolist()
        lefts, rights = np.negative(f[cells:]).reshape(2, rows, -1).tolist()
        by_term = [cell_terms[ends[k] : ends[k + 1]] + lefts[k] + rights[k]
                   for k in range(rows)]
    bits = []
    for terms, n in zip(by_term, pairs):
        terms.append(n * math.log2(n))
        bits.append(math.fsum(terms) / n)
    return bits


def _table_at(seq: Sequence[int], d: int) -> _PairTable:
    """The `_pair_counts` table of the one distance d."""
    if d < 1:
        raise ValueError(f"distance must be >= 1, got {d}")
    stream = np.asarray(seq, dtype=np.int64)
    return _pair_counts(stream, range(d, d + 1), _separator_hits(stream))


def mutual_information_at_distance(seq: Sequence[int], d: int) -> float:
    """Plug-in I(s_i; s_{i+d}) in bits over all position pairs at lag d."""
    stream = np.asarray(seq, dtype=np.int64)
    return _mi_bits(_table_at(stream, d), _CountLogs(stream))[0]


def pmi_from_counts(n_pairs: int, c_a: int, c_b: int, c_ab: int) -> float:
    """log2(N * C(a,b) / (C(a) * C(b))); -inf when the pair never occurs."""
    if c_a <= 0 or c_b <= 0:
        raise DataError("PMI undefined: a or b never occurs at paired positions")
    if c_ab == 0:
        return float("-inf")
    return math.log2((n_pairs * c_ab) / (c_a * c_b))


def pmi(seq: Sequence[int], a: int, b: int, d: int) -> float:
    """Pointwise MI of seeing poi b exactly d steps after poi a.

    Returns -inf ("never co-occurs") when the pair count is zero; raises
    when a or b itself never occurs at the paired positions.
    """
    x, y, c_xy, n, (c_x,), (c_y,), _ = _table_at(seq, d)
    c_a = int(c_x[a]) if 0 <= a < c_x.shape[0] else 0
    c_b = int(c_y[b]) if 0 <= b < c_y.shape[0] else 0
    if c_a == 0 or c_b == 0:
        raise DataError(
            f"poi {a if c_a == 0 else b} never occurs at the paired positions"
        )
    return pmi_from_counts(n, c_a, c_b, int(c_xy[(x == a) & (y == b)].sum()))


def top_pmi(
    seq: Sequence[int], d: int, top_k: int
) -> list[tuple[tuple[int, int, int], float]]:
    """The top_k occurring pairs by PMI at distance d, ties by (a, b).

    Entries are ((a, b, d), pmi_bits), all finite.  The count products
    are exact in float64 below 2**53, so each score equals
    pmi_from_counts on the same counts for any stream under ~9e7 pairs.
    """
    x, y, c_xy, n, (c_x,), (c_y,), _ = _table_at(seq, d)
    scores = _log2((n * c_xy) / (c_x[x] * c_y[y]))
    order = np.lexsort((y, x, -scores))[:top_k]
    return [
        ((a, b, d), s)
        for a, b, s in zip(x[order].tolist(), y[order].tolist(),
                           scores[order].tolist())
    ]


def fit_power_law(
    distances: Sequence[int], values: Sequence[float]
) -> tuple[float, float]:
    """Least-squares slope of log(I) on log(d); returns (alpha, rmse).

    alpha is the decay exponent (negated slope).  Caller filters the
    points; at least two are required.
    """
    ds = np.asarray(distances, dtype=np.float64)
    vs = np.asarray(values, dtype=np.float64)
    if ds.shape[0] < 2:
        raise ValueError("power-law fit needs at least 2 points")
    if np.any(vs <= 0.0) or np.any(ds <= 0.0):
        raise ValueError("power-law fit needs positive distances and values")
    x = np.log(ds)
    y = np.log(vs)
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    rmse = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(-coeffs[0]), rmse


# Bits an I(d) must exceed to enter the power-law fit, and must reach to
# count toward the LDD depth; fixed, so that a report's alpha and depth
# mean the same in every report.
EPS_FIT = 1e-3
EPS_DEPTH = 0.1


@dataclass(frozen=True)
class MiDecay:
    """I(d) for d = 1..d_max plus the fitted exponent and LDD depth.

    alpha is None when fewer than 2 points clear EPS_FIT, too few to fit;
    ldd_depth is None when no point clears EPS_DEPTH.
    """

    curve: tuple[tuple[int, float], ...]
    alpha: Optional[float]
    fit_rmse: Optional[float]
    ldd_depth: Optional[int]


def mi_decay_curve(seq: Sequence[int], d_max: int) -> MiDecay:
    """I(d) for d = 1..d_max with a power-law fit over the points above
    EPS_FIT; the LDD depth is the largest distance whose I(d) reaches
    EPS_DEPTH."""
    stream = np.asarray(seq, dtype=np.int64)
    n = stream.shape[0]
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    if d_max * 10 >= n:
        raise ValueError(
            f"d_max {d_max} too large for length {n}: need d_max < n/10 "
            "for enough pairs per distance"
        )
    hits, logs = _separator_hits(stream), _CountLogs(stream)
    # blocks of distances only where every distance's table is dense
    span = max(int(stream.max()), 0) + 1
    step = max(1, _BLOCK_PAIRS // n) if span * span <= n - d_max else 1
    curve: list[tuple[int, float]] = []
    for start in range(1, d_max + 1, step):
        ds = range(start, min(start + step, d_max + 1))
        curve += zip(ds, _mi_bits(_pair_counts(stream, ds, hits), logs))
    fit_pts = [(d, i) for d, i in curve if i > EPS_FIT]
    alpha = rmse = None
    if len(fit_pts) >= 2:
        alpha, rmse = fit_power_law([d for d, _ in fit_pts],
                                    [i for _, i in fit_pts])
    depths = [d for d, i in curve if i >= EPS_DEPTH]
    return MiDecay(
        curve=tuple(curve),
        alpha=alpha,
        fit_rmse=rmse,
        ldd_depth=max(depths) if depths else None,
    )


# the gram lengths match_structure reports, each twice the one before
MATCH_LENGTHS = (1, 2, 4, 8)


def match_structure(seq: Sequence[int]) -> np.ndarray:
    """(position, L, delta) rows for every position whose length-L gram
    repeats, L in MATCH_LENGTHS.

    delta is the smallest positive back-shift with seq[i:i+L] ==
    seq[i-delta:i-delta+L]; overlapping matches count.  Positions with no
    earlier occurrence are omitted.  Grams containing a separator (a
    negative symbol) are skipped on both sides.  Returns an (m, 3) int64
    array in ascending (position, L) order.

    Grams are compared by exact ranks built by prefix doubling: the
    L-gram at i is the pair of L/2-grams at i and i+L/2.  One stable
    argsort of that pair's key ranks the L-grams and puts each occurrence
    right after the previous one.
    """
    stream = np.asarray(seq, dtype=np.int64)
    n = stream.shape[0]
    lengths = [L for L in MATCH_LENGTHS if L <= n]
    if not lengths:
        return np.empty((0, 3), dtype=np.int64)
    at = stream < 0
    if at.any():
        # each separator becomes a symbol of its own, so no gram holding
        # one repeats or is repeated
        stream = np.where(at, stream.max() + np.cumsum(at), stream)
    # deltas[i, j]: delta of the lengths[j]-gram at i, 0 when it is new
    deltas = np.zeros((n, len(lengths)), dtype=np.int64)
    key = stream
    for j, length in enumerate(lengths):
        if j:
            # rank (< n) holds the ranks of the L/2-grams
            key = rank[: n - length + 1] * n + rank[length // 2 :]
        order = np.argsort(key, kind="stable")
        keys = key[order]
        if j + 1 < len(lengths):
            rank = np.searchsorted(keys, key)
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        pos = order[repeat + 1]
        deltas[pos, j] = pos - order[repeat]
    # row-major order is ascending (position, L)
    flat = np.flatnonzero(deltas)
    out = np.empty((flat.shape[0], 3), dtype=np.int64)
    out[:, 2] = deltas.ravel()[flat]
    np.divmod(flat, len(lengths), out=(out[:, 0], out[:, 1]))
    out[:, 1] = np.asarray(lengths, dtype=np.int64)[out[:, 1]]
    return out


def attribute_correlations(
    names: Sequence[str], vectors: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Pearson correlation matrix across per-user attribute vectors.

    vectors has one row per attribute, one column per user.  Attributes
    with zero variance are dropped with a warning; fewer than 3 users is
    an error.  The result is symmetric with unit diagonal, clipped to
    [-1, 1] against float overshoot.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] != len(names):
        raise ValueError("vectors must be (n_attributes, n_users)")
    if vectors.shape[1] < 3:
        raise DataError(
            f"correlations need >= 3 users, got {vectors.shape[1]}"
        )
    keep = []
    for i, name in enumerate(names):
        if np.ptp(vectors[i]) == 0.0:
            warnings.warn(f"attribute {name!r} has no variance; dropped",
                          stacklevel=2)
        else:
            keep.append(i)
    if not keep:
        raise DataError("no attribute has variance")
    kept_names = [names[i] for i in keep]
    corr = np.atleast_2d(np.corrcoef(vectors[keep]))
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return kept_names, corr
