"""Dependence metrics over symbol streams: mutual information at a
distance, its decay curve over one stream with a power-law fit,
pointwise MI and its top pairs, repeat (match) structure, and per-user
attribute correlations.  A dataset's users are joined into that one
stream with separators, and no pair or gram spans a separator.

All estimates are plug-in (empirical counts, no bias correction).  MI,
PMI and top-PMI read one pair-count table, `_pair_counts`, held in
arrays with one entry per occupied cell.  Per distance it is a dense
bincount of the joint codes when the alphabet is narrow enough that the
square table holds no more entries than there are pairs, and the runs of
one sorted array of those codes otherwise.  A decay curve finds the
separator positions once for all its distances, and skips the separator
mask when the stream holds none.  The per-cell MI terms are summed with
math.fsum, so results are exactly reproducible regardless of summation
order.  Match structure is array code too: exact gram ranks by prefix
doubling, one stable argsort per match length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DataError


def _log2(values: np.ndarray) -> np.ndarray:
    """math.log2 element by element.

    Not np.log2: its vectorized kernels may differ from the correctly
    rounded libm result in the last bit (numpy 2.4 does on a few hundred
    of 2M random inputs), which would change reported figures between numpy
    builds and break the exact agreement with the oracles.
    """
    return np.fromiter(map(math.log2, values.tolist()), np.float64)


def _separator_hits(
    stream: np.ndarray, separator_id: Optional[int]
) -> Optional[np.ndarray]:
    """Prefix counts of the separator (hits[j] = separators in stream[:j]),
    or None when the stream holds no separator, so that no pair needs
    masking."""
    if separator_id is None:
        return None
    at = stream == separator_id
    if not at.any():
        return None
    return np.concatenate(([0], np.cumsum(at, dtype=np.int64)))


def _pair_counts(
    stream: np.ndarray, d: int, hits: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """The count table of (s_i, s_{i+d}) pairs, one entry per occupied cell.

    stream is an int64 array of non-negative symbols and hits its
    `_separator_hits`.  Returns (x, y, c_xy, n_pairs, c_x, c_y): the cells
    in ascending (x, y) order, their joint counts, the number of pairs,
    and each cell's left (x) and right (y) marginal count.  Marginals are
    taken from the paired positions only, so the three entropy forms of
    the MI identity share one empirical table.  A pair is dropped when the
    separator appears anywhere in its window [i, i+d], not just at the
    endpoints, so no pair straddles a stream boundary.

    With span = largest paired symbol + 1, the cells come from a dense
    span x span bincount of the joint codes, and the marginals from its
    row and column sums, when that table has no more entries than there
    are pairs: linear in the pairs.  Otherwise they are the runs of the
    sorted codes with bincount marginals, so the cost is a sort of the
    pairs and grows with the largest symbol as well.
    """
    if d < 1:
        raise ValueError(f"distance must be >= 1, got {d}")
    if stream.shape[0] <= d:
        raise DataError(
            f"sequence of length {stream.shape[0]} has no pairs at distance {d}"
        )
    left, right = stream[:-d], stream[d:]
    if hits is not None:
        keep = (hits[d + 1 :] - hits[: -d - 1]) == 0
        left, right = left[keep], right[keep]
    n_pairs = int(left.shape[0])
    if n_pairs < 2:
        raise DataError(f"fewer than 2 pairs at distance {d}")
    span = int(max(left.max(), right.max())) + 1
    if span * span <= n_pairs:
        table = np.bincount(left * span + right, minlength=span * span)
        cells = np.flatnonzero(table)  # ascending codes: (x, y) order
        x, y = np.divmod(cells, span)
        square = table.reshape(span, span)
        return (x, y, table[cells], n_pairs,
                square.sum(axis=1)[x], square.sum(axis=0)[y])
    codes = np.sort(left * span + right)
    starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    c_xy = np.diff(np.concatenate(([0], starts, [n_pairs])))
    x, y = np.divmod(codes[np.concatenate(([0], starts))], span)
    c_x, c_y = np.bincount(left)[x], np.bincount(right)[y]
    return x, y, c_xy, n_pairs, c_x, c_y


def _mi_bits(stream: np.ndarray, d: int, hits: Optional[np.ndarray]) -> float:
    """mutual_information_at_distance on an int64 stream and its hits."""
    _, _, c_xy, n, c_x, c_y = _pair_counts(stream, d, hits)
    p_xy = c_xy / n
    return math.fsum((p_xy * _log2(p_xy / ((c_x / n) * (c_y / n)))).tolist())


def mutual_information_at_distance(
    seq: Sequence[int], d: int, separator_id: Optional[int] = None
) -> float:
    """Plug-in I(s_i; s_{i+d}) in bits over all position pairs at lag d."""
    stream = np.asarray(seq, dtype=np.int64)
    return _mi_bits(stream, d, _separator_hits(stream, separator_id))


def pmi_from_counts(n_pairs: int, c_a: int, c_b: int, c_ab: int) -> float:
    """log2(N * C(a,b) / (C(a) * C(b))); -inf when the pair never occurs."""
    if c_a <= 0 or c_b <= 0:
        raise DataError("PMI undefined: a or b never occurs at paired positions")
    if c_ab == 0:
        return float("-inf")
    return math.log2((n_pairs * c_ab) / (c_a * c_b))


def pmi(
    seq: Sequence[int],
    a: int,
    b: int,
    d: int,
    separator_id: Optional[int] = None,
) -> float:
    """Pointwise MI of seeing poi b exactly d steps after poi a.

    Returns -inf ("never co-occurs") when the pair count is zero; raises
    when a or b itself never occurs at the paired positions.
    """
    stream = np.asarray(seq, dtype=np.int64)
    x, y, c_xy, n, _, _ = _pair_counts(
        stream, d, _separator_hits(stream, separator_id)
    )
    c_a = int(c_xy[x == a].sum())
    c_b = int(c_xy[y == b].sum())
    if c_a == 0 or c_b == 0:
        raise DataError(
            f"poi {a if c_a == 0 else b} never occurs at the paired positions"
        )
    return pmi_from_counts(n, c_a, c_b, int(c_xy[(x == a) & (y == b)].sum()))


def top_pmi(
    seq: Sequence[int],
    d: int,
    top_k: int,
    separator_id: Optional[int] = None,
) -> list[tuple[tuple[int, int, int], float]]:
    """The top_k occurring pairs by PMI at distance d, ties by (a, b).

    Entries are ((a, b, d), pmi_bits), all finite.  The count products
    are exact in float64 below 2**53, so each score equals
    pmi_from_counts on the same counts for any stream under ~9e7 pairs.
    """
    stream = np.asarray(seq, dtype=np.int64)
    x, y, c_xy, n, c_x, c_y = _pair_counts(
        stream, d, _separator_hits(stream, separator_id)
    )
    scores = _log2((n * c_xy) / (c_x * c_y))
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


def mi_decay_curve(
    seq: Sequence[int],
    d_max: int,
    separator_id: Optional[int] = None,
) -> MiDecay:
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
    hits = _separator_hits(stream, separator_id)
    curve = [(d, _mi_bits(stream, d, hits)) for d in range(1, d_max + 1)]
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


def match_structure(
    seq: Sequence[int], separator_id: Optional[int] = None
) -> np.ndarray:
    """(position, L, delta) rows for every position whose length-L gram
    repeats, L in MATCH_LENGTHS.

    delta is the smallest positive back-shift with seq[i:i+L] ==
    seq[i-delta:i-delta+L]; overlapping matches count.  Positions with no
    earlier occurrence are omitted.  Grams containing the separator are
    skipped on both sides.  Returns an (m, 3) int64 array in ascending
    (position, L) order.

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
    if separator_id is not None:
        # each separator becomes a symbol of its own, so no gram holding
        # one repeats or is repeated
        at = stream == separator_id
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
