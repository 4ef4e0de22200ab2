"""Dataset characterization: per-user entropy/predictability plus
dataset-level dependence structure folded into one report object.

Each statistic has one scope.  Entropy and predictability are computed
per user, with the Fano bound over that user's own distinct POIs, and
reported with their means over users.  The MI decay curve and PMI run
over the separator-joined dataset stream, so cross-user n-grams never
form.  Every MI and PMI figure comes from metrics; this module only
builds the streams.  The joined stream of the users a report kept rides
on the report (MetaAttributeReport.stream), so the match structure
reads the same users as every other statistic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .core import DataError, Dataset, concat_user_streams
from .entropy import CLAMP_SLACK_BITS, fano_predictability, lz_entropy_rate
from .jsonutil import is_number
from .metrics import EPS_FIT, MiDecay, mi_decay_curve, top_pmi

SECONDS_PER_MONTH = 2629800  # Julian year / 12
# how many highest-PMI POI pairs at d = 1 a report lists
PMI_TOP_K = 10


@dataclass(frozen=True)
class UserStats:
    user_id: str
    n_symbols: int
    n_pois: int
    entropy_bits: float
    predictability: float


@dataclass(frozen=True)
class MetaAttributeReport:
    dataset_name: str
    n_users: int
    span_months: float
    raw_fix_count: Optional[int]
    symbol_count_total: int
    symbol_count_avg: float
    n_pois: int
    pois_per_user_mean: float
    entropy_bits_mean: float
    predictability_mean: float
    per_user: tuple[UserStats, ...]
    mi_curve: tuple[tuple[int, float], ...]
    ldd_exponent_alpha: Optional[float]
    ldd_fit_rmse: Optional[float]
    ldd_depth: Optional[int]
    pmi_top: tuple[tuple[tuple[int, int, int], float], ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)
    # the separator-joined stream of the kept users, which the MI curve
    # and PMI read; in memory only, so not in to_dict
    stream: Optional[np.ndarray] = field(default=None, compare=False,
                                         repr=False)

    def to_dict(self) -> dict:
        return {
            "dataset_name": self.dataset_name,
            "n_users": self.n_users,
            "span_months": self.span_months,
            "raw_fix_count": self.raw_fix_count,
            "symbol_count": {
                "total": self.symbol_count_total,
                "avg_per_user": self.symbol_count_avg,
            },
            "n_pois": self.n_pois,
            "pois_per_user_mean": self.pois_per_user_mean,
            "entropy_bits": {
                "mean": self.entropy_bits_mean,
                "per_user": [u.entropy_bits for u in self.per_user],
            },
            "predictability": {
                "mean": self.predictability_mean,
                "per_user": [u.predictability for u in self.per_user],
            },
            "per_user": [asdict(u) for u in self.per_user],
            "mi_curve": [[d, i] for d, i in self.mi_curve],
            "ldd_exponent_alpha": self.ldd_exponent_alpha,
            "ldd_fit_rmse": self.ldd_fit_rmse,
            "ldd_depth": self.ldd_depth,
            "pmi_top": [
                {"poi_a": a, "poi_b": b, "d": d, "pmi_bits": v}
                for (a, b, d), v in self.pmi_top
            ],
            "warnings": list(self.warnings),
        }


def _number(obj: dict, *keys: str, optional: bool = False):
    """The number at obj[keys[0]][keys[1]]...; null (or, when optional,
    absent) only where optional."""
    for key in keys[:-1]:
        obj = obj[key]
    value = obj.get(keys[-1]) if optional else obj[keys[-1]]
    if is_number(value) or (optional and value is None):
        return value
    raise ValueError(f"{'.'.join(keys)} must be a number, got {value!r}")


def report_from_dict(obj: dict) -> MetaAttributeReport:
    """Inverse of MetaAttributeReport.to_dict, for CLI round trips.  The
    scalars that the selection rules compare or the stats table formats
    must be numbers."""
    try:
        per_user = tuple(
            UserStats(
                u["user_id"], u["n_symbols"], u["n_pois"],
                u["entropy_bits"], u["predictability"],
            )
            for u in obj["per_user"]
        )
        return MetaAttributeReport(
            dataset_name=obj["dataset_name"],
            n_users=obj["n_users"],
            span_months=_number(obj, "span_months"),
            raw_fix_count=obj.get("raw_fix_count"),
            symbol_count_total=obj["symbol_count"]["total"],
            symbol_count_avg=_number(obj, "symbol_count", "avg_per_user"),
            n_pois=obj["n_pois"],
            pois_per_user_mean=_number(obj, "pois_per_user_mean"),
            entropy_bits_mean=_number(obj, "entropy_bits", "mean"),
            predictability_mean=_number(obj, "predictability", "mean"),
            per_user=per_user,
            mi_curve=tuple((int(d), float(i)) for d, i in obj["mi_curve"]),
            ldd_exponent_alpha=obj.get("ldd_exponent_alpha"),
            ldd_fit_rmse=obj.get("ldd_fit_rmse"),
            ldd_depth=_number(obj, "ldd_depth", optional=True),
            pmi_top=tuple(
                ((e["poi_a"], e["poi_b"], e["d"]), e["pmi_bits"])
                for e in obj.get("pmi_top", [])
            ),
            warnings=tuple(obj.get("warnings", [])),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed characterization report: {e}") from e


def _user_stats(seq) -> UserStats:
    """Entropy and predictability of one user, with N its distinct POIs;
    DataError when the LZ estimate is too far above log2(N) to be more
    than small-sample noise (a handful of symbols alternating between two
    POIs reads ~1.19 bits)."""
    ids = seq.poi_ids
    distinct = int(np.count_nonzero(np.bincount(ids)))
    s = lz_entropy_rate(ids)
    if distinct < 2:
        pi = 1.0
    elif s > math.log2(distinct) + CLAMP_SLACK_BITS:
        raise DataError(
            f"entropy estimate {s} bits exceeds log2({distinct}) by more "
            f"than {CLAMP_SLACK_BITS} bits over {ids.shape[0]} symbols"
        )
    else:
        pi = fano_predictability(s, distinct)
    return UserStats(seq.user_id, int(ids.shape[0]), distinct, s, pi)


def characterize(ds: Dataset, d_max: int = 100) -> MetaAttributeReport:
    """Full meta-attribute report; deterministic for fixed inputs.

    Sequences too short for the entropy estimator (< 2 symbols), and
    those whose estimate exceeds log2(N) by more than CLAMP_SLACK_BITS,
    are skipped with a warning and left out of every statistic; at least
    one usable sequence is required.  MI distances are capped to enforce
    d_max < stream_length / 10, and to the largest distance at which the
    usable sequences still hold 2 pairs.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    notes: list[str] = []
    skipped = [s.user_id for s in ds.sequences if len(s) < 2]
    if skipped:
        notes.append(f"skipped short sequences: {', '.join(skipped)}")

    usable, stats = [], []
    for seq in ds.sequences:
        if len(seq) < 2:
            continue
        try:
            stats.append(_user_stats(seq))
        except DataError as e:
            notes.append(f"skipped user {seq.user_id}: {e}")
            continue
        usable.append(seq)
    if not usable:
        raise DataError(
            "no sequence has the >= 2 symbols and plausible entropy "
            "estimate needed" + "".join(f"; {n}" for n in notes)
        )

    sep = ds.alphabet.separator_id
    stream = concat_user_streams(usable, sep)
    d_cap = (stream.shape[0] - 1) // 10
    # MI at d needs 2 pairs, and a user of L symbols has max(0, L - d) of
    # them, so the two longest users bound d however long the stream is
    *_, second, first = sorted([0] + [len(s) for s in usable])
    pair_cap = max(first - 2, second - 1)
    capped = min(d_max, d_cap, pair_cap)
    decay: Optional[MiDecay] = None
    if capped >= 1:
        decay = mi_decay_curve(stream, capped, sep)
        if capped == d_cap < d_max:
            notes.append(
                f"d_max capped to {capped} (stream length {stream.shape[0]})"
            )
        elif capped < d_max:
            notes.append(
                f"d_max capped to {capped} (fewer than 2 pairs beyond it: "
                f"the longest users have {first} and {second} symbols)"
            )
    else:
        notes.append("dataset too short for any MI distance")

    curve = tuple(
        (d, max(i, 0.0)) for d, i in (decay.curve if decay else ())
    )
    if decay and decay.alpha is None:
        notes.append(f"fewer than 2 distances have I(d) above EPS_FIT "
                     f"({EPS_FIT:g} bits): ldd_exponent_alpha left undefined")

    pmi_top = []
    if stream.shape[0] >= 3:
        try:
            pmi_top = top_pmi(stream, 1, PMI_TOP_K, sep)
        except DataError as e:
            notes.append(f"pmi unavailable: {e}")

    ts = np.concatenate([s.timestamps for s in usable])
    span = float((int(ts.max()) - int(ts.min())) / SECONDS_PER_MONTH)
    n_symbols = [u.n_symbols for u in stats]
    raw_fixes = ds.provenance.get("raw_fix_count")
    return MetaAttributeReport(
        dataset_name=ds.name,
        n_users=len(stats),
        span_months=span,
        raw_fix_count=int(raw_fixes) if raw_fixes is not None else None,
        symbol_count_total=int(np.sum(n_symbols)),
        symbol_count_avg=float(np.mean(n_symbols)),
        n_pois=ds.alphabet.size,
        pois_per_user_mean=float(np.mean([u.n_pois for u in stats])),
        entropy_bits_mean=float(np.mean([u.entropy_bits for u in stats])),
        predictability_mean=float(np.mean([u.predictability for u in stats])),
        per_user=tuple(stats),
        mi_curve=curve,
        ldd_exponent_alpha=decay.alpha if decay else None,
        ldd_fit_rmse=decay.fit_rmse if decay else None,
        ldd_depth=decay.ldd_depth if decay else None,
        pmi_top=tuple(pmi_top),
        warnings=tuple(notes),
        stream=stream,
    )


def per_user_attribute_matrix(
    report: MetaAttributeReport,
) -> tuple[list[str], np.ndarray]:
    """Attribute rows (n_symbols, n_pois, entropy, predictability) x users."""
    names = ["n_symbols", "n_pois", "entropy_bits", "predictability"]
    m = np.asarray(
        [
            [float(u.n_symbols) for u in report.per_user],
            [float(u.n_pois) for u in report.per_user],
            [u.entropy_bits for u in report.per_user],
            [u.predictability for u in report.per_user],
        ]
    )
    return names, m
