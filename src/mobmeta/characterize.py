"""Dataset characterization: per-user entropy/predictability plus
dataset-level dependence structure folded into one report object.

This module alone knows report.json's layout (_SCALARS, _USER_KEYS and
_PMI_KEYS): to_dict writes it, and report_from_dict, behind read_report
for every command that reads the file, checks every value it carries.

Each statistic has one scope.  Entropy and predictability are computed
per user, with the Fano bound over that user's own distinct POIs, and
reported with their means over users.  The MI decay curve and PMI run
over the dataset stream, the users joined by core.SEPARATOR (-1), so
cross-user n-grams never form.  Every MI and PMI figure comes from
metrics; this module only builds the streams.  The joined stream of the
users a report kept rides on the report (MetaAttributeReport.stream),
so the match structure reads the same users as every other statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import getitem
from typing import Optional

import numpy as np

from .core import DataError, Dataset, concat_user_streams
from .entropy import CLAMP_SLACK_BITS, fano_predictability, lz_entropy_rate
from .jsonutil import curve, is_number, read_json
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
    # the kept users joined by core.SEPARATOR, the stream the MI curve
    # and PMI read; in memory only, so not in to_dict
    stream: Optional[np.ndarray] = field(default=None, compare=False,
                                         repr=False)

    def to_dict(self) -> dict:
        out: dict = {}
        for name, path, _, _ in _SCALARS:
            *parents, key = path.split(".")
            reduce(lambda node, k: node.setdefault(k, {}), parents,
                   out)[key] = getattr(self, name)
        for stat in ("entropy_bits", "predictability"):
            out[stat]["per_user"] = [getattr(u, stat) for u in self.per_user]
        out["per_user"] = [{k: getattr(u, k) for k in _USER_KEYS}
                           for u in self.per_user]
        out["mi_curve"] = [[d, i] for d, i in self.mi_curve]
        out["pmi_top"] = [dict(zip(_PMI_KEYS, (*pair, v)))
                          for pair, v in self.pmi_top]
        out["warnings"] = list(self.warnings)
        return out


# report.json's layout, which to_dict and report_from_dict both read:
# each scalar field of MetaAttributeReport with its dotted JSON path, kind
# and whether it may be null (or absent), and the keys and kinds of a
# per_user and a pmi_top entry in the order of the tuples they become.
_SCALARS = (
    ("dataset_name", "dataset_name", "a string", False),
    ("n_users", "n_users", "an integer", False),
    ("span_months", "span_months", "a number", False),
    ("raw_fix_count", "raw_fix_count", "an integer", True),
    ("symbol_count_total", "symbol_count.total", "an integer", False),
    ("symbol_count_avg", "symbol_count.avg_per_user", "a number", False),
    ("n_pois", "n_pois", "an integer", False),
    ("pois_per_user_mean", "pois_per_user_mean", "a number", False),
    ("entropy_bits_mean", "entropy_bits.mean", "a number", False),
    ("predictability_mean", "predictability.mean", "a number", False),
    ("ldd_exponent_alpha", "ldd_exponent_alpha", "a number", True),
    ("ldd_fit_rmse", "ldd_fit_rmse", "a number", True),
    ("ldd_depth", "ldd_depth", "a number", True),
)
_USER_KEYS = {"user_id": "a string", "n_symbols": "an integer",
              "n_pois": "an integer", "entropy_bits": "a number",
              "predictability": "a number"}
_PMI_KEYS = {"poi_a": "an integer", "poi_b": "an integer",
             "d": "an integer", "pmi_bits": "a number"}
_KINDS = {"a string": lambda v: isinstance(v, str),
          "an integer": lambda v: is_number(v) and isinstance(v, int),
          "a number": is_number, "a list": lambda v: isinstance(v, list)}


def _checked(value, name: str, kind: str, nullable: bool = False):
    if (nullable and value is None) or _KINDS[kind](value):
        return value
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _entries(entries, key: str, kind) -> list:
    """The list at `key`: its entries of `kind`, or objects read as tuples
    when `kind` maps keys to kinds."""
    _checked(entries, key, "a list")
    if isinstance(kind, str):
        return [_checked(e, f"{key} entry {i}", kind)
                for i, e in enumerate(entries)]
    return [tuple(_checked(e[k], f"{key} entry {i} {k}", kind[k])
                  for k in kind) for i, e in enumerate(entries)]


def report_from_dict(obj: dict) -> MetaAttributeReport:
    """Inverse of MetaAttributeReport.to_dict: every value the record
    carries is checked for its kind, and mi_curve is a curve of [d, I]."""
    try:
        per_user = _entries(obj["per_user"], "per_user", _USER_KEYS)
        scalars = {}
        for name, path, kind, nullable in _SCALARS:
            *parents, key = path.split(".")
            scalars[name] = _checked(reduce(getitem, parents, obj).get(key),
                                     path, kind, nullable)
        return MetaAttributeReport(
            per_user=tuple(UserStats(*u) for u in per_user),
            mi_curve=tuple((d, float(i)) for d, i
                           in curve(obj["mi_curve"], "mi_curve", "d", "I")),
            pmi_top=tuple(((a, b, d), v) for a, b, d, v in _entries(
                obj.get("pmi_top", []), "pmi_top", _PMI_KEYS)),
            warnings=tuple(_entries(obj.get("warnings", []), "warnings",
                                    "a string")),
            **scalars,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed characterization report: {e}") from e


def read_report(path) -> MetaAttributeReport:
    """The report.json at path, read by report_from_dict, naming it."""
    try:
        return report_from_dict(read_json(path))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _user_stats(seq) -> UserStats:
    """Entropy and predictability of one user of >= 2 symbols, with N its
    distinct POIs (>= 2, as PoiSequence forbids a repeat); DataError when
    the LZ estimate is too far above log2(N) to be more than small-sample
    noise (a handful of symbols alternating between two POIs reads ~1.19
    bits)."""
    ids = seq.poi_ids
    distinct = int(np.count_nonzero(np.bincount(ids)))
    s = lz_entropy_rate(ids)
    if s > math.log2(distinct) + CLAMP_SLACK_BITS:
        raise DataError(
            f"entropy estimate {s} bits exceeds log2({distinct}) by more "
            f"than {CLAMP_SLACK_BITS} bits over {ids.shape[0]} symbols"
        )
    return UserStats(seq.user_id, int(ids.shape[0]), distinct, s,
                     fano_predictability(s, distinct))


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

    stream = concat_user_streams(usable)
    d_cap = (stream.shape[0] - 1) // 10
    # MI at d needs 2 pairs, and a user of L symbols has max(0, L - d) of
    # them, so the two longest users bound d however long the stream is
    *_, second, first = sorted([0] + [len(s) for s in usable])
    pair_cap = max(first - 2, second - 1)
    capped = min(d_max, d_cap, pair_cap)
    decay: Optional[MiDecay] = None
    if capped >= 1:
        decay = mi_decay_curve(stream, capped)
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

    # 3 symbols hold 2 pairs at d = 1: one user has >= 3, or two have >= 2
    pmi_top = top_pmi(stream, 1, PMI_TOP_K) if stream.shape[0] >= 3 else []

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
    return names, np.asarray([[float(getattr(u, name)) for u in report.per_user]
                              for name in names])
