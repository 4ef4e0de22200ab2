"""Threshold rules mapping a characterization report to a model class.

DEFAULT_RULES is the one rule table: R1-R3 evaluated first-match, closed
by a condition-free default so every report gets a verdict.  The rule
quantity "mi" is the maximum of the MI decay curve over distances d >= 2
(beyond-bigram dependence); the trace records which distance attained
it, plus every rule's boolean outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import DataError
from .characterize import MetaAttributeReport
from .jsonutil import record_dict

VERDICTS = ("markov_class", "rnn_lstm_class", "hm_rnn_class")

# condition key -> (derived attribute, comparison)
_CONDITIONS = {
    "pois_per_user_lt": ("pois_per_user", lambda v, t: v < t),
    "pois_per_user_ge": ("pois_per_user", lambda v, t: v >= t),
    "mi_lt": ("mi", lambda v, t: v < t),
    "mi_ge": ("mi", lambda v, t: v >= t),
    "ldd_depth_gt": ("ldd_depth", lambda v, t: v > t),
}


@dataclass(frozen=True)
class SelectionRule:
    name: str
    when: tuple[tuple[str, float], ...]  # empty = always fires
    verdict: str
    rationale: str


DEFAULT_RULES = (
    SelectionRule(
        "R1",
        (("pois_per_user_lt", 100.0), ("mi_lt", 2.0)),
        "markov_class",
        "small per-user POI space with weak long-range dependence",
    ),
    SelectionRule(
        "R2",
        (("pois_per_user_lt", 100.0), ("mi_ge", 2.0)),
        "rnn_lstm_class",
        "small per-user POI space but strong dependence beyond bigrams",
    ),
    SelectionRule(
        "R3",
        (("pois_per_user_ge", 100.0), ("ldd_depth_gt", 3.0)),
        "hm_rnn_class",
        "large per-user POI space with dependency depth beyond 3",
    ),
    SelectionRule(
        "default",
        (),
        "rnn_lstm_class",
        "intermediate regime, thresholds underdetermined",
    ),
)


@dataclass(frozen=True)
class Recommendation:
    verdict: str
    fired_rule: str
    rationale: str
    derived: dict
    trace: tuple[dict, ...]

    def to_dict(self) -> dict:
        """The recommendation.json object: every field."""
        return record_dict(self)


def derive_attributes(report: MetaAttributeReport) -> dict:
    """Scalar quantities the rules reference, with provenance notes.

    mi = max I(d) over d >= 2 (0.0 when the curve has no such point);
    ldd_depth None becomes 0 (no distance reaches metrics.EPS_DEPTH).
    """
    missing = [
        name
        for name, value in (
            ("pois_per_user_mean", report.pois_per_user_mean),
            ("mi_curve", report.mi_curve),
            ("span_months", report.span_months),
        )
        if value is None
    ]
    if missing:
        raise DataError(f"report incomplete, missing: {', '.join(missing)}")
    beyond = [(i, -d) for d, i in report.mi_curve if d >= 2]
    if beyond:
        mi, neg_d = max(beyond)  # ties resolve to the smallest distance
        mi_at_d = -neg_d
    else:
        mi, mi_at_d = 0.0, None
    return {
        "pois_per_user": report.pois_per_user_mean,
        "mi": mi,
        "mi_at_d": mi_at_d,
        "ldd_depth": report.ldd_depth if report.ldd_depth is not None else 0,
        "span_months": report.span_months,
        "symbols_avg": report.symbol_count_avg,
    }


def recommend(report: MetaAttributeReport) -> Recommendation:
    """First-match verdict over DEFAULT_RULES plus a trace of every rule."""
    derived = derive_attributes(report)
    trace: list[dict] = []
    fired: Optional[SelectionRule] = None
    for rule in DEFAULT_RULES:
        outcomes = {}
        matched = True
        for key, threshold in rule.when:
            attr, cmp = _CONDITIONS[key]
            ok = bool(cmp(derived[attr], threshold))
            outcomes[key] = {
                "threshold": threshold,
                "value": derived[attr],
                "satisfied": ok,
            }
            matched = matched and ok
        trace.append(
            {
                "rule": rule.name,
                "verdict_if_matched": rule.verdict,
                "conditions": outcomes,
                "matched": matched,
                "fired": matched and fired is None,
            }
        )
        if matched and fired is None:
            fired = rule
    assert fired is not None  # the last rule has no condition
    return Recommendation(
        verdict=fired.verdict,
        fired_rule=fired.name,
        rationale=fired.rationale,
        derived=derived,
        trace=tuple(trace),
    )

