"""Threshold rules mapping a characterization report to a model class.

Rules are data: an ordered list evaluated first-match, closed by a
mandatory condition-free default so every report gets a verdict.  The
rule quantity "mi" is the maximum of the MI decay curve over distances
d >= 2 (beyond-bigram dependence); the trace records which distance
attained it, plus every rule's boolean outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

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
    "ldd_depth_le": ("ldd_depth", lambda v, t: v <= t),
    "span_months_ge": ("span_months", lambda v, t: v >= t),
    "span_months_lt": ("span_months", lambda v, t: v < t),
    "symbols_avg_ge": ("symbols_avg", lambda v, t: v >= t),
    "symbols_avg_lt": ("symbols_avg", lambda v, t: v < t),
}


@dataclass(frozen=True)
class SelectionRule:
    name: str
    when: tuple[tuple[str, float], ...]  # empty = always fires
    verdict: str
    rationale: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DataError(f"rule {self.name!r}: unknown verdict {self.verdict!r}")
        for key, _ in self.when:
            if key not in _CONDITIONS:
                raise DataError(f"rule {self.name!r}: unknown condition {key!r}")


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


def validate_rules(rules: Sequence[SelectionRule]) -> None:
    """A rule set is total iff some rule is condition-free."""
    if not rules:
        raise DataError("rule set not total: no rules")
    if not any(not r.when for r in rules):
        raise DataError("rule set not total: no condition-free default rule")


def load_rules(path: Union[str, Path]) -> tuple[SelectionRule, ...]:
    """Read rules from JSON: {"rules": [{name, when, verdict, rationale}]}.

    "when" maps condition keys to thresholds; an empty or missing "when"
    makes the rule a default.  The set must contain a default.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such rules file: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        rules = []
        for i, r in enumerate(obj["rules"]):
            if not isinstance(r, dict):
                raise DataError(f"{path}: rule {i} must be a JSON object, "
                                f"got {r!r}")
            name = str(r.get("name", f"rule{i}"))
            conditions = r.get("when") or {}
            if not isinstance(conditions, dict):
                raise DataError(f"{path}: rule {name!r}: \"when\" must be a "
                                f"JSON object, got {conditions!r}")
            when = sorted(
                (str(k), _threshold(name, k, v))
                for k, v in conditions.items()
            )
            rules.append(SelectionRule(
                name, tuple(when), str(r["verdict"]),
                str(r.get("rationale", "")),
            ))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: malformed rules file: {e}") from e
    validate_rules(rules)
    return tuple(rules)


def _threshold(rule: str, key: str, value) -> float:
    """A condition's threshold as a float.  Booleans (float(True) is 1.0)
    and NaN or infinities (a NaN condition never holds) are refused."""
    t = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(t):
        raise DataError(
            f"rule {rule!r}: threshold of {key!r} must be a finite number, "
            f"got {value!r}"
        )
    return t


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


def recommend(
    report: MetaAttributeReport,
    rules: Optional[Sequence[SelectionRule]] = None,
) -> Recommendation:
    """First-match verdict plus a trace of every rule evaluated."""
    rules = tuple(rules) if rules is not None else DEFAULT_RULES
    validate_rules(rules)
    derived = derive_attributes(report)
    trace: list[dict] = []
    fired: Optional[SelectionRule] = None
    for rule in rules:
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
    assert fired is not None  # validate_rules guarantees a default
    return Recommendation(
        verdict=fired.verdict,
        fired_rule=fired.name,
        rationale=fired.rationale,
        derived=derived,
        trace=tuple(trace),
    )

