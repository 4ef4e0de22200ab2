import pytest

from mobmeta import selector
from mobmeta.characterize import MetaAttributeReport, UserStats
from mobmeta.core import DataError
from mobmeta.selector import (
    _CONDITIONS,
    DEFAULT_RULES,
    VERDICTS,
    derive_attributes,
    recommend,
)


def report_for(
    pois=50.0, mi_curve=((1, 0.5), (2, 0.2)), ldd=1,
    span=12.0, symbols_avg=5000.0,
):
    return MetaAttributeReport(
        dataset_name="t",
        n_users=3,
        span_months=span,
        raw_fix_count=None,
        symbol_count_total=int(3 * symbols_avg),
        symbol_count_avg=symbols_avg,
        n_pois=int(pois),
        pois_per_user_mean=pois,
        entropy_bits_mean=2.0,
        predictability_mean=0.7,
        per_user=tuple(
            UserStats(f"u{i}", int(symbols_avg), int(pois), 2.0, 0.7)
            for i in range(3)
        ),
        mi_curve=tuple(mi_curve),
        ldd_exponent_alpha=0.5,
        ldd_fit_rmse=0.01,
        ldd_depth=ldd,
        pmi_top=(),
    )


def test_small_poi_weak_mi_is_markov():
    rec = recommend(report_for(pois=80.0, mi_curve=((1, 3.0), (2, 1.5))))
    assert rec.verdict == "markov_class"
    assert rec.fired_rule == "R1"


def test_small_poi_strong_mi_is_rnn():
    rec = recommend(report_for(pois=80.0, mi_curve=((1, 3.0), (2, 2.5))))
    assert rec.verdict == "rnn_lstm_class"
    assert rec.fired_rule == "R2"


def test_large_poi_deep_dependence_is_hmrnn():
    rec = recommend(
        report_for(pois=150.0, mi_curve=((1, 3.0), (2, 2.5)), ldd=4,
                   span=30.0)
    )
    assert rec.verdict == "hm_rnn_class"
    assert rec.fired_rule == "R3"


def test_mi_boundary_two_bits_fires_r2():
    rec = recommend(report_for(pois=80.0, mi_curve=((1, 3.0), (2, 2.0))))
    assert rec.fired_rule == "R2"


def test_intermediate_regime_falls_to_default():
    rec = recommend(
        report_for(pois=150.0, mi_curve=((1, 0.5), (2, 0.1)), ldd=1)
    )
    assert rec.fired_rule == "default"
    assert rec.verdict == "rnn_lstm_class"


def test_mi_uses_max_beyond_distance_one():
    d = derive_attributes(
        report_for(mi_curve=((1, 9.0), (2, 0.3), (3, 0.7), (4, 0.7)))
    )
    assert d["mi"] == 0.7
    assert d["mi_at_d"] == 3  # smallest distance attaining the max
    # a curve with only d=1 contributes nothing beyond bigrams
    d1 = derive_attributes(report_for(mi_curve=((1, 9.0),)))
    assert d1["mi"] == 0.0 and d1["mi_at_d"] is None


def test_ldd_none_counts_as_zero():
    rec = recommend(
        report_for(pois=150.0, mi_curve=((1, 0.5), (2, 0.1)), ldd=None)
    )
    assert rec.derived["ldd_depth"] == 0
    assert rec.fired_rule == "default"


def test_incomplete_report_names_missing():
    with pytest.raises(DataError, match="missing: span_months"):
        recommend(report_for(span=None))


def test_trace_covers_every_rule():
    rec = recommend(report_for(pois=80.0, mi_curve=((1, 3.0), (2, 1.5))))
    assert [t["rule"] for t in rec.trace] == ["R1", "R2", "R3", "default"]
    assert sum(t["fired"] for t in rec.trace) == 1
    r1 = rec.trace[0]
    assert r1["matched"] and r1["fired"]
    assert r1["conditions"]["mi_lt"] == {
        "threshold": 2.0, "value": 1.5, "satisfied": True,
    }
    # R2 shares the pois condition but fails on mi
    assert not rec.trace[1]["matched"]
    assert rec.trace[1]["conditions"]["mi_ge"]["satisfied"] is False


def test_determinism():
    rep = report_for(pois=99.0, mi_curve=((1, 1.0), (2, 1.99)))
    assert recommend(rep) == recommend(rep)


def test_totality_over_random_grid(rng):
    for _ in range(10_000):
        rep = report_for(
            pois=float(rng.uniform(1, 300)),
            mi_curve=((1, float(rng.uniform(0, 4))),
                      (2, float(rng.uniform(0, 4)))),
            ldd=int(rng.integers(0, 8)) or None,
            span=float(rng.uniform(0.1, 40)),
            symbols_avg=float(rng.uniform(10, 1e6)),
        )
        rec = recommend(rep)
        assert rec.verdict in VERDICTS


def test_rule_validation():
    # DEFAULT_RULES is a constant, so its checks are made here, not each
    # time a report is recommended
    for rule in DEFAULT_RULES:
        assert rule.verdict in VERDICTS
        assert {key for key, _ in rule.when} <= set(_CONDITIONS)
    # every condition is read by some rule
    assert {key for rule in DEFAULT_RULES for key, _ in rule.when} == set(
        _CONDITIONS
    )
    # the last rule always fires, so every report gets a verdict
    assert DEFAULT_RULES[-1].when == ()


def test_rule_order_changes_boundary_outcome(monkeypatch):
    reordered = (DEFAULT_RULES[-1],) + DEFAULT_RULES[:-1]
    monkeypatch.setattr(selector, "DEFAULT_RULES", reordered)
    rep = report_for(pois=80.0, mi_curve=((1, 3.0), (2, 1.5)))
    first_match = recommend(rep)
    assert first_match.fired_rule == "default"
    assert first_match.trace[0]["fired"] is True
    # the trace still shows R1 would have matched
    r1 = next(t for t in first_match.trace if t["rule"] == "R1")
    assert r1["matched"] and not r1["fired"]


def test_recommendation_to_dict():
    d = recommend(report_for()).to_dict()
    assert set(d) == {"verdict", "fired_rule", "rationale", "derived", "trace"}
    assert isinstance(d["trace"], list)
