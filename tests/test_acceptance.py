"""Acceptance suite: one test per numbered criterion in CRITERIA.

Each test is self-contained and states its tolerances inline; conftest
prints a one-line PASS/FAIL verdict per criterion after the run.
Criteria with a runtime budget assert it with time.monotonic().
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import make_dataset
from test_selector import report_for

from mobmeta.characterize import characterize
from mobmeta.cli import main
from mobmeta.core import InfeasiblePlanError
from mobmeta.entropy import fano_predictability, lz_entropy_rate
from mobmeta.metrics import (
    fit_power_law,
    match_structure,
    mi_decay_curve,
    mutual_information_at_distance,
    pmi_from_counts,
)
from mobmeta.predictors import PredictorSpec, train
from mobmeta.rng import SplitMix64
from mobmeta.selector import VERDICTS, recommend
from mobmeta.synth import SourceSpec, generate, raw_stream
from mobmeta.validation import ValidationPlan, evaluate, make_folds

CRITERIA = {
    1: "MI three-form identity and exact pair-enumeration oracle",
    2: "PMI arithmetic: log2(10), exact independence, -inf sentinel",
    3: "LZ entropy rate: iid uniform, analytic Markov rates, constant",
    4: "Fano bound endpoints and monotonicity",
    5: "LDD depth on copy-with-gap; iid null; power-law recovery",
    6: "match structure equals the quadratic oracle",
    7: "predictor exactness: cycle, cumulative training, normalization",
    8: "leakage-free folds across a randomized plan grid",
    9: "validation sensitivity: regime switch vs stationary",
    10: "selector threshold examples and rule-set totality",
    11: "end-to-end pipeline rerun is byte-identical",
}


def test_criterion_01_mi_identity_and_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(411)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        seq = rng.integers(0, m, size=500).tolist()
        for d in (1, 2, 3, 5):
            got = mutual_information_at_distance(seq, d)
            # cell sum, H(X)+H(Y)-H(X,Y), and H(Y)-H(Y|X) agree to 1e-9
            pairs = oracles.pairs_at_distance(seq, d)
            n = len(pairs)
            hx = oracles.entropy_of_counts(Counter(x for x, _ in pairs), n)
            hy = oracles.entropy_of_counts(Counter(y for _, y in pairs), n)
            hxy = oracles.entropy_of_counts(Counter(pairs), n)
            assert got == pytest.approx(hx + hy - hxy, abs=1e-9)
            assert got == pytest.approx(hy - (hxy - hx), abs=1e-9)
            # the count-form oracle sums the same f terms, so an exact
            # sum makes agreement exact, not merely close; the textbook
            # cell sum agrees to rounding
            assert got == oracles.mi_by_count_terms(seq, d)
            assert got == pytest.approx(oracles.mi_by_cell_sum(seq, d),
                                        abs=1e-13)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_pmi_arithmetic():
    # N * C(a,b) / (C(a) C(b)) = 100*10/(10*10) = 10
    enriched = pmi_from_counts(100, 10, 10, 10)
    assert enriched == math.log2(10.0)
    assert round(enriched, 4) == 3.3219
    # 100*2/(20*10) = 1: exact independence
    assert pmi_from_counts(100, 20, 10, 2) == 0.0
    assert pmi_from_counts(100, 10, 10, 0) == float("-inf")


def analytic_markov_rate(p: np.ndarray) -> float:
    """Entropy rate of an order-1 chain from its stationary distribution."""
    evals, evecs = np.linalg.eig(p.T)
    pi = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    pi = pi / pi.sum()
    rows = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return float(-(pi * rows.sum(axis=1)).sum())


def test_criterion_03_entropy_estimator_consistency():
    t0 = time.monotonic()
    spec = SourceSpec(kind="iid", dist=(0.25,) * 4, n_symbols=100_000,
                      n_users=1, seed=42)
    raw = np.asarray(raw_stream(spec, SplitMix64(spec.seed)), dtype=np.int64)
    assert abs(lz_entropy_rate(raw) - 2.0) <= 0.1

    for case_seed in (101, 202, 303):
        g = np.random.default_rng(case_seed)
        m = int(g.integers(3, 7))
        p = g.random((m, m))
        np.fill_diagonal(p, 0.0)  # keeps the realization collapse-free
        p = p / p.sum(axis=1, keepdims=True)
        spec = SourceSpec(kind="markov_order_k", transition=p,
                          n_symbols=100_000, n_users=1, seed=case_seed)
        raw = np.asarray(
            raw_stream(spec, SplitMix64(spec.seed)), dtype=np.int64
        )
        est = lz_entropy_rate(raw)
        ref = analytic_markov_rate(p)
        assert est == pytest.approx(ref, rel=0.05)

    assert lz_entropy_rate(np.zeros(10_000, dtype=np.int64)) <= 0.02
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_fano_solver():
    for n in (2, 10, 1000):
        assert fano_predictability(0.0, n) == pytest.approx(1.0, abs=1e-9)
        assert fano_predictability(math.log2(n), n) == pytest.approx(
            1.0 / n, abs=1e-9
        )
    grid = np.linspace(0.0, math.log2(10), 100)
    pis = [fano_predictability(float(s), 10) for s in grid]
    assert all(a > b for a, b in zip(pis, pis[1:]))


def test_criterion_05_ldd_detection():
    for k in (2, 5, 10):
        spec = SourceSpec(kind="copy_with_gap", gap=k, eps=0.05,
                          n_symbols=100_000, n_users=1, seed=k)
        ds, _ = generate(spec)
        rep = characterize(ds, k + 3)
        assert rep.ldd_depth is not None and rep.ldd_depth >= k

    spec = SourceSpec(kind="iid", dist=(0.25,) * 4, n_symbols=100_000,
                      n_users=1, seed=99)
    stream = np.asarray(raw_stream(spec, SplitMix64(99)), dtype=np.int64)
    decay = mi_decay_curve(stream, 15)
    # alpha None + depth None is the "no measurable dependence" outcome
    assert decay.alpha is None
    assert decay.ldd_depth is None

    ds_ = list(range(1, 21))
    alpha, rmse = fit_power_law(ds_, [d ** -0.8 for d in ds_])
    assert alpha == pytest.approx(0.8, abs=1e-6)
    assert rmse <= 1e-6


def test_criterion_06_match_structure_oracle(rng):
    for _ in range(20):
        m = int(rng.integers(2, 9))
        seq = rng.integers(0, m, size=700).tolist()[:500]
        assert match_structure(seq).tolist() == [
            list(t) for t in oracles.brute_match_structure(seq)
        ]


def test_criterion_07_predictor_exactness(rng):
    ds = make_dataset({"u": [0, 1, 2] * 100})
    res = evaluate(
        ds,
        PredictorSpec(kind="markov_k", k=1),
        ValidationPlan("block_rolling", k=10, p=1),
    )
    assert res.accuracy_weighted == 1.0
    assert res.bits_weighted is not None and res.bits_weighted <= 0.02

    first = rng.integers(0, 5, size=400).tolist()
    second = rng.integers(0, 5, size=300).tolist()
    specs = [PredictorSpec(kind="markov_k", k=k) for k in (1, 2, 3)]
    specs += [PredictorSpec(kind="mmc", top_m=3),
              PredictorSpec(kind="top_frequency")]
    for spec in specs:
        whole = train(spec, first + second, 5)
        ref = oracles.DictModel(spec, first + second, 5)
        for _ in range(20):
            ctx = rng.integers(0, 5, size=int(rng.integers(1, 4))).tolist()
            pred_w, dist_w = oracles.native_predict(whole, ctx)
            pred_r, dist_r = ref.predict(ctx)
            assert pred_w == pred_r
            np.testing.assert_array_equal(dist_w, dist_r)
        if spec.kind == "markov_k":
            assert (oracles.transition_counts(whole)
                    == ref.transition_counts())

    checked = 0
    for i in range(100):
        n_sym = int(rng.integers(2, 7))
        spec = (
            PredictorSpec(kind="markov_k", k=1 + i % 3),
            PredictorSpec(kind="mmc", top_m=int(rng.integers(1, 5))),
            PredictorSpec(kind="top_frequency"),
            PredictorSpec(kind="random_uniform"),
        )[i % 4]
        model = train(spec, rng.integers(0, n_sym, size=60).tolist(), n_sym)
        for _ in range(100):
            ctx = rng.integers(0, n_sym,
                               size=int(rng.integers(0, 5))).tolist()
            pred, dist = oracles.native_predict(model, ctx)
            assert 0 <= pred < n_sym
            assert dist.shape == (n_sym,)
            assert (dist > 0.0).all()
            assert abs(float(dist.sum()) - 1.0) <= 1e-9
            checked += 1
    assert checked >= 10_000


def test_criterion_08_leakage_freedom(rng):
    feasible = block_rolling_cases = 0
    for _ in range(300):
        scheme = ("rolling", "block_rolling", "window10_cumulative")[
            int(rng.integers(3))
        ]
        n = int(rng.integers(20, 400))
        k = int(rng.integers(2, 13))
        p = int(rng.integers(1, k))
        plan = ValidationPlan(scheme, k=k, p=p, seed=int(rng.integers(1000)))
        try:
            folds = make_folds(plan, n)
        except InfeasiblePlanError:
            continue
        feasible += 1
        for fold in folds:
            assert not fold.leaky
            assert int(fold.train_idx.max()) < int(fold.test_idx.min())
        if scheme == "block_rolling":
            assert len(folds) == k - p
            block_rolling_cases += 1
    assert feasible >= 100
    assert block_rolling_cases >= 20


def test_criterion_09_validation_sensitivity_reproduction():
    t0 = time.monotonic()
    base = dict(n_symbols=10_000, n_users=8, seed=7)
    periodic = SourceSpec(kind="periodic", pattern=(0, 1, 2, 3), **base)
    chain = SourceSpec(
        kind="markov_order_k",
        transition=np.where(np.eye(4, dtype=bool), 0.0, 1 / 3),
        **base,
    )
    switching = SourceSpec(kind="regime_switch", spec_a=periodic,
                           spec_b=chain, switch_fraction=0.75, **base)
    model = PredictorSpec(kind="markov_k", k=1)

    def holdout_spread(spec):
        ds, _ = generate(spec)
        accs = [
            evaluate(
                ds, model, ValidationPlan("holdout", split=s)
            ).accuracy_user_mean
            for s in (0.8, 0.7, 0.6)
        ]
        return max(accs) - min(accs), ds

    spread_switching, ds_switching = holdout_spread(switching)
    spread_stationary, _ = holdout_spread(chain)
    assert spread_switching >= 0.05
    assert spread_stationary <= 0.03

    res = evaluate(ds_switching, model,
                   ValidationPlan("block_rolling", k=10, p=1))
    curve = dict(res.fold_curve())
    # regime A fills test blocks up to the switch at 3/4 of the stream,
    # so folds 0..5 stay near 1.0 and fold 6 is the visible drop
    assert min(curve[f] for f in range(6)) >= 0.95
    assert curve[6] <= curve[5] - 0.2
    assert curve[8] <= 0.45
    assert time.monotonic() - t0 < 120.0


def test_criterion_10_selector_conformance(rng):
    cases = [
        (dict(pois=80.0, mi_curve=((1, 3.0), (2, 1.5))), "markov_class"),
        (dict(pois=80.0, mi_curve=((1, 3.0), (2, 2.5))), "rnn_lstm_class"),
        (
            dict(pois=150.0, mi_curve=((1, 3.0), (2, 2.5)), ldd=4,
                 span=30.0),
            "hm_rnn_class",
        ),
    ]
    for kwargs, verdict in cases:
        rec = recommend(report_for(**kwargs))
        assert rec.verdict == verdict
        assert sum(entry["fired"] for entry in rec.trace) == 1
        for entry in rec.trace:
            assert {"rule", "fired", "conditions",
                    "verdict_if_matched"} <= set(entry)

    for _ in range(10_000):
        rep = report_for(
            pois=float(rng.uniform(1, 300)),
            mi_curve=((1, float(rng.uniform(0, 4))),
                      (2, float(rng.uniform(0, 4)))),
            ldd=int(rng.integers(0, 8)) or None,
            span=float(rng.uniform(0.1, 40)),
            symbols_avg=float(rng.uniform(10, 1e6)),
        )
        assert recommend(rep).verdict in VERDICTS


def _run_pipeline(root):
    d = root / "d"
    steps = [
        ["synth", "--kind", "copy_with_gap", "--k", "3", "--eps", "0.1",
         "--n", "4000", "--users", "3", "--seed", "21", "--out", str(d)],
        ["characterize", str(d), "--dmax", "8",
         "--out", str(root / "ch" / "report.json")],
        ["validate", str(d), "--model", "markov:1",
         "--scheme", "block_rolling:k=10,p=1",
         "--out", str(root / "val" / "folds.csv")],
        ["recommend", str(root / "ch" / "report.json"),
         "--out", str(root / "rec" / "recommendation.json")],
        ["report", str(d),
         "--characterization", str(root / "ch" / "report.json"),
         "--validation", str(root / "val" / "results.json"),
         "--recommendation", str(root / "rec" / "recommendation.json"),
         "--out", str(root / "bundle")],
    ]
    for argv in steps:
        assert main(argv) == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        # the manifest embeds wall time and its own output path
        if p.is_file() and p.name != "run_manifest.json"
    }


def test_criterion_11_end_to_end_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    assert first and first == second
