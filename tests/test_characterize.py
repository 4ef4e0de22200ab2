import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mobmeta.characterize import (
    characterize,
    per_user_attribute_matrix,
    report_from_dict,
)
from mobmeta.core import DataError, PoiSequence, concat_user_streams
from mobmeta.metrics import EPS_FIT, mutual_information_at_distance
from mobmeta.synth import SourceSpec, generate
from conftest import make_dataset

SCHEMA = json.loads(
    (
        Path(__file__).resolve().parents[1]
        / "src"
        / "mobmeta"
        / "schemas"
        / "report.schema.json"
    ).read_text()
)


def zero_diag_uniform(n):
    t = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(t, 0.0)
    return t


@pytest.fixture(scope="module")
def markov_report():
    spec = SourceSpec(
        kind="markov_order_k",
        n_symbols=10_000,
        n_users=10,
        seed=11,
        transition=zero_diag_uniform(8),
    )
    ds, gt = generate(spec)
    return ds, gt, characterize(ds, 6)


def test_markov_dataset_example(markov_report):
    _, gt, rep = markov_report
    analytic = math.log2(7)
    assert gt["entropy_rate_bits"] == pytest.approx(analytic)
    assert rep.n_pois == 8
    assert rep.entropy_bits_mean == pytest.approx(analytic, rel=0.05)
    assert rep.ldd_depth == 1
    # I(1) for this chain is H(stationary) - rate = 3 - log2(7)
    assert rep.mi_curve[0][1] == pytest.approx(3.0 - analytic, abs=0.01)
    assert rep.n_users == 10
    assert rep.symbol_count_total == 100_000
    assert rep.pois_per_user_mean == pytest.approx(8.0)
    assert 0.0 < rep.predictability_mean < 1.0


def test_constant_source_rejected():
    with pytest.raises(DataError, match="constant"):
        generate(
            SourceSpec(
                kind="iid", n_symbols=50, dist=(1.0, 0.0), seed=1
            )
        )


def test_report_matches_schema(markov_report):
    _, _, rep = markov_report
    jsonschema.validate(rep.to_dict(), SCHEMA)


def test_report_round_trips(markov_report):
    _, _, rep = markov_report
    assert report_from_dict(rep.to_dict()) == rep


def test_report_from_dict_rejects_malformed():
    with pytest.raises(DataError, match="malformed"):
        report_from_dict({"dataset_name": "x"})


@pytest.mark.parametrize("edit, named", [
    (lambda r: r.update(ldd_exponent_alpha="x"),
     "ldd_exponent_alpha must be a number, got 'x'"),
    (lambda r: r.update(raw_fix_count="many"),
     "raw_fix_count must be an integer, got 'many'"),
    (lambda r: r.update(ldd_fit_rmse=[1]),
     "ldd_fit_rmse must be a number, got [1]"),
    (lambda r: r.update(ldd_fit_rmse=float("inf")),
     "ldd_fit_rmse must be a number, got inf"),
    (lambda r: r.update(dataset_name=7), "dataset_name must be a string"),
    (lambda r: r.update(n_users=3.0), "n_users must be an integer, got 3.0"),
    (lambda r: r.pop("n_pois"), "n_pois must be an integer, got None"),
    (lambda r: r["symbol_count"].update(total=True),
     "symbol_count.total must be an integer, got True"),
    (lambda r: r["per_user"][2].update(user_id=None),
     "per_user entry 2 user_id must be a string, got None"),
    (lambda r: r["per_user"][0].update(n_pois=2.5),
     "per_user entry 0 n_pois must be an integer, got 2.5"),
    (lambda r: r["per_user"][1].update(entropy_bits=float("nan")),
     "per_user entry 1 entropy_bits must be a number, got nan"),
    (lambda r: r["pmi_top"][0].update(d="1"),
     "pmi_top entry 0 d must be an integer, got '1'"),
    (lambda r: r["pmi_top"][3].update(pmi_bits=None),
     "pmi_top entry 3 pmi_bits must be a number, got None"),
    (lambda r: r.update(pmi_top={}), "pmi_top must be a list, got {}"),
    (lambda r: r.update(warnings="note"),
     "warnings must be a list, got 'note'"),
    (lambda r: r["warnings"].append(3), "warnings entry 0 must be a string"),
], ids=["alpha", "raw-fixes", "rmse-list", "rmse-inf", "name", "users",
        "pois-absent", "total-bool", "user-id", "user-pois", "user-nan",
        "pmi-d", "pmi-bits", "pmi-object", "warnings-string",
        "warning-number"])
def test_report_from_dict_checks_every_value(markov_report, edit, named):
    _, _, rep = markov_report
    obj = rep.to_dict()
    edit(obj)
    with pytest.raises(DataError) as e:
        report_from_dict(obj)
    assert str(e.value).startswith("malformed characterization report: ")
    assert named in str(e.value)


def test_report_from_dict_reads_absent_optional_keys(markov_report):
    _, _, rep = markov_report
    obj = rep.to_dict()
    for key in ("raw_fix_count", "ldd_exponent_alpha", "ldd_fit_rmse",
                "ldd_depth", "pmi_top", "warnings"):
        del obj[key]
    got = report_from_dict(obj)
    assert (got.raw_fix_count, got.ldd_exponent_alpha, got.ldd_fit_rmse,
            got.ldd_depth, got.pmi_top, got.warnings) == (
        None, None, None, None, (), ())
    assert got.per_user == rep.per_user and got.mi_curve == rep.mi_curve


def test_kept_users_have_two_pois_and_pmi_streams_two_pairs():
    # why _user_stats needs no single-POI case and characterize's top_pmi
    # call no error handling: PoiSequence forbids a repeat, so a user of
    # >= 2 symbols visits >= 2 POIs; and a stream of >= 3 symbols joined
    # from such users has one user of >= 3 symbols or two users of >= 2,
    # so it holds >= 2 pairs at d = 1
    with pytest.raises(DataError, match="self-transition 0 -> 0"):
        PoiSequence("u", [0, 0], [0, 1])
    for lengths in ([2], [3], [4], [2, 2], [2, 3], [2, 2, 2], [3, 2, 4]):
        ds = make_dataset({f"u{i}": [j % 3 for j in range(n)]
                           for i, n in enumerate(lengths)}, n_pois=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamped short-stream entropy
            rep = characterize(ds, 1)
        assert rep.n_users == len(lengths)
        assert all(u.n_pois >= 2 for u in rep.per_user)
        assert (len(rep.pmi_top) > 0) == (rep.stream.shape[0] >= 3)
        assert not any("pmi" in note for note in rep.warnings)


def test_characterize_deterministic(markov_report):
    ds, _, rep = markov_report
    again = characterize(ds, 6)
    assert again == rep


def test_short_sequences_skipped():
    ds = make_dataset(
        {"a": [0, 1, 2, 0, 1, 2, 0, 1], "b": [3]}, n_pois=4
    )
    rep = characterize(ds, 1)
    assert rep.n_users == 1
    assert any("skipped short" in w for w in rep.warnings)
    with pytest.raises(DataError, match=">= 2 symbols"):
        characterize(make_dataset({"b": [3]}, n_pois=4))


def test_implausible_short_user_skipped():
    # 5 symbols alternating over 2 POIs: the LZ estimate (1.16 bits) is
    # more than 0.1 bits above log2(2), so that user is left out
    long = [0, 1, 2, 0, 1, 2, 3, 0, 1, 2] * 30
    ds = make_dataset({"a": long, "b": [0, 1, 0, 1, 0]}, n_pois=4)
    rep = characterize(ds, 5)
    alone = characterize(make_dataset({"a": long}, n_pois=4), 5)
    assert [u.user_id for u in rep.per_user] == ["a"]
    assert rep.per_user == alone.per_user
    assert rep.mi_curve == alone.mi_curve
    assert any("skipped user b" in w and "1.16" in w for w in rep.warnings)
    with pytest.raises(DataError, match="skipped user b"):
        characterize(make_dataset({"b": [0, 1, 0, 1, 0]}, n_pois=4))


def test_dmax_capped_for_short_streams():
    ds = make_dataset({"a": [0, 1, 2, 3] * 15}, n_pois=4)
    rep = characterize(ds, 100)
    assert max(d for d, _ in rep.mi_curve) == 5  # (60-1)//10
    assert any("capped" in w for w in rep.warnings)


def test_one_distance_above_eps_fit_is_not_called_no_dependence():
    # d_max is capped to 1 and I(1) is about 1 bit: the dependence is
    # measured, but one distance is too few to fit the exponent to
    ds, _ = generate(SourceSpec(kind="copy_with_gap", n_symbols=20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = characterize(ds, 20)
    assert rep.mi_curve[0][1] > EPS_FIT and rep.ldd_depth == 1
    assert rep.ldd_exponent_alpha is None
    assert ("fewer than 2 distances have I(d) above EPS_FIT (0.001 bits): "
            "ldd_exponent_alpha left undefined") in rep.warnings
    assert not any("no measurable dependence" in w for w in rep.warnings)


@pytest.mark.parametrize("streams, cap", [
    # 100 x 6 symbols join to 699, which allows d = 69 by length
    ({f"u{i:03d}": [0, 1, 2] * 2 for i in range(100)}, 5),
    # 12 symbols then 50 x 4: d = 10 is the last with 2 pairs in one user
    ({"a": [0, 1, 2, 3] * 3, **{f"u{i:02d}": [0, 1, 2, 3] for i in range(50)}},
     10),
])
def test_dmax_capped_to_distances_with_two_pairs(streams, cap):
    ds = make_dataset(streams)
    rep = characterize(ds, 100)
    assert [d for d, _ in rep.mi_curve] == list(range(1, cap + 1))
    assert any(f"d_max capped to {cap} (fewer than 2 pairs" in w
               for w in rep.warnings)
    stream = concat_user_streams(ds.sequences)
    with pytest.raises(DataError, match="fewer than 2 pairs"):
        mutual_information_at_distance(stream, cap + 1)


def test_mi_curve_clamped_nonnegative(markov_report):
    _, _, rep = markov_report
    assert all(i >= 0.0 for _, i in rep.mi_curve)


def test_pmi_top_sorted_and_finite(markov_report):
    _, _, rep = markov_report
    vals = [v for _, v in rep.pmi_top]
    assert len(vals) == 10
    assert vals == sorted(vals, reverse=True)
    assert all(math.isfinite(v) for v in vals)
    # zero diagonal: a symbol never follows itself, so the top pairs
    # (which beat independence) are all off-diagonal
    assert all(a != b for (a, b, _), _ in rep.pmi_top)


def test_attribute_matrix_shape(markov_report):
    _, _, rep = markov_report
    names, m = per_user_attribute_matrix(rep)
    assert names == ["n_symbols", "n_pois", "entropy_bits", "predictability"]
    assert m.shape == (4, 10)
    assert np.all(m[0] > 0)


def test_params_validation():
    with pytest.raises(ValueError, match="d_max"):
        characterize(make_dataset({"a": [0, 1] * 20}), 0)
