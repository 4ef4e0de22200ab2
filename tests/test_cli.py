"""End-to-end exercises of the command-line interface.

Every test drives mobmeta.cli.main in-process with an explicit argv and
asserts on exit codes, produced files, and printed lines.  Exit codes:
0 success, 2 usage, 3 data error, 4 infeasible plan.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import mobmeta
from mobmeta import __version__, cli, predictors
from mobmeta.cli import COMMANDS, build_parser, main
from mobmeta.ingest import load_dataset
from mobmeta.report import FOLDS_CSV_COLUMNS
from mobmeta.synth import KIND_FIELDS, SourceSpec, spec_to_dict
from test_readme import readme_commands

MANIFEST_KEYS = {
    "command_line", "config_hash", "dataset_hash", "tool_version",
    "wall_time_s", "outputs",
}


def ok(argv, capsys):
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 0, err
    return out, err


def synth_periodic(tmp_path, capsys, out="d", users=3, n=120, seed=5):
    path = tmp_path / out
    ok(
        ["synth", "--kind", "periodic", "--pattern", "0,1,2",
         "--n", n, "--users", users, "--seed", seed, "--out", path],
        capsys,
    )
    return path


def write_zero_diag_transition(tmp_path):
    t = [[0.0 if i == j else 1 / 3 for j in range(4)] for i in range(4)]
    p = tmp_path / "transition.json"
    p.write_text(json.dumps(t), encoding="utf-8")
    return p


def read_manifest(directory):
    return json.loads((directory / "run_manifest.json").read_text())


def tree_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.name != "run_manifest.json"
    }


def disk_state(root):
    """Every path under root, with a file's bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def synth_files(tmp_path):
    """Paths to substitute for "{transition}" and "{spec}" in synth args:
    a transition table and a periodic source spec."""
    spec = tmp_path / "periodic.json"
    spec.write_text(json.dumps({"kind": "periodic", "pattern": [0, 1, 2]}),
                    encoding="utf-8")
    return {"transition": str(write_zero_diag_transition(tmp_path)),
            "spec": str(spec)}


@pytest.mark.parametrize("kind, given, refused, reads", [
    ("iid", ["--pattern", "0,1,2", "--k", "5"], "--pattern",
     "--alphabet-size, --dist"),
    ("iid", ["--eps", "0.0"], "--eps", "--alphabet-size, --dist"),
    ("periodic", ["--pattern", "0,1,2", "--alphabet-size", "3"],
     "--alphabet-size", "--pattern"),
    ("markov_order_k", ["--transition", "{transition}", "--k", "2"], "--k",
     "--transition"),
    ("copy_with_gap", ["--k", "3", "--switch-fraction", "0.3"],
     "--switch-fraction", "--k, --eps"),
    ("regime_switch", ["--spec-a", "{spec}", "--spec-b", "{spec}",
                       "--dist", "0.5,0.5"], "--dist",
     "--spec-a, --spec-b, --switch-fraction"),
], ids=["iid-pattern", "iid-eps", "periodic-alphabet-size",
        "markov_order_k-k", "copy_with_gap-switch-fraction",
        "regime_switch-dist"])
def test_synth_refuses_an_option_its_kind_does_not_read(
        tmp_path, capsys, kind, given, refused, reads):
    # given with its default value too: the kind would ignore it
    given = [arg.format(**synth_files(tmp_path)) for arg in given]
    rc = main(["synth", "--kind", kind, *given, "--n", "60",
               "--out", str(tmp_path / "d")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert (f"usage error: --kind {kind} does not read {refused}; "
            f"it reads: {reads}") in err
    assert not (tmp_path / "d").exists()


# a value each synth option is accepted with
SYNTH_VALUES = {"--alphabet-size": "3", "--dist": "0.5,0.5",
                "--pattern": "0,1,2", "--transition": "{transition}",
                "--k": "3", "--eps": "0.1", "--spec-a": "{spec}",
                "--spec-b": "{spec}", "--switch-fraction": "0.3"}


@pytest.mark.parametrize("kind", KIND_FIELDS)
def test_kind_options_follow_kind_fields(tmp_path, capsys, kind):
    # a kind reads the options of its fields: each is accepted and sets
    # its field, and an option of another field is refused, naming them
    files = synth_files(tmp_path)
    options = {option: field
               for option, (field, _) in cli._SYNTH_FIELDS.items()}
    reads = [option for option, field in options.items()
             if field in KIND_FIELDS[kind]]
    assert {options[option] for option in reads} == set(KIND_FIELDS[kind])

    def args(chosen):
        # `chosen`, and the first option of each other field of the kind
        first = {}
        for option in (chosen, *reads):
            first.setdefault(options[option], option)
        return [a.format(**files) for option in first.values()
                for a in (option, SYNTH_VALUES[option])]

    defaults = {f.name: f.default for f in dataclasses.fields(SourceSpec)}
    for option in reads:
        argv = ["synth", "--kind", kind, *args(option), "--n", "60"]
        ok([*argv, "--out", tmp_path / option[2:]], capsys)
        field = options[option]
        spec = cli._spec_from_args(cli.parse_args(argv))
        assert spec_to_dict(spec)[field] != defaults[field]
    for option in options.keys() - reads:
        out = tmp_path / "refused"
        rc = main(["synth", "--kind", kind, *args(reads[0]),
                   option, SYNTH_VALUES[option].format(**files),
                   "--n", "60", "--out", str(out)])
        _, err = capsys.readouterr()
        assert rc == 2
        assert (f"usage error: --kind {kind} does not read {option}; "
                f"it reads: {', '.join(reads)}") in err
        assert not out.exists()


@pytest.mark.parametrize("given, message", [
    # copy_with_gap always has 4 POIs, so it reads no size at all
    (["--kind", "copy_with_gap", "--alphabet-size", "4"],
     "--kind copy_with_gap does not read --alphabet-size; it reads: "
     "--k, --eps"),
    # both set iid's dist, also when their sizes agree
    (["--kind", "iid", "--dist", "0.5,0.5", "--alphabet-size", "2"],
     "--alphabet-size and --dist both set dist; give one of them"),
    # an empty dist, not a division by zero
    (["--kind", "iid", "--alphabet-size", "0"],
     "malformed source spec: iid needs dist"),
], ids=["copy_with_gap", "iid-dist", "iid-zero"])
def test_synth_refuses_an_alphabet_size_its_source_does_not_have(
        tmp_path, capsys, given, message):
    rc = main(["synth", *given, "--n", "60", "--out", str(tmp_path / "d")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert f"usage error: {message}" in err
    assert not (tmp_path / "d").exists()


def test_synth_spec_option_is_gone(tmp_path, capsys):
    # --spec read a whole source spec and overrode every other option
    with pytest.raises(SystemExit) as e:
        main(["synth", "--kind", "copy_with_gap", "--k", "3",
              "--spec", synth_files(tmp_path)["spec"],
              "--out", str(tmp_path / "d")])
    assert e.value.code == 2
    assert "--spec" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


PERIODIC_SPEC = '{"kind": "periodic", "pattern": [0, 1, 2]'


@pytest.mark.parametrize("option, text, named", [
    ("--spec-a", PERIODIC_SPEC + ', "gap": 3}',
     "malformed source spec: kind periodic does not read 'gap'; it reads: "
     "pattern"),
    ("--spec-b", PERIODIC_SPEC + ', "seed_": 9}',
     "malformed source spec: kind periodic does not read 'seed_'"),
    # the regime_switch spec sets these; a regime's spec never read them
    ("--spec-a", PERIODIC_SPEC + ', "n_symbols": 99999}',
     "malformed source spec: kind periodic does not read 'n_symbols'; it "
     "reads: pattern"),
    ("--spec-b", PERIODIC_SPEC + ', "n_users": 3}',
     "malformed source spec: kind periodic does not read 'n_users'"),
    ("--spec-a", PERIODIC_SPEC + ', "seed": 2}',
     "malformed source spec: kind periodic does not read 'seed'"),
    ("--spec-a", '{"kind": "periodic"}',
     "malformed source spec: periodic needs a pattern"),
    ("--spec-a", '{"kind": "regime_switch", "n_symbols": 60, "spec_a": '
                 '{"kind": "periodic", "n_symbols": 60}, "spec_b": '
     + PERIODIC_SPEC + '}}', "malformed source spec: periodic needs a pattern"),
    ("--spec-b", "notjson", "Expecting value"),
    ("--transition", "notjson", "Expecting value"),
    ("--transition", "[[0.5, 0.6], [0.5, 0.5]]",
     "malformed source spec: transition rows must be normalized"),
], ids=["key-its-kind-does-not-read", "key-no-kind-reads", "n_symbols",
        "n_users", "seed", "no-pattern",
        "malformed-nested-spec", "spec-not-json", "transition-not-json",
        "transition-not-normalized"])
def test_synth_refuses_a_bad_spec_file_naming_it(tmp_path, capsys, option,
                                                 text, named):
    # a spec file is data: checked whole, and any fault exits 3
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    files = synth_files(tmp_path)
    kind = {"--transition": ["--kind", "markov_order_k"],
            "--spec-a": ["--kind", "regime_switch", "--spec-b", files["spec"]],
            "--spec-b": ["--kind", "regime_switch", "--spec-a", files["spec"]]}
    rc = main(["synth", *kind[option], option, str(path), "--n", "60",
               "--out", str(tmp_path / "d")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {path}: {named}" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("given, config_hash", [
    (["--kind", "iid"],
     "266fed3263156bfa9954e3d0d8883a43b2a7a673463b07a3ae636309505de6a2"),
    (["--kind", "iid", "--alphabet-size", "4"],
     "266fed3263156bfa9954e3d0d8883a43b2a7a673463b07a3ae636309505de6a2"),
    (["--kind", "copy_with_gap"],
     "a1050b414c1999333c5f36f295197601d15294a56cfe6f15d7cb9af859335e8d"),
    (["--kind", "copy_with_gap", "--k", "1", "--eps", "0"],
     "a1050b414c1999333c5f36f295197601d15294a56cfe6f15d7cb9af859335e8d"),
    (["--kind", "regime_switch", "--spec-a", "{spec}", "--spec-b",
      "{spec}"],
     "2f3f93c17966476922bb36056687087945523fd2fd1871450cbef9440e27cda7"),
    (["--kind", "regime_switch", "--spec-a", "{spec}", "--spec-b", "{spec}",
      "--switch-fraction", "0.5"],
     "2f3f93c17966476922bb36056687087945523fd2fd1871450cbef9440e27cda7"),
], ids=["iid", "iid-default-given", "copy_with_gap",
        "copy_with_gap-defaults-given", "regime_switch",
        "regime_switch-default-given"])
def test_synth_default_config_hash(tmp_path, capsys, given, config_hash):
    # the pinned hashes of the default configs: an option left out and one
    # given at its default value configure the same run
    given = [arg.format(**synth_files(tmp_path)) for arg in given]
    ok(["synth", *given, "--n", 60, "--out", tmp_path / "d"], capsys)
    assert read_manifest(tmp_path / "d")["config_hash"] == (
        "sha256:" + config_hash)


def test_synth_writes_dataset_and_ground_truth(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    for name in ("alphabet.json", "sequences.jsonl", "meta.json",
                 "ground_truth.json", "run_manifest.json"):
        assert (d / name).is_file()
    ds = load_dataset(d)
    assert ds.n_users == 3
    gt = json.loads((d / "ground_truth.json").read_text())
    assert gt["kind"] == "periodic"
    assert gt["entropy_rate_bits"] == 0.0


def test_manifest_fields(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    m = read_manifest(d)
    assert set(m) == MANIFEST_KEYS
    assert m["command_line"][0] == "mobmeta"
    assert m["command_line"][1] == "synth"
    assert m["config_hash"].startswith("sha256:")
    assert m["dataset_hash"].startswith("sha256:")
    assert m["tool_version"] == __version__
    assert m["wall_time_s"] >= 0.0
    assert m["outputs"] == sorted(m["outputs"])
    assert any(p.endswith("ground_truth.json") for p in m["outputs"])


def test_pipeline_end_to_end(tmp_path, capsys):
    ok(
        ["synth", "--kind", "markov_order_k",
         "--transition", write_zero_diag_transition(tmp_path),
         "--n", 2000, "--users", 3, "--seed", 9, "--out", tmp_path / "d"],
        capsys,
    )

    ok(
        ["characterize", tmp_path / "d", "--dmax", 6,
         "--out", tmp_path / "ch" / "report.json"],
        capsys,
    )
    for name in ("report.json", "mi_curve.csv", "match_structure.csv",
                 "corr_matrix.csv", "run_manifest.json"):
        assert (tmp_path / "ch" / name).is_file()
    rep = json.loads((tmp_path / "ch" / "report.json").read_text())
    assert rep["n_pois"] == 4 and rep["n_users"] == 3

    out, _ = ok(
        ["validate", tmp_path / "d", "--model", "markov:1",
         "--scheme", "block_rolling:k=10,p=1",
         "--out", tmp_path / "val" / "folds.csv"],
        capsys,
    )
    assert "markov_1 under block_rolling:k=10,p=1" in out
    assert "leakage-free" in out
    header = (tmp_path / "val" / "folds.csv").read_text().splitlines()[0]
    assert header == ",".join(FOLDS_CSV_COLUMNS)
    results = json.loads((tmp_path / "val" / "results.json").read_text())
    assert results["model"] == "markov_1"
    assert results["leaky"] is False

    out, _ = ok(
        ["sensitivity", tmp_path / "d", "--model", "top_frequency",
         "--out", tmp_path / "sens" / "table.csv"],
        capsys,
    )
    assert "spread across schemes:" in out
    sens = json.loads((tmp_path / "sens" / "sensitivity.json").read_text())
    assert len(sens["rows"]) == 6
    assert all(row["leaky"] for row in sens["rows"])

    out, _ = ok(
        ["recommend", tmp_path / "ch" / "report.json",
         "--out", tmp_path / "rec" / "recommendation.json"],
        capsys,
    )
    assert "verdict: markov_class" in out
    rec = json.loads(
        (tmp_path / "rec" / "recommendation.json").read_text()
    )
    assert rec["verdict"] == "markov_class"

    out, _ = ok(
        ["report", tmp_path / "d",
         "--characterization", tmp_path / "ch" / "report.json",
         "--validation", tmp_path / "val" / "results.json",
         "--recommendation", tmp_path / "rec" / "recommendation.json",
         "--sensitivity", tmp_path / "sens" / "sensitivity.json",
         "--out", tmp_path / "bundle"],
        capsys,
    )
    assert out.startswith("dataset")
    summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
    assert summary["validation"]["present"] is True
    assert len(summary["validation"]["results"]) == 1
    table = (tmp_path / "bundle" / "table.txt").read_text()
    assert "markov_1 under block_rolling:k=10,p=1" in table
    assert (tmp_path / "bundle" / "fold_curve.csv").is_file()


def test_rerun_byte_identical_except_manifest(tmp_path, capsys):
    t = write_zero_diag_transition(tmp_path)
    for sub in ("a", "b"):
        ok(
            ["synth", "--kind", "markov_order_k", "--transition", t,
             "--n", 1500, "--users", 2, "--seed", 13,
             "--out", tmp_path / sub / "d"],
            capsys,
        )
        ok(
            ["characterize", tmp_path / sub / "d", "--dmax", 5,
             "--out", tmp_path / sub / "ch" / "report.json"],
            capsys,
        )
    assert tree_bytes(tmp_path / "a" / "d") == tree_bytes(tmp_path / "b" / "d")
    assert tree_bytes(tmp_path / "a" / "ch") == tree_bytes(
        tmp_path / "b" / "ch"
    )
    # wall time differs between runs, so the manifest is the one exception
    assert (tmp_path / "a" / "d" / "run_manifest.json").is_file()


# sha256 of characterize's artifacts (--dmax 20) on two seeded 3-user
# datasets, so the separator paths run: a rewrite of any kernel behind
# them must reproduce these bytes exactly.
CHARACTERIZE_PINS = {
    "copy_with_gap": (
        ["--kind", "copy_with_gap", "--k", 6, "--eps", 0.05,
         "--n", 1500, "--users", 3, "--seed", 11],
        {
            "report.json": "8a8dda01090ff507abab1552c967e56a"
                           "d2da6163d965b40ffea9777997d96170",
            "mi_curve.csv": "350b5e4edea6bce5dc98207a79290801"
                            "cb4d9bf36731b2fd882ea7379312ee44",
            "match_structure.csv": "3e551943d3dc848392a6695832d6ae24"
                                   "d198e39b91705a900c4a1116eff63493",
            "corr_matrix.csv": "5a366377454590ca5c8757efd7c6494b"
                               "e4f042eb29f6043bcb55271538d2acb9",
        },
    ),
    "iid_k300": (
        ["--kind", "iid", "--alphabet-size", 300, "--n", 3000,
         "--users", 3, "--seed", 12],
        {
            "report.json": "927b4850c86c80243aa5b0668b476150"
                           "89bd1af0c9b609326412b10341cac44d",
            "mi_curve.csv": "cf519e2c46b7848cf1939d3488a8efe5"
                            "9c9e753c869fddc965ab8178a401ccd7",
            "match_structure.csv": "ac00984a3b9274fbc29b4b8ef8e5eff0"
                                   "50b3ac5d758196b9b1bd5f37beca0203",
            "corr_matrix.csv": "a6a4c8c0ee782d60910fa84ca90d93e1"
                               "f5c62343435108d3673453bcb84429d7",
        },
    ),
}


@pytest.mark.parametrize("case", CHARACTERIZE_PINS)
def test_characterize_bytes_pinned(tmp_path, capsys, case):
    synth_args, pins = CHARACTERIZE_PINS[case]
    ok(["synth", *synth_args, "--out", tmp_path / "d"], capsys)
    ok(["characterize", tmp_path / "d", "--dmax", 20,
        "--out", tmp_path / "ch" / "report.json"], capsys)
    got = {
        name: hashlib.sha256((tmp_path / "ch" / name).read_bytes()).hexdigest()
        for name in pins
    }
    assert got == pins


# sha256 of validate's, sensitivity's and report's artifacts on a seeded
# 3-user dataset, and the dataset_hash every manifest of the chain records:
# a rewrite of the CSV writer or the digest must reproduce these exactly.
WRITER_PINS = {
    "val/folds.csv": "01da745c8a235c56165d726d95a37564"
                     "629d1d389b6b44642c900e110975c2d9",
    "val/results.json": "198314c7af8d2db6bdb7b0b4613dee0e"
                        "c78a8070ff59b70cc11f24a05b5a6101",
    "sens/table.csv": "5bc4b11cbfb2c254d398d9c1ae6c82db"
                      "1c7a424393bcb2a0102e0e304dd16d5f",
    "sens/sensitivity.json": "5382f9206a703652c9a47aefed1adb2f"
                             "a23a1a8ef8e3f9f724a92a511f94e90b",
    "bundle/fold_curve.csv": "77359fef1091b412cda1e46043dd70e3"
                             "3b235d0d7dce560de7d9ace8c0f80fe6",
    "bundle/compression.csv": "dde153bddd01c93beccc2f4ca477b58f"
                              "697e738ab6e47d5fa9be1b1137538256",
    "bundle/summary.json": "a71c2f43512e408000eaf4d7a0f6e334"
                           "c3838afde6f09ff9c8efad359626e981",
}
WRITER_DATASET_HASH = ("sha256:99f773ebad947a9d0050d01f2a6d744a"
                       "34c96f5606c83df2942440c6f6514cd7")


def test_writer_bytes_pinned(tmp_path, capsys):
    d = tmp_path / "d"
    ok(["synth", "--kind", "copy_with_gap", "--k", 3, "--eps", 0.1,
        "--n", 400, "--users", 3, "--seed", 11, "--out", d], capsys)
    ok(["characterize", d, "--dmax", 8,
        "--out", tmp_path / "ch" / "report.json"], capsys)
    ok(["validate", d, "--model", "markov:2",
        "--scheme", "kfold:k=3,shuffled=true", "--seed", 4,
        "--out", tmp_path / "val" / "folds.csv"], capsys)
    ok(["validate", d, "--model", "top_frequency",
        "--scheme", "holdout:split=0.7",
        "--out", tmp_path / "top" / "folds.csv"], capsys)
    ok(["sensitivity", d, "--model", "markov:1",
        "--out", tmp_path / "sens" / "table.csv"], capsys)
    ok(["report", d, "--characterization", tmp_path / "ch" / "report.json",
        "--validation", tmp_path / "val" / "results.json",
        tmp_path / "top" / "results.json",
        "--sensitivity", tmp_path / "sens" / "sensitivity.json",
        "--out", tmp_path / "bundle"], capsys)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in WRITER_PINS
    }
    assert got == WRITER_PINS
    for directory in (d, "ch", "val", "top", "sens", "bundle"):
        assert read_manifest(tmp_path / directory)["dataset_hash"] == (
            WRITER_DATASET_HASH
        )


# sha256 of the artifacts written from a record's fields (FoldResult and
# EvaluationResult, SensitivityRow, Recommendation, IngestReport and
# PoiRecord): writing them another way must reproduce these bytes.
RECORD_PINS = {
    "m2/results.json": "0ed2ae8664ef8bf8bf191b8de0bf6ec3"
                       "afb6da9d309f68c5dcbf29f8d9f0715e",
    "m2/folds.csv": "a51ab50aa37bdf1dfb5c7bb99c45d2f9"
                    "b5836ff9f2405a443100cdec457d427e",
    "mmc/results.json": "8cf501bc4a8f7d11c0aa2109d0db24f0"
                        "0ae58a0d18583a4f103109ab4d871b14",
    "mmc/folds.csv": "0ce4020675d749cd995ec96031da3e23"
                     "fc1e7ec27e3cf7e7a5efd38ffed8ebf5",
    "sens/sensitivity.json": "4dde9f63fd796aae43c8b4a94db4b91d"
                             "4a7cfd92889f5b058589eeb3e98e41cc",
    "sens/table.csv": "79a9d2f8ed2b141835fcc063ab4338e0"
                      "286376a82b234e8f409adf585e63c932",
    "rec/recommendation.json": "42f85ab7754811416436ca0009a204fd"
                               "4c20ab9ff512fde65b842a49b03f5c0e",
    "d/alphabet.json": "49f6e61b54a8c57395c85e96ecdf5350"
                       "c8cbdf962274736f0563ac05fc4d93df",
    "raw/ingest_report.json": "3bf8b7574107450c3ee10597de34a9b8"
                              "bb4958cb1e45a65664562d0ed2ca7525",
    "ds/alphabet.json": "5eef14bb909344ce04a1ee5dd051f8cb"
                        "573b38f75ae3070014b41bcc335cbf43",
}


def test_record_bytes_pinned(tmp_path, capsys):
    d = tmp_path / "d"
    ok(["synth", "--kind", "copy_with_gap", "--k", 3, "--eps", 0.1,
        "--n", 600, "--users", 3, "--seed", 13, "--out", d], capsys)
    ok(["validate", d, "--model", "markov:2",
        "--scheme", "block_rolling:k=10,p=2",
        "--out", tmp_path / "m2" / "folds.csv"], capsys)
    ok(["validate", d, "--model", "mmc:3", "--scheme", "rolling:k=10",
        "--out", tmp_path / "mmc" / "folds.csv"], capsys)
    ok(["sensitivity", d, "--model", "mmc:3", "--seed", 2,
        "--out", tmp_path / "sens" / "table.csv"], capsys)
    ok(["characterize", d, "--dmax", 8,
        "--out", tmp_path / "ch" / "report.json"], capsys)
    ok(["recommend", tmp_path / "ch" / "report.json",
        "--out", tmp_path / "rec" / "recommendation.json"], capsys)
    # two dwells at each of two places 5 km apart, then a blank line and
    # a repeated fix, which the ingest report lists as rejects
    lat_b = 45.0 + 5000.0 / 111194.92664455873
    rows = [f"u1,{lat},7.0,{120 * i}"
            for i, lat in enumerate(x for x in (45.0, lat_b) * 2
                                    for _ in range(15))]
    src = tmp_path / "fixes.csv"
    src.write_text("\n".join(rows + ["", rows[-1]]) + "\n", encoding="utf-8")
    ok(["ingest", src, "--out", tmp_path / "raw"], capsys)
    ok(["extract-poi", tmp_path / "raw", "--min-visits", 1,
        "--out", tmp_path / "ds"], capsys)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in RECORD_PINS
    }
    assert got == RECORD_PINS


def test_ingest_extract_poi_path(tmp_path, capsys):
    # three dwells (A, B, A) of 15 fixes at 120 s spacing; 5 km apart
    lat_b = 45.0 + 5000.0 / 111194.92664455873
    rows = []
    t = 0
    for lat in (45.0, lat_b, 45.0):
        for _ in range(15):
            rows.append(f"u1,{lat},7.0,{t}")
            t += 120
    rows.insert(20, "")  # blank line lands in rejects, not an error
    src = tmp_path / "fixes.csv"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")

    out, _ = ok(
        ["ingest", src, "--format", "csv_gps", "--out", tmp_path / "raw"],
        capsys,
    )
    assert "45 points from 46 rows (1 rejected)" in out
    rep = json.loads((tmp_path / "raw" / "ingest_report.json").read_text())
    assert rep["rows_read"] == 46
    assert rep["points_kept"] == 45
    assert len(rep["rejects"]) == 1
    assert rep["rows_read"] == rep["points_kept"] + len(rep["rejects"])

    out, _ = ok(
        ["extract-poi", tmp_path / "raw", "--min-visits", 1,
         "--out", tmp_path / "ds"],
        capsys,
    )
    assert "extracted 2 POIs, 1 users" in out
    ds = load_dataset(tmp_path / "ds")
    assert ds.alphabet.size == 2
    assert ds.sequences[0].poi_ids.tolist() == [0, 1, 0]
    m = read_manifest(tmp_path / "ds")
    assert m["command_line"][1] == "extract-poi"


def test_extract_poi_names_the_dataset_after_the_raw_directory(
        tmp_path, capsys, monkeypatch):
    # "." names the working directory, so it writes what the directory's
    # own path does: the same dataset and the same config.  The fixes are
    # dwells at two places 5 km apart, 15 fixes each.
    lat_b = 45.0 + 5000.0 / 111194.92664455873
    src = tmp_path / "fixes.csv"
    src.write_text("".join(f"u1,{lat},7.0,{120 * i}\n" for i, lat in
                           enumerate(x for x in (45.0, lat_b, 45.0)
                                     for _ in range(15))),
                   encoding="utf-8")
    ok(["ingest", src, "--out", tmp_path / "raw"], capsys)
    ok(["extract-poi", tmp_path / "raw", "--min-visits", 1,
        "--out", tmp_path / "a"], capsys)
    monkeypatch.chdir(tmp_path / "raw")
    ok(["extract-poi", ".", "--min-visits", 1, "--out", "../b"], capsys)
    assert load_dataset(tmp_path / "b").name == "raw"
    assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")
    assert (read_manifest(tmp_path / "b")["config_hash"]
            == read_manifest(tmp_path / "a")["config_hash"])


def test_ingest_tz_offset_shifts_timestamps(tmp_path, capsys):
    # --tz-offset alone carries the offset; there is no policy flag
    src = tmp_path / "x.csv"
    src.write_text("u1,45.0,7.0,1000\n", encoding="utf-8")
    ok(["ingest", src, "--tz-offset", 3600, "--out", tmp_path / "raw"],
       capsys)
    raw = json.loads((tmp_path / "raw" / "raw.jsonl").read_text())
    assert raw["points"] == [[45.0, 7.0, 4600]]
    with pytest.raises(SystemExit) as e:
        main(["ingest", str(src), "--tz-policy", "offset_seconds",
              "--out", str(tmp_path / "again")])
    assert e.value.code == 2


# an input of each ingest format, named x so the dataset name is "x"
INGEST_INPUTS = {
    "csv_gps": "u1,45.0,7.0,1000\n",
    "plt_geolife_like": "h\n" * 6 + "45.0,7.0,0,10,40000.5,d,t\n",
    "symbols_jsonl": '{"user_id": "a", "symbols": [[0, 1], [1, 2]]}\n',
}


@pytest.mark.parametrize("fmt, given, reads", [
    ("symbols_jsonl", ["--cols", "user=3,lat=2,lon=1,t=0", "--tz-offset",
                       "3600", "--dedup", "error"], "none"),
    ("symbols_jsonl", ["--tz-offset", "3600"], "none"),
    ("symbols_jsonl", ["--dedup", "drop_equal_timestamp"], "none"),
    ("plt_geolife_like", ["--cols", "user=0,lat=1,lon=2,t=3"],
     "--tz-offset, --dedup"),
], ids=["symbols_jsonl-all", "symbols_jsonl-tz-offset",
        "symbols_jsonl-dedup", "plt_geolife_like-cols"])
def test_ingest_refuses_an_option_its_format_does_not_read(
        tmp_path, capsys, fmt, given, reads):
    # given with its default value too: the format would ignore it
    src = tmp_path / "x.in"
    src.write_text(INGEST_INPUTS[fmt], encoding="utf-8")
    rc = main(["ingest", str(src), "--format", fmt, *given,
               "--out", str(tmp_path / "out")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert (f"usage error: --format {fmt} does not read {given[0]}; "
            f"it reads: {reads}") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt, given, config_hash", [
    ("csv_gps", [],
     "03cea089c5d0d709564354084111326dd2a7b12c2a002ef94bbef56128cf3981"),
    ("csv_gps", ["--cols", "user=0,lat=1,lon=2,t=3", "--tz-offset", "0",
                 "--dedup", "drop_equal_timestamp"],
     "03cea089c5d0d709564354084111326dd2a7b12c2a002ef94bbef56128cf3981"),
    ("plt_geolife_like", [],
     "f58ef47b0d2917dd4baa9852576d827d77160980819ec4b3a7c31d9b9e2e0d43"),
    ("plt_geolife_like", ["--tz-offset", "0"],
     "f58ef47b0d2917dd4baa9852576d827d77160980819ec4b3a7c31d9b9e2e0d43"),
    ("symbols_jsonl", [],
     "d04b8cd7c75f52dd7191ec3068fb3bab1a4bd872ffced762c5a07aa278e9623a"),
], ids=["csv_gps", "csv_gps-defaults-given", "plt_geolife_like",
        "plt_geolife_like-default-given", "symbols_jsonl"])
def test_ingest_default_config_hash(tmp_path, capsys, fmt, given,
                                    config_hash):
    # the pinned hashes of the default configs: an option left out and one
    # given at its default value configure the same run
    src = tmp_path / "x.in"
    src.write_text(INGEST_INPUTS[fmt], encoding="utf-8")
    ok(["ingest", src, "--format", fmt, *given, "--out", tmp_path / "out"],
       capsys)
    assert read_manifest(tmp_path / "out")["config_hash"] == (
        "sha256:" + config_hash)


def test_ingest_plt_tz_offset_shifts_timestamps(tmp_path, capsys):
    src = tmp_path / "x.plt"
    src.write_text(INGEST_INPUTS["plt_geolife_like"], encoding="utf-8")
    for offset in (0, -3600):
        ok(["ingest", src, "--format", "plt_geolife_like", "--tz-offset",
            offset, "--out", tmp_path / str(offset)], capsys)
    t = [json.loads((tmp_path / d / "raw.jsonl").read_text())["points"][0][2]
         for d in ("0", "-3600")]
    assert t[1] == t[0] - 3600


def test_ingest_symbols_jsonl(tmp_path, capsys):
    src = tmp_path / "sym.jsonl"
    src.write_text(
        json.dumps({"user_id": "a", "symbols": [[0, 1], [1, 2], [0, 3]]})
        + "\n"
        + json.dumps({"user_id": "b", "symbols": [[1, 1], [2, 2]]})
        + "\n",
        encoding="utf-8",
    )
    out, _ = ok(
        ["ingest", src, "--format", "symbols_jsonl",
         "--out", tmp_path / "ds"],
        capsys,
    )
    assert "ingested 2 users, 3 POIs" in out
    assert load_dataset(tmp_path / "ds").n_users == 2


def test_negative_poi_id_in_symbols_jsonl_names_line(tmp_path, capsys):
    src = tmp_path / "neg.jsonl"
    src.write_text(
        json.dumps({"user_id": "a", "symbols": [[0, 1], [1, 2]]}) + "\n"
        + json.dumps({"user_id": "b", "symbols": [[1, 1], [-1, 2]]}) + "\n",
        encoding="utf-8",
    )
    rc = main(["ingest", str(src), "--format", "symbols_jsonl",
               "--out", str(tmp_path / "ds")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "neg.jsonl line 2: user 'b': poi_id -1 not in alphabet" in err


# values a plain int64 conversion would coerce (true to 1, "2" to 2, 1.5 to
# 1, 0.5 to 0): each is named with its line, and the command exits 3
NOT_INTEGERS = {
    "boolean": ([[0, 1], [True, 2]], "poi_id true"),
    "string": ([[0, 1], ["2", 2]], 'poi_id "2"'),
    "fractional poi_id": ([[0, 1], [1.5, 2]], "poi_id 1.5"),
    "fractional t": ([[0, 0.5], [1, 2]], "t 0.5"),
}


@pytest.mark.parametrize("symbols, named", NOT_INTEGERS.values(),
                         ids=NOT_INTEGERS)
def test_symbols_jsonl_not_integer_names_line(tmp_path, capsys, symbols,
                                              named):
    src = tmp_path / "sym.jsonl"
    src.write_text(
        json.dumps({"user_id": "a", "symbols": [[0, 1], [1, 2]]}) + "\n"
        + json.dumps({"user_id": "b", "symbols": symbols}) + "\n",
        encoding="utf-8",
    )
    rc = main(["ingest", str(src), "--format", "symbols_jsonl",
               "--out", str(tmp_path / "ds")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"sym.jsonl line 2: {named} is not an integer" in err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("symbols, named", NOT_INTEGERS.values(),
                         ids=NOT_INTEGERS)
def test_sequences_jsonl_not_integer_names_line(tmp_path, capsys, symbols,
                                                named):
    d = synth_periodic(tmp_path, capsys, users=2)
    path = d / "sequences.jsonl"
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n" + json.dumps(
        {"user_id": "b", "symbols": symbols}) + "\n")
    rc = main(["characterize", str(d), "--out", str(tmp_path / "r.json")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"sequences.jsonl line 2: {named} is not an integer" in err


def test_whole_floats_load_as_integers(tmp_path, capsys):
    # a user_id that holds "true" sends the line through the value-by-value
    # check, which passes integers and whole floats
    src = tmp_path / "sym.jsonl"
    src.write_text(
        json.dumps({"user_id": "true_false", "symbols":
                    [[0, 1.0], [1.0, 2], [2, 3.0e0]]}) + "\n"
        + json.dumps({"user_id": "b", "symbols": [[1.0, 1.0], [0.0, 2.0]]})
        + "\n",
        encoding="utf-8",
    )
    ok(["ingest", src, "--format", "symbols_jsonl", "--out", tmp_path / "ds"],
       capsys)
    ds = load_dataset(tmp_path / "ds")
    assert [s.poi_ids.tolist() for s in ds.sequences] == [[0, 1, 2], [1, 0]]
    assert [s.timestamps.tolist() for s in ds.sequences] == [[1, 2, 3],
                                                             [1, 2]]
    assert all(s.poi_ids.dtype == s.timestamps.dtype == "int64"
               for s in ds.sequences)


# a JSON escape of a lone surrogate decodes to text that UTF-8 cannot
# encode: every loader rejects it at its line, before anything is written
LONE_SURROGATE = "\ud800"


def test_symbols_jsonl_user_id_not_utf8_names_line(tmp_path, capsys):
    src = tmp_path / "sym.jsonl"
    src.write_text(
        json.dumps({"user_id": "a", "symbols": [[0, 1], [1, 2]]}) + "\n"
        + json.dumps({"user_id": LONE_SURROGATE, "symbols": [[1, 1], [0, 2]]})
        + "\n",
        encoding="utf-8",
    )
    rc = main(["ingest", str(src), "--format", "symbols_jsonl",
               "--out", str(tmp_path / "ds")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "sym.jsonl line 2: user_id '\\ud800' is not valid UTF-8" in err
    assert not (tmp_path / "ds").exists()


def test_sequences_jsonl_user_id_not_utf8_names_line(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys, users=2)
    path = d / "sequences.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["user_id"] = LONE_SURROGATE
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["validate", str(d), "--model", "markov:1",
               "--scheme", "holdout:split=0.8",
               "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "sequences.jsonl line 2: user_id '\\ud800' is not valid UTF-8" in err
    assert not (tmp_path / "f.csv").exists()


def test_raw_jsonl_user_id_not_utf8_names_line(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("u1,45.0,7.0,1000\nu1,45.0,7.0,1030\n", encoding="utf-8")
    ok(["ingest", src, "--out", tmp_path / "raw"], capsys)
    path = tmp_path / "raw" / "raw.jsonl"
    obj = json.loads(path.read_text())
    obj["user_id"] = LONE_SURROGATE
    path.write_text(json.dumps(obj) + "\n")
    rc = main(["extract-poi", str(tmp_path / "raw"),
               "--out", str(tmp_path / "pois")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "raw.jsonl line 1: user_id '\\ud800' is not valid UTF-8" in err
    assert not (tmp_path / "pois").exists()


@pytest.mark.parametrize("bad", [-1, 7])
def test_poi_id_outside_alphabet_on_disk_names_line(tmp_path, capsys, bad):
    d = synth_periodic(tmp_path, capsys, users=2)
    path = d / "sequences.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({"user_id": "v", "symbols": [[0, 1], [bad, 2]]})
    path.write_text("\n".join(lines) + "\n")
    rc = main(["characterize", str(d), "--out", str(tmp_path / "r.json")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"sequences.jsonl line 2: user 'v': poi_id {bad} not in" in err


def test_python_dash_m_mobmeta(tmp_path):
    src = str(Path(mobmeta.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "mobmeta", "--help"], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mobmeta")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert __version__ in capsys.readouterr().out


# sha256 of stdout (help) or stderr (errors) at COLUMNS=80, recorded
# before each command got a parser of its own: building one command's
# parser must print exactly what its subparser of the full parser did.
# The two characterize pins were recorded again when its scope flags
# were removed and its other options got help lines; validate -h,
# sensitivity -h and "validate ds" when --concat-users was removed and
# the two commands came to share their predictor arguments; synth -h and
# "synth --n x" when synth --spec was removed; every command's -h when
# the --seed and --out help lines stopped naming MOBMETA_SEED and
# MOBMETA_OUT, which no longer exist; the two characterize pins again
# when its fit, depth and PMI settings became constants; the -h of ingest,
# extract-poi, characterize, recommend and report, "characterize" and
# "ingest x --format nope" when --seed was left to the three commands
# that read it; the -h of ingest and extract-poi and "ingest x --format
# nope" again when their --name was removed.
PARSER_OUTPUT_SHA256 = {
    ("-h",): "7bce9b06ecae00584fc75514dc7ed69cdb5ea59840eb5e79732c799b3402b91a",
    ("ingest", "-h"):
        "e8501070e6812b4ea7bdf6d4525d531989f3296b3bc5922773b9a7cf3fab0413",
    ("extract-poi", "-h"):
        "1e2ec4fa2746efd273c9e3542f73ac71f74dc9899b83b87927a2d67f32ea3e9b",
    ("synth", "-h"):
        "14deda5466ca11fd6abeb6422bd367374637cbb2e4270536ca9ab3d58d1f5ec8",
    ("characterize", "-h"):
        "cd8147bfb9830e8b037d99d6b807a549d6a90d4b2d96b1135688612b7968d403",
    ("validate", "-h"):
        "533202e8de906da09c9bc4bd611c4aee0dfca50058619907fe8b6c53a78273ea",
    ("sensitivity", "-h"):
        "a4d91454baf8d5e83904b9b3a1ca490b789d8fecc49ef713e7726b12d039410c",
    ("recommend", "-h"):
        "a234b9cfe3da7bd9263345fdc7e59e5404fcd09d6fa722a3310a1a4774ed81a3",
    ("report", "-h"):
        "af26510443bcbc27b3ecf8da95881da48562b6ea25ba519fd9b2ca542814ecb1",
    (): "32c64bc09a83846c8e04729b634d4704777296a8c7bc3c519f838a65f1d8cc56",
    ("bogus",):
        "30a382a9159badec07ec8e4c7242ecf49ff6651dfcbc382b4f6e9b12e6ab6b60",
    ("validate", "ds"):
        "1f4371261956c9e6d0ee17baef1605e4a0f7106d9eafed634b83936baa6156f0",
    ("characterize",):
        "122f0686a90e048b045c684c50568a7d624ede94f6f81ed08b40a825254790c2",
    ("ingest", "x", "--format", "nope"):
        "a5045d06f5ba4cf7d6fac7a72361888b4f886a5100e29c8342d7aff5985819ed",
    ("synth", "--n", "x"):
        "75b124578cabd217052b33d5c0b8a6a30c66385e6d5ef8fdb9ad927301616d0e",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="pins hold Python 3.11's argparse formatting")
@pytest.mark.parametrize("argv", PARSER_OUTPUT_SHA256,
                         ids=[" ".join(a) or "none" for a in PARSER_OUTPUT_SHA256])
def test_help_and_usage_errors_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    out, err = capsys.readouterr()
    assert e.value.code == (0 if "-h" in argv else 2)
    assert hashlib.sha256((out + err).encode()).hexdigest() == (
        PARSER_OUTPUT_SHA256[argv]
    )


def _action_fields(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices,
             a.required, a.nargs, a.help) for a in parser._actions]


@pytest.mark.parametrize("name", COMMANDS)
def test_command_parser_equals_full_subparser(name):
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    full = sub.choices[name]
    own = build_parser(name)
    assert own.prog == full.prog == f"mobmeta {name}"
    assert _action_fields(own) == _action_fields(full)
    assert own._defaults == full._defaults == {
        "func": COMMANDS[name].func, "command": name,
    }


def test_command_builds_only_its_own_arguments(tmp_path, capsys,
                                               monkeypatch):
    d = synth_periodic(tmp_path, capsys)
    report = tmp_path / "report.json"
    ok(["characterize", d, "--dmax", 5, "--out", report], capsys)
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def spy(self, *args, **kwargs):
        action = add_argument(self, *args, **kwargs)
        added.append(action.dest)
        return action

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    ok(["recommend", report, "--out", tmp_path / "rec.json"], capsys)
    assert sorted(added) == ["help", "out", "report", "rules"]


def test_unknown_option_is_reported_by_its_command(capsys):
    with pytest.raises(SystemExit) as e:
        main(["synth", "--bogus"])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert err.startswith("usage: mobmeta synth ")
    assert err.endswith(
        "\nmobmeta synth: error: unrecognized arguments: --bogus\n"
    )


@pytest.mark.parametrize("flag, value", [
    ("--pmi-top-k", "-1"), ("--eps-fit", "-0.5"), ("--eps-fit", "nan"),
    ("--eps-depth", "-1"), ("--eps-depth", "inf"), ("--dmax", "0"),
])
def test_characterize_refuses_nonsense_parameters(tmp_path, capsys, flag,
                                                  value):
    # d_max is characterization's one setting: the fit and depth
    # thresholds and the PMI list length are constants, not options
    d = synth_periodic(tmp_path, capsys)
    with pytest.raises(SystemExit) as e:
        main(["characterize", str(d), flag, value,
              "--out", str(tmp_path / "c" / "report.json")])
    _, err = capsys.readouterr()
    assert e.value.code == 2
    if flag == "--dmax":
        assert "error: argument --dmax: must be an integer >= 1" in err
    else:
        assert f"error: unrecognized arguments: {flag} {value}\n" in err
    assert not (tmp_path / "c").exists()


def test_sensitivity_needs_two_schemes(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    rc = main(["sensitivity", str(d), "--model", "markov:1",
               "--schemes", "holdout:split=0.8",
               "--out", str(tmp_path / "t.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "usage error: --schemes needs at least 2 schemes" in err


@pytest.mark.parametrize("command", [
    ["validate", "ds", "--model", "markov:1", "--scheme", "rolling:k=3"],
    ["sensitivity", "ds", "--model", "markov:1"],
])
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_context_window_must_be_positive(capsys, command, value):
    with pytest.raises(SystemExit) as e:
        main(command + ["--context-window", value])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert (f"error: argument --context-window: must be an integer >= 1, "
            f"got {value!r}") in err


# the reference external predictor, answering as markov:1 over 3 POIs
EXTPRED_CMD = shlex.join([sys.executable, "-m", "mobmeta.extpred",
                          "--model", "markov:1", "--alphabet-size", "3"])


def test_sensitivity_default_grid_takes_context_window(tmp_path, capsys,
                                                      monkeypatch):
    d = synth_periodic(tmp_path, capsys)
    seen = []
    sensitivity = cli.validation_sensitivity

    def spy(ds, spec, plans):
        seen.extend(plans)
        return sensitivity(ds, spec, plans)

    monkeypatch.setattr(cli, "validation_sensitivity", spy)
    ok(["sensitivity", d, "--model", "external", "--external-cmd",
        EXTPRED_CMD, "--context-window", 5, "--out", tmp_path / "t.csv"],
       capsys)
    assert len(seen) == 6
    assert {plan.external_context_window for plan in seen} == {5}


def test_sensitivity_config_hash_records_context_window(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    base = ["sensitivity", d, "--model", "external", "--external-cmd",
            EXTPRED_CMD, "--schemes", "holdout:split=0.8;kfold:k=3"]
    hashes = []
    for i, extra in enumerate(([], ["--context-window", 5])):
        ok(base + extra + ["--out", tmp_path / f"s{i}" / "t.csv"], capsys)
        hashes.append(read_manifest(tmp_path / f"s{i}")["config_hash"])
    assert len(set(hashes)) == 2


@pytest.mark.parametrize("command", [
    ["validate", "--scheme", "rolling:k=3"],
    ["sensitivity"],
])
def test_concat_users_is_gone(tmp_path, capsys, command):
    # each user is split on their own stream: joined end to end, a
    # time-ordered fold could train on one user's later visits and test
    # another's earlier ones
    d = synth_periodic(tmp_path, capsys)
    out = tmp_path / "v"
    with pytest.raises(SystemExit) as e:
        main([command[0], str(d), "--model", "markov:1", *command[1:],
              "--concat-users", "--out", str(out / "f.csv")])
    assert e.value.code == 2
    assert "unrecognized arguments: --concat-users" in (
        capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(cli.UsageError, match="own stream"):
        cli.parse_scheme_arg("rolling:k=4", 0, False, 64)


@pytest.mark.parametrize("command", [
    ["ingest", "{csv}"],
    ["extract-poi", "{raw}"],
    ["characterize", "{data}"],
    ["recommend", "{report}"],
    ["report", "{data}", "--characterization", "{report}"],
], ids=lambda command: command[0])
def test_seed_is_refused_by_a_command_that_does_not_read_it(tmp_path, capsys,
                                                           command):
    # only synth, validate and sensitivity read --seed; these commands ran
    # the same whatever seed was given, and their manifests recorded none
    data = synth_periodic(tmp_path, capsys)
    csv = tmp_path / "fixes.csv"
    csv.write_text("u0,0.0,0.0,0\nu0,0.0,0.0,3000\n", encoding="utf-8")
    ok(["ingest", csv, "--out", tmp_path / "raw"], capsys)
    report = tmp_path / "c" / "report.json"
    ok(["characterize", data, "--out", report], capsys)
    argv = [a.format(csv=csv, raw=tmp_path / "raw", data=data, report=report)
            for a in command]
    before = disk_state(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv + ["--seed", "99", "--out", str(tmp_path / "o")])
    assert e.value.code == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
    assert disk_state(tmp_path) == before


@pytest.mark.parametrize("text, shuffled", [
    ("true", True), ("TRUE", True), ("1", True), ("Yes", True),
    ("false", False), ("False", False), ("0", False), ("NO", False),
])
def test_scheme_shuffled_spellings(text, shuffled):
    plan = cli.parse_scheme_arg(f"kfold:k=5,shuffled={text}", 0, True, 64)
    assert plan.shuffled is shuffled


@pytest.mark.parametrize("text", ["ture", "", "2", "on"])
def test_scheme_shuffled_typo_is_usage_error(tmp_path, capsys, text):
    d = synth_periodic(tmp_path, capsys)
    rc = main(["validate", str(d), "--model", "markov:1",
               "--scheme", f"kfold:k=5,shuffled={text}",
               "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "bad value for 'shuffled'" in err
    assert not (tmp_path / "f.csv").exists()


def test_characterize_options(capsys):
    # one scope per statistic: no option switches scopes, and an option
    # the parser does not know is a usage error
    assert [a.dest for a in build_parser("characterize")._actions] == [
        "help", "out", "dataset_dir", "dmax",
    ]
    with pytest.raises(SystemExit) as e:
        main(["characterize", "d", "--scope", "per_user"])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_non_finite_rule_threshold_exits_3(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    ok(["characterize", d, "--out", tmp_path / "c" / "report.json"], capsys)
    rules = tmp_path / "rules.json"
    rules.write_text('{"rules": [{"name": "R1", "when": {"mi_lt": NaN}, '
                     '"verdict": "markov_class"}, '
                     '{"verdict": "hm_rnn_class"}]}')
    rc = main(["recommend", str(tmp_path / "c" / "report.json"),
               "--rules", str(rules), "--out", str(tmp_path / "r")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "rule 'R1': threshold of 'mi_lt' must be a finite number" in err


@pytest.mark.parametrize("rules, named", [
    ('{"rules": [5]}', "rule 0 must be a JSON object, got 5"),
    ('{"rules": [{"name": "R1", "when": [1, 2], "verdict": "markov_class"}, '
     '{"verdict": "hm_rnn_class"}]}',
     "rule 'R1': \"when\" must be a JSON object, got [1, 2]"),
], ids=["rule", "when"])
def test_rule_that_is_not_an_object_exits_3(tmp_path, capsys, rules, named):
    d = synth_periodic(tmp_path, capsys)
    ok(["characterize", d, "--out", tmp_path / "c" / "report.json"], capsys)
    path = tmp_path / "rules.json"
    path.write_text(rules)
    rc = main(["recommend", str(tmp_path / "c" / "report.json"),
               "--rules", str(path), "--out", str(tmp_path / "r")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {path}: {named}" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("field, value", [
    ("ldd_depth", "x"), ("pois_per_user_mean", True),
])
def test_report_attribute_that_is_not_a_number_exits_3(tmp_path, capsys,
                                                       field, value):
    d = synth_periodic(tmp_path, capsys)
    path = tmp_path / "c" / "report.json"
    ok(["characterize", d, "--out", path], capsys)
    report = json.loads(path.read_text())
    report[field] = value
    path.write_text(json.dumps(report))
    rc = main(["recommend", str(path), "--out", str(tmp_path / "r")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert (f"data error: {path}: malformed characterization report: "
            f"{field} must be a number, got {value!r}") in err
    assert not (tmp_path / "r").exists()


def test_raw_value_of_wrong_type_exits_3(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("u1,45.0,7.0,1000\nu1,45.0,7.0,1030\n", encoding="utf-8")
    ok(["ingest", src, "--out", tmp_path / "raw"], capsys)
    path = tmp_path / "raw" / "raw.jsonl"
    path.write_text(path.read_text().replace("1030]", "1030.5]"))
    rc = main(["extract-poi", str(tmp_path / "raw"),
               "--out", str(tmp_path / "pois")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "raw.jsonl line 1: t 1030.5 is not an integer" in err
    assert not (tmp_path / "pois").exists()


def test_bad_model_order_is_usage_error(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    rc = main(["validate", str(d), "--model", "markov:9",
               "--scheme", "holdout:split=0.8", "--out",
               str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "usage error" in err and "order" in err


def test_bad_scheme_parameter_is_usage_error(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    rc = main(["validate", str(d), "--model", "markov:1",
               "--scheme", "block_rolling:k=10,q=1",
               "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "bad scheme parameter" in err
    # a repeat would silently override the first value
    rc = main(["validate", str(d), "--model", "markov:1",
               "--scheme", "block_rolling:p=1,k=4,p=2",
               "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert ("usage error: scheme parameter 'p' given twice in "
            "'block_rolling:p=1,k=4,p=2'") in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("scheme, unread, reads", [
    ("holdout:split=0.7,k=3,iterations=5", "k", "split"),
    ("kfold:k=3,p=1", "p", "k, shuffled"),
    ("leave_one_out:k=3", "k", "none"),
    ("bootstrap:iterations=5,split=0.5", "split", "iterations"),
    ("rolling:k=3,p=1", "p", "k"),
    ("block_rolling:k=5,p=1,shuffled=true", "shuffled", "k, p"),
    ("window10_cumulative:k=3", "k", "none"),
])
def test_scheme_parameter_the_scheme_does_not_read_is_usage_error(
        tmp_path, capsys, scheme, unread, reads):
    d = synth_periodic(tmp_path, capsys)
    rc = main(["validate", str(d), "--model", "markov:1",
               "--scheme", scheme, "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    name = scheme.partition(":")[0]
    assert (f"usage error: scheme {name} does not read parameter "
            f"{unread!r} (in {scheme!r}); it reads: {reads}") in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("scheme", [
    "holdout:split=0.7", "kfold:k=5,shuffled=false", "leave_one_out",
    "bootstrap:iterations=7", "rolling:k=4", "block_rolling:k=5,p=2",
    "window10_cumulative",
])
def test_scheme_label_shows_every_parameter_it_reads(scheme):
    assert cli.parse_scheme_arg(scheme, 0, True, 64).label == scheme


def assert_cols_refused(tmp_path, capsys, cols, message):
    with pytest.raises(cli.UsageError, match=message):
        cli.parse_cols(cols)
    src = tmp_path / "x.csv"
    src.write_text("u1,45.0,7.0,1000\n", encoding="utf-8")
    rc = main(["ingest", str(src), "--cols", cols,
               "--out", str(tmp_path / "raw")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert f"usage error: {message}" in err
    assert not (tmp_path / "raw").exists()


@pytest.mark.parametrize("cols, entry", [
    ("user=0,lat=1,lon=2,t=-1,foo=7", "'t=-1'"),
    ("user=0,lat=1,lon=2,t=3,foo=7", "'foo=7'"),
    ("user=0,lat=-2,lon=2,t=3", "'lat=-2'"),
    ("user=0,user=5,lat=1,lon=2,t=3", "'user=5': column 'user' given twice"),
])
def test_cols_refuses_negative_index_and_unknown_name(tmp_path, capsys,
                                                      cols, entry):
    assert_cols_refused(tmp_path, capsys, cols, f"--cols entry {entry}")


def test_cols_refuses_a_missing_column(tmp_path, capsys):
    # a usage error (exit 2), not the data error of IngestConfig (exit 3)
    assert_cols_refused(tmp_path, capsys, "user=0,lat=1",
                        "--cols 'user=0,lat=1' has no index for column lon, t")


def test_report_manifest_lists_only_the_files_of_its_run(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    ok(["characterize", d, "--out", tmp_path / "c" / "report.json"], capsys)
    ok(["validate", d, "--model", "markov:1", "--scheme", "rolling:k=4",
        "--out", tmp_path / "v" / "folds.csv"], capsys)
    b = tmp_path / "b"
    report = ["report", d, "--characterization", tmp_path / "c" / "report.json",
              "--out", b]
    ok(report + ["--validation", tmp_path / "v" / "results.json"], capsys)
    bundle = {"summary.json", "table.txt", "mi_curve.csv",
              "fold_curve.csv", "compression.csv"}
    assert {Path(p).name for p in read_manifest(b)["outputs"]} == bundle
    ok(report, capsys)
    assert {Path(p).name for p in read_manifest(b)["outputs"]} == bundle
    summary = json.loads((b / "summary.json").read_text())
    assert summary["validation"]["present"] is False
    # without validation both CSVs are rewritten with their header only,
    # so none of the first run's rows are left beside the new summary
    assert (b / "fold_curve.csv").read_text() == "model,plan,fold,accuracy\n"
    assert (b / "compression.csv").read_text() == (
        "model,plan,bits_weighted,bits_user_mean\n")
    assert {p.name for p in b.iterdir()} == bundle | {"run_manifest.json"}


@pytest.mark.parametrize("args, files, named", [
    (["--validation", "c/report.json"], {},
     "c/report.json: not a validation results.json"),
    (["--characterization", "d/meta.json"], {},
     "d/meta.json: malformed characterization report: 'per_user'"),
    (["--validation", "r.json"],
     {"r.json": '{"model": "m", "plan": "p", "leaky": false, '
                '"accuracy_user_mean": 0.5, "accuracy_weighted": 0.5, '
                '"n_predictions": 4, "fold_curve": 5}'},
     "r.json: fold_curve must be a list of [fold, accuracy] pairs"),
    (["--sensitivity", "s.json"], {"s.json": '{"schemes": []}'},
     "s.json: not a sensitivity.json"),
    (["--sensitivity", "s.json"], {"s.json": '{"rows": 5}'},
     "s.json: not a sensitivity.json"),
    (["--validation", "v/broken.json"], {"v/broken.json": "{"},
     "v/broken.json: Expecting property name enclosed in double quotes"),
    # inputs that summary.schema.json rejects
    (["--recommendation", "rec.json"], {"rec.json": "[1, 2]"},
     "rec.json: not a recommendation.json, which has the keys verdict, "
     "fired_rule, trace"),
    (["--validation", "r.json"],
     {"r.json": '{"model": "m", "plan": "p", "accuracy_user_mean": 0.5, '
                '"accuracy_weighted": 0.5}'},
     "r.json: not a validation results.json, which has the keys model, "
     "plan, leaky, accuracy_user_mean, accuracy_weighted, n_predictions"),
    (["--sensitivity", "s.json"], {"s.json": '{"rows": [1, "x"]}'},
     "s.json: not a sensitivity.json, whose rows are a list of objects"),
], ids=["validation-is-a-report", "characterization-is-meta",
        "fold-curve-not-pairs", "sensitivity-without-rows",
        "rows-not-a-list", "validation-not-json", "recommendation-not-object",
        "results-without-leaky", "rows-not-objects"])
def test_report_refuses_a_malformed_input_and_writes_nothing(
    tmp_path, capsys, args, files, named
):
    d = synth_periodic(tmp_path, capsys)
    ok(["characterize", d, "--out", tmp_path / "c" / "report.json"], capsys)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    rc = main(["report", str(d),
               "--characterization", str(tmp_path / "c" / "report.json"),
               args[0], str(tmp_path / args[1]),
               "--out", str(tmp_path / "b")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {tmp_path}/{named}" in err
    assert err.count(str(tmp_path / args[1])) == 1
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("data, named", [
    (b"{", "Expecting property name enclosed in double quotes"),
    (b'{"x": "\xff"}', "can't decode byte 0xff"),
], ids=["not-json", "not-utf8"])
def test_recommend_input_that_is_not_json_exits_3(tmp_path, capsys, data,
                                                  named):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    rc = main(["recommend", str(path), "--out", str(tmp_path / "r")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {path}: " in err and named in err
    assert err.count(str(path)) == 1
    assert not (tmp_path / "r").exists()


def test_characterize_default_config_hash(tmp_path, capsys):
    # the hash of the default config, {"d_max": 100}; renaming its key or
    # changing how the config is serialized shows here
    d = synth_periodic(tmp_path, capsys)
    ok(["characterize", d, "--out", tmp_path / "c" / "report.json"], capsys)
    assert read_manifest(tmp_path / "c")["config_hash"] == (
        "sha256:bdb1c3796f7afc8f47bd7f944a841f0ed696118c74ea2dd503fb2a74decf4032"
    )


def test_external_model_requires_command(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    rc = main(["validate", str(d), "--model", "external",
               "--scheme", "holdout:split=0.8",
               "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "needs --external-cmd" in err


@pytest.mark.parametrize("command", [
    ["validate", "--scheme", "rolling:k=5"], ["sensitivity"],
], ids=["validate", "sensitivity"])
@pytest.mark.parametrize("given", [
    ["--context-window", "3"], ["--external-cmd", "false"],
], ids=["context-window", "external-cmd"])
def test_native_model_refuses_the_external_options(tmp_path, capsys, command,
                                                   given):
    d = synth_periodic(tmp_path, capsys)
    rc = main([command[0], str(d), "--model", "markov:1", *command[1:],
               *given, "--out", str(tmp_path / "v" / "out.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert (f"usage error: --model markov:1 does not read {given[0]}; "
            f"it reads: none") in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command, out", [
    (["characterize", "{data}"], "c/mi_curve.csv"),
    (["characterize", "{data}"], "c/run_manifest.json"),
    (["validate", "{data}", "--model", "markov:1", "--scheme", "rolling:k=4"],
     "v/results.json"),
    (["sensitivity", "{data}", "--model", "markov:1"], "s/sensitivity.json"),
    (["recommend", "{data}/report.json"], "r/run_manifest.json"),
], ids=["characterize", "characterize-manifest", "validate", "sensitivity",
        "recommend"])
def test_out_named_like_a_file_written_beside_it_exits_2(tmp_path, capsys,
                                                         command, out):
    # the input does not exist: the --out is refused before any is read
    argv = [a.format(data=tmp_path / "missing") for a in command]
    rc = main(argv + ["--out", str(tmp_path / out)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert (f"usage error: --out {tmp_path / out}: {command[0]} writes its "
            f"own {Path(out).name} beside it") in err
    assert not (tmp_path / out).parent.exists()


@pytest.mark.parametrize("command", [
    ["synth", "--kind", "periodic", "--pattern", "0,1,2", "--n", "60"],
    ["ingest", "{csv}"],
    ["extract-poi", "{raw}"],
    ["report", "{data}", "--characterization", "{report}"],
    ["characterize", "{data}"],
    ["validate", "{data}", "--model", "markov:1", "--scheme", "rolling:k=4"],
    ["sensitivity", "{data}", "--model", "markov:1"],
    ["recommend", "{report}"],
], ids=lambda command: command[0])
def test_out_of_the_wrong_kind_exits_2_before_any_work(tmp_path, capsys,
                                                       command):
    # a command that writes a directory refuses an --out that is a file,
    # and one that writes a file refuses a directory, naming it before it
    # reads any input
    data = synth_periodic(tmp_path, capsys)
    csv = tmp_path / "fixes.csv"
    csv.write_text("u0,0.0,0.0,0\nu0,0.0,0.0,3000\n", encoding="utf-8")
    ok(["ingest", csv, "--out", tmp_path / "raw"], capsys)
    ok(["characterize", data, "--out", tmp_path / "c" / "report.json"],
       capsys)
    argv = [a.format(csv=csv, raw=tmp_path / "raw", data=data,
                     report=tmp_path / "c" / "report.json") for a in command]
    taken = tmp_path / "taken"
    writes_a_directory = command[0] in ("synth", "ingest", "extract-poi",
                                        "report")
    if writes_a_directory:
        taken.write_text("kept", encoding="utf-8")
    else:
        taken.mkdir()
    rc = main(argv + ["--out", str(taken)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith(f"usage error: --out {taken} ")
    assert out == ""
    if writes_a_directory:
        assert taken.read_text(encoding="utf-8") == "kept"
    else:
        assert list(taken.iterdir()) == []


@pytest.mark.parametrize("command, out, blocked", [
    (["characterize", "{missing}"], "report.json", "mi_curve.csv"),
    (["characterize", "{missing}"], "report.json", "match_structure.csv"),
    (["characterize", "{missing}"], "report.json", "corr_matrix.csv"),
    (["characterize", "{missing}"], "report.json", "run_manifest.json"),
    (["validate", "{missing}", "--model", "markov:1", "--scheme",
      "rolling:k=4"], "folds.csv", "results.json"),
    (["sensitivity", "{missing}", "--model", "markov:1"], "table.csv",
     "sensitivity.json"),
    (["validate", "{missing}", "--model", "markov:1", "--scheme",
      "rolling:k=4"], "folds.csv", None),
    # a directory --out, with the files written inside it
    (["synth", "--kind", "markov_order_k", "--transition", "{missing}"],
     "data", None),
    (["synth", "--kind", "markov_order_k", "--transition", "{missing}"],
     "data", "data/ground_truth.json"),
    (["ingest", "{missing}"], "raw", None),
    (["ingest", "{missing}"], "raw", "raw/raw.jsonl"),
    (["extract-poi", "{missing}"], "data", None),
    (["extract-poi", "{missing}"], "data", "data/alphabet.json"),
    (["report", "{missing}", "--characterization", "{missing}"], "bundle",
     None),
    (["report", "{missing}", "--characterization", "{missing}"], "bundle",
     "bundle/summary.json"),
    (["report", "{missing}", "--characterization", "{missing}"], "bundle",
     "bundle/run_manifest.json"),
], ids=["mi_curve", "match_structure", "corr_matrix", "manifest", "results",
        "sensitivity", "parent-is-a-file", "synth-parent-is-a-file",
        "synth-ground_truth", "ingest-parent-is-a-file", "ingest-raw",
        "extract-poi-parent-is-a-file", "extract-poi-alphabet",
        "report-parent-is-a-file", "report-summary", "report-manifest"])
def test_out_that_could_not_be_written_exits_2_before_any_work(
        tmp_path, capsys, command, out, blocked):
    # a file the command writes that is a directory, or a parent of --out
    # that is a file, is refused before any input is read: the input does
    # not exist, so reading it would exit 3
    parent = tmp_path / "o"
    if blocked is None:
        parent.write_text("kept", encoding="utf-8")
        named = parent
    else:
        (parent / blocked).mkdir(parents=True)
        named = parent / blocked
    before = disk_state(tmp_path)
    argv = [a.format(missing=tmp_path / "missing") for a in command]
    rc = main(argv + ["--out", str(parent / out)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith(f"usage error: --out {parent / out}: {named} ")
    assert stdout == ""
    assert disk_state(tmp_path) == before


def readme_chain():
    """The README's command chain, from its synth through its report."""
    commands = readme_commands()
    names = [argv[1] for argv in commands]
    start = names.index("synth")
    return [argv[1:] for argv in
            commands[start:names.index("report", start) + 1]]


def write_gps_and_symbols(directory):
    """fixes.csv (two dwells 5 km apart, one user) and sym.jsonl."""
    lat_b = 45.0 + 5000.0 / 111194.92664455873
    (directory / "fixes.csv").write_text(
        "".join(f"u1,{lat},7.0,{120 * (15 * i + j)}\n"
                for i, lat in enumerate((45.0, lat_b, 45.0))
                for j in range(15)),
        encoding="utf-8")
    (directory / "sym.jsonl").write_text(
        json.dumps({"user_id": "a", "symbols": [[0, 1], [1, 2], [0, 3]]})
        + "\n", encoding="utf-8")


@pytest.mark.parametrize("chain", [
    readme_chain(),
    [["ingest", "fixes.csv", "--format", "csv_gps", "--out", "raw"],
     ["extract-poi", "raw", "--min-visits", "1", "--out", "pois"]],
    [["ingest", "sym.jsonl", "--format", "symbols_jsonl", "--out", "ds"]],
], ids=["readme", "ingest-csv_gps-extract-poi", "ingest-symbols_jsonl"])
def test_manifest_outputs_are_the_files_its_command_wrote(
        tmp_path, capsys, monkeypatch, chain):
    # every file a command creates or rewrites, but its manifest, and
    # nothing else: each older file's mtime is set to 0 before a command,
    # so a file it writes is one that is new or has a later mtime
    monkeypatch.chdir(tmp_path)
    write_gps_and_symbols(tmp_path)
    for argv in chain:
        for p in tmp_path.rglob("*"):
            os.utime(p, ns=(0, 0))
        ok(argv, capsys)
        written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                   if p.is_file() and p.stat().st_mtime_ns != 0}
        (manifest,) = [p for p in written if p.endswith("run_manifest.json")]
        outputs = json.loads(Path(manifest).read_text())["outputs"]
        assert outputs == sorted(written - {manifest}), argv[0]


# answers every PREDICT with POI 0, but sleeps instead of exiting once its
# stdin closes
LINGERING_PREDICTOR = textwrap.dedent("""\
    import sys, time
    for line in sys.stdin:
        word, count = line.split()
        for _ in range(int(count)):
            sys.stdin.readline()
        if word == "PREDICT":
            print(0, flush=True)
    time.sleep(30)
""")


def run_external(tmp_path, capsys, script_text, scheme, n=120,
                 python_flags=()):
    script = tmp_path / "predictor.py"
    script.write_text(script_text, encoding="utf-8")
    d = synth_periodic(tmp_path, capsys, users=1, n=n)
    cmd = shlex.join([sys.executable, *python_flags, str(script)])
    t0 = time.perf_counter()
    rc = main(["validate", str(d), "--model", "external",
               "--external-cmd", cmd, "--scheme", scheme,
               "--out", str(tmp_path / "f.csv")])
    elapsed = time.perf_counter() - t0
    _, err = capsys.readouterr()
    return rc, err, str(script), elapsed


# puts all its probability on POI 0, so a true POI 1 or 2 gets 0
CERTAIN_PREDICTOR = textwrap.dedent("""\
    import sys
    for line in sys.stdin:
        word, count = line.split()
        for _ in range(int(count)):
            sys.stdin.readline()
        if word == "PREDICT":
            print("0 1.0 0.0 0.0", flush=True)
""")


@pytest.mark.parametrize("command", [
    ["validate", "--scheme", "holdout:split=0.8"], ["sensitivity"],
], ids=["validate", "sensitivity"])
def test_zero_probability_of_the_truth_is_a_protocol_error(
    tmp_path, capsys, command
):
    script = tmp_path / "predictor.py"
    script.write_text(CERTAIN_PREDICTOR, encoding="utf-8")
    d = synth_periodic(tmp_path, capsys, users=1)
    rc = main([*command, str(d), "--model", "external",
               "--external-cmd", shlex.join([sys.executable, str(script)]),
               "--out", str(tmp_path / "out" / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert re.search(
        r"data error: user 'u0000' fold \d+: response line \d+: probability "
        r"0 for the observed poi_id [12], so bits/symbol would be infinite; "
        r"an argmax-only answer \(the poi_id alone\) avoids it", err), err
    assert not (tmp_path / "out").exists()


def test_external_command_that_cannot_start_exits_3(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys, users=1)
    rc = main(["validate", str(d), "--model", "external",
               "--external-cmd", "/nonexistent/pred --x",
               "--scheme", "holdout:split=0.8",
               "--out", str(tmp_path / "out" / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert ("data error: user 'u0000' fold 0: cannot start "
            "/nonexistent/pred --x: ") in err
    assert not (tmp_path / "out").exists()


def test_external_predictor_that_outlives_eof_exits_3(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(predictors, "CLOSE_TIMEOUT_S", 0.3)
    rc, err, script, _ = run_external(tmp_path, capsys, LINGERING_PREDICTOR,
                                      "holdout:split=0.8")
    assert rc == 3
    assert "data error:" in err
    assert "did not exit within 0.3 s" in err
    assert script in err


def test_close_timeout_kills_the_spare_at_once(
    tmp_path, capsys, monkeypatch, spawned
):
    # fold 0's child is reaped after fold 1 and times out there, while the
    # children of folds 1 and 2 are running: they are killed, not given
    # close timeouts of their own
    monkeypatch.setattr(predictors, "CLOSE_TIMEOUT_S", 0.3)
    rc, err, _, elapsed = run_external(
        tmp_path, capsys, LINGERING_PREDICTOR, "block_rolling:k=4,p=1"
    )
    assert rc == 3
    assert "did not exit within 0.3 s" in err
    assert elapsed < 2 * 0.3
    assert len(spawned) == 3
    assert all(p.returncode is not None for p in spawned)


def test_spare_that_dies_reading_train_exits_3(tmp_path, capsys, spawned):
    # under rolling:k=4 fold 0 trains on 30 symbols and later folds on
    # more; an instance given a longer TRAIN block crashes inside it
    script_text = textwrap.dedent("""\
        import sys
        for line in sys.stdin:
            word, count = line.split()
            if word == "TRAIN" and int(count) > 30:
                sys.stdin.readline()
                sys.exit(1)
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                print(0, flush=True)
    """)
    rc, err, _, _ = run_external(tmp_path, capsys, script_text,
                                 "rolling:k=4")
    assert rc == 3
    assert "response line 1" in err
    assert len(spawned) == 3
    assert all(p.returncode is not None for p in spawned)


# Children that break the protocol in one way each, with a pattern of the
# error it must cause.  Every one reads its input line by line and answers
# a PREDICT with POI 0 unless it breaks.
MISBEHAVING = {
    # reads its TRAIN block and first PREDICT, then never answers
    "sleeps_forever": ("""\
        import sys, time
        for _ in range(2):
            word, count = sys.stdin.readline().split()
            for _ in range(int(count)):
                sys.stdin.readline()
        time.sleep(60)
    """, r"predictor\.py made no progress for 0\.3 s waiting for response "
         r"line 1; killed"),
    # the TRAIN block of 16,000 symbols is about 150 kB, more than the
    # pipe buffer takes
    "stops_reading_mid_train": ("""\
        import sys, time
        sys.stdin.buffer.raw.read(1000)
        time.sleep(60)
    """, r"predictor\.py made no progress for 0\.3 s waiting for response "
         r"line 1, \d+ bytes of its input unread; killed"),
    "dies_mid_response": ("""\
        import sys
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                print("boom", file=sys.stderr, flush=True)
                sys.stdout.write("0 0.2")
                sys.exit(1)
    """, r"closed stdout at response line 1\n  stderr: boom"),
    "partial_line_then_silent": ("""\
        import sys, time
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                sys.stdout.write("0")
                sys.stdout.flush()
                time.sleep(60)
    """, r"predictor\.py made no progress for 0\.3 s waiting for response "
         r"line 1; killed"),
    "extra_line_after_last_response": ("""\
        import sys
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                print(0, flush=True)
        print(0, flush=True)
    """, r"wrote past its last response line 4000: b'0\\n'"),
}


@pytest.mark.parametrize("case", sorted(MISBEHAVING))
def test_misbehaving_child_exits_3_within_its_deadline(
    tmp_path, capsys, monkeypatch, spawned, case
):
    script_text, cause = MISBEHAVING[case]
    monkeypatch.setattr(predictors, "REQUEST_TIMEOUT_S", 0.3)
    # -S skips the site import: a child that took longer than the 0.3 s
    # deadline to start reading would leave a TRAIN block larger than the
    # pipe buffer unwritten and be killed for that instead
    rc, err, script, elapsed = run_external(
        tmp_path, capsys, textwrap.dedent(script_text), "holdout:split=0.8",
        n=20_000, python_flags=("-S",),
    )
    assert rc == 3
    assert "data error: user 'u0000' fold 0: " in err
    assert re.search(cause, err), err
    assert elapsed < 0.3 + 1.5
    assert len(spawned) == 1
    assert all(p.returncode is not None for p in spawned)


def test_child_flooding_stderr_completes(tmp_path, capsys, spawned):
    # 1 MiB on stderr before the first read: an undrained stderr pipe
    # would block the child and hang the fold
    script_text = textwrap.dedent("""\
        import sys
        sys.stderr.write(("x" * 1023 + "\\n") * 1024)
        sys.stderr.flush()
        for line in sys.stdin:
            word, count = line.split()
            for _ in range(int(count)):
                sys.stdin.readline()
            if word == "PREDICT":
                print(0, flush=True)
    """)
    rc, err, _, _ = run_external(tmp_path, capsys, script_text,
                                 "block_rolling:k=4,p=1")
    assert rc == 0, err[-500:]
    # each child's stderr reaches ours line by line
    assert err.count("x" * 1023 + "\n") == 3 * 1024
    assert all(p.returncode == 0 for p in spawned)


def test_missing_dataset_exits_3(tmp_path, capsys):
    rc = main(["characterize", str(tmp_path / "nope"),
               "--out", str(tmp_path / "r.json")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "data error" in err


def test_value_beyond_int64_on_disk_exits_3(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys, users=1)
    (d / "sequences.jsonl").write_text(
        json.dumps({"user_id": "u", "symbols": [[0, 1], [1, 2**63]]}) + "\n"
    )
    rc = main(["characterize", str(d), "--out", str(tmp_path / "r.json")])
    _, err = capsys.readouterr()
    assert rc == 3
    assert "sequences.jsonl line 1" in err


def test_infeasible_plan_exits_4(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys, users=1)
    rc = main(["validate", str(d), "--model", "markov:1",
               "--scheme", "block_rolling:k=200,p=1",
               "--out", str(tmp_path / "f.csv")])
    _, err = capsys.readouterr()
    assert rc == 4
    assert "infeasible plan" in err
    # the warning raised before the failure still reaches stderr
    assert "warning: excluding user" in err


def test_env_seed_matches_explicit_flag(tmp_path, capsys, monkeypatch):
    # MOBMETA_SEED once gave --seed its default; now the default seed holds
    argv = ["synth", "--kind", "copy_with_gap", "--k", 3, "--eps", 0.2,
            "--n", 200]
    ok(argv + ["--seed", 0, "--out", tmp_path / "explicit"], capsys)
    monkeypatch.setenv("MOBMETA_SEED", "77")
    ok(argv + ["--out", tmp_path / "env"], capsys)
    assert tree_bytes(tmp_path / "env") == tree_bytes(tmp_path / "explicit")


def test_env_out_directory(tmp_path, capsys, monkeypatch):
    # MOBMETA_OUT once gave --out its default; now --out must be given
    monkeypatch.setenv("MOBMETA_OUT", str(tmp_path / "from_env"))
    rc = main(["synth", "--kind", "periodic", "--pattern", "0,1,2",
               "--n", "120", "--users", "2", "--seed", "1"])
    assert rc == 2
    assert "usage error: --out is required" in capsys.readouterr().err
    assert not (tmp_path / "from_env").exists()


def test_threads_flag_is_gone(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    with pytest.raises(SystemExit) as e:
        main(["characterize", str(d), "--threads", "2",
              "--out", str(tmp_path / "r.json")])
    assert e.value.code == 2


def test_characterize_prints_caught_warnings(tmp_path, capsys):
    # 8 symbols alternating over 2 POIs read ~1.09 bits > log2(2): the
    # estimate is clamped, and the clamp warning goes to stderr
    src = tmp_path / "sym.jsonl"
    users = {"long": [0, 1, 2, 0, 1, 2, 3, 0, 1, 2] * 30, "short": [0, 1] * 4}
    src.write_text(
        "".join(
            json.dumps({"user_id": u, "symbols": [[s, t] for t, s in
                                                  enumerate(syms)]}) + "\n"
            for u, syms in users.items()
        ),
        encoding="utf-8",
    )
    ok(["ingest", src, "--format", "symbols_jsonl", "--out", tmp_path / "ds"],
       capsys)
    _, err = ok(["characterize", tmp_path / "ds", "--dmax", 5,
                 "--out", tmp_path / "ch" / "report.json"], capsys)
    assert "warning: clamping entropy rate" in err


def test_match_structure_reads_only_the_kept_users(tmp_path, capsys):
    # a 1-symbol user is skipped by every statistic, match structure too
    def match_csv(name, users):
        src = tmp_path / f"{name}.jsonl"
        src.write_text("".join(
            json.dumps({"user_id": u, "symbols": [[s, t] for t, s in
                                                  enumerate(syms)]}) + "\n"
            for u, syms in users.items()
        ), encoding="utf-8")
        ok(["ingest", src, "--format", "symbols_jsonl",
            "--out", tmp_path / name], capsys)
        ok(["characterize", tmp_path / name, "--dmax", 5,
            "--out", tmp_path / f"{name}-ch" / "report.json"], capsys)
        return (tmp_path / f"{name}-ch" / "match_structure.csv").read_bytes()

    a = [0, 1, 2, 0, 1, 2, 3, 0, 1, 2] * 6
    c = [2, 1, 0, 3, 2, 1, 0, 2, 1, 3] * 6
    assert match_csv("with_b", {"a": a, "b": [0], "c": c}) == (
        match_csv("without_b", {"a": a, "c": c}))


def test_characterize_few_users_skips_correlations(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys, users=2)
    out_file = tmp_path / "ch" / "report.json"
    _, err = ok(["characterize", d, "--dmax", 5, "--out", out_file], capsys)
    assert "correlation matrix skipped" in err
    assert (tmp_path / "ch" / "corr_matrix.csv").read_text() == "attribute\n"


def test_characterize_of_one_user_writes_every_csv_through_one_writer(
        tmp_path, capsys, monkeypatch):
    # report._write_csv writes every CSV, the header-only correlation
    # matrix of a dataset too small to correlate included
    d = synth_periodic(tmp_path, capsys, users=1)
    written = []
    write_csv = mobmeta.report._write_csv

    def recorded(path, header, blocks):
        written.append(path.name)
        write_csv(path, header, blocks)

    monkeypatch.setattr(mobmeta.report, "_write_csv", recorded)
    _, err = ok(["characterize", d, "--dmax", 5,
                 "--out", tmp_path / "ch" / "report.json"], capsys)
    assert "correlation matrix skipped" in err
    assert sorted(written) == ["corr_matrix.csv", "match_structure.csv",
                               "mi_curve.csv"]
    assert (tmp_path / "ch" / "corr_matrix.csv").read_text() == "attribute\n"


def test_recommend_prints_rule_trace(tmp_path, capsys):
    d = synth_periodic(tmp_path, capsys)
    ok(["characterize", d, "--dmax", 5,
        "--out", tmp_path / "report.json"], capsys)
    out, _ = ok(
        ["recommend", tmp_path / "report.json",
         "--out", tmp_path / "rec.json"],
        capsys,
    )
    lines = out.splitlines()
    assert lines[0].startswith("verdict: ")
    fired = [ln for ln in lines[1:] if ln.startswith(" * ")]
    assert len(fired) == 1
