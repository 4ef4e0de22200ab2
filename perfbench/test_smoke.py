"""The benchmark's own tests, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

They sit outside tests/, so the repository's test suite does not collect
them (pyproject.toml sets testpaths = ["tests"]).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import expected_predictions  # noqa: E402
from tracer import Seam, Seams, Span, Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, size: str = "tiny"):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    if size:
        argv += ["--size", size]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("many_pois", 0, cwd=tmp_path, size="")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("scheme", [
    "rolling:k=10", "rolling:k=3", "block_rolling:k=10,p=1",
    "block_rolling:k=5,p=2", "window10_cumulative",
])
@pytest.mark.parametrize("model", ["markov:1", "markov:2", "mmc:10"])
def test_expected_predictions_match_the_folds(scheme, model):
    from mobmeta.core import InfeasiblePlanError
    from mobmeta.validation import make_folds
    from mobmeta.cli import parse_scheme_arg

    plan = parse_scheme_arg(scheme, 0, True, 64)
    need = {"markov:1": 2, "markov:2": 3, "mmc:10": 2}[model]
    for n in range(2, 80):
        try:
            folds = make_folds(plan, n)
        except InfeasiblePlanError:
            want = 0
        else:
            trainable = min(len(f.train_idx) for f in folds) >= need
            want = sum(len(f.test_idx) for f in folds) if trainable else 0
        assert expected_predictions([n], scheme, model) == want, n


def test_missing_seam_is_reported_not_fatal():
    tracer = Tracer()
    seams = Seams(tracer, (Seam("mobmeta.cli", "no_such_function", "x"),
                           Seam("mobmeta.no_such_module", "f", "y")))
    seams.restore()
    assert seams.missing == ["mobmeta.cli.no_such_function",
                             "mobmeta.no_such_module.f"]


def test_self_times_cover_wall_time_once_with_threads():
    # command 0..100; two overlapping worker spans 10..60 and 30..80 and a
    # main-thread child 85..95
    spans = [Span("cli", 0, 100, None, 0), Span("work", 10, 60, 0, 0),
             Span("work", 30, 80, 0, 0), Span("write", 85, 95, 0, 0)]
    st = self_times(spans)
    assert st[(0, "work")] == pytest.approx(70e-9)
    assert st[(0, "write")] == pytest.approx(10e-9)
    assert st[(0, "cli")] == pytest.approx(20e-9)
    assert sum(st.values()) == pytest.approx(100e-9)
