"""Each walkthrough under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobmeta

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "characterize_synthetic_sources.py", "end_to_end_pipeline.py",
        "select_model_class.py", "validation_scheme_sensitivity.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(mobmeta.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
