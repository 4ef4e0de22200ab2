"""The benchmark's tracer finds every function it wraps or counts.

perfbench/tracer.py names its seams by module and attribute path and
skips, with only an "absent seams" line, any that no longer resolve; a
rename in src/mobmeta would otherwise drop per-layer metrics silently.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import mobmeta

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
SEAMS = tracer.TRACED_SEAMS + tracer.COUNTED_SEAMS


@pytest.mark.parametrize("seam", SEAMS, ids=[s.label for s in SEAMS])
def test_seam_resolves_in_mobmeta(seam):
    module = importlib.import_module(seam.module)
    package_dir = Path(mobmeta.__file__).resolve().parent
    assert Path(module.__file__).resolve().parent == package_dir
    found = tracer._resolve(seam.module, seam.path)
    assert found is not None, f"{seam.label} no longer exists"
    owner, attr, _ = found
    assert callable(getattr(owner, attr))
