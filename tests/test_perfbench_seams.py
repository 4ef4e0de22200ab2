"""The benchmark's tracer finds every function it wraps or counts.

perfbench/tracer.py names its seams by module and attribute path and
skips, with only an "absent seams" line, any that no longer resolve; a
rename in src/mobmeta would otherwise drop per-layer metrics silently.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mobmeta
from mobmeta import metrics

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


PAIR_COUNTS_SEAM = next(s for s in tracer.COUNTED_SEAMS
                        if s.label == "mobmeta.metrics._pair_counts")


@pytest.mark.parametrize("seq", [
    [0, 1, 2, 3] * 50,  # 4 x 4 table, 199 pairs: the dense table
    list(range(50)) * 2,  # 50 x 50 table, 99 pairs: the sorted codes
], ids=["dense", "sorted"])
def test_pair_counts_seam_counts_a_real_call(seq):
    # the seam reads the pair count and the cells from the return tuple;
    # a change to its shape must fail here, not drop three metrics
    args = (np.asarray(seq, dtype=np.int64), 1, None)
    result = metrics._pair_counts(*args)
    assert PAIR_COUNTS_SEAM.count(args, {}, result) == {
        "metrics.mi_distances": 1,
        "metrics.mi_pairs": len(seq) - 1,
        "metrics.mi_cells": len(set(zip(seq, seq[1:]))),
    }
