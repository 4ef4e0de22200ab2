import re
import subprocess

import numpy as np
import pytest

from mobmeta.core import Dataset, PoiAlphabet, PoiSequence


def make_dataset(streams: dict[str, list[int]], n_pois=None) -> Dataset:
    """Dataset from an in-memory {user: symbols} dict (index timestamps)."""
    if n_pois is None:
        n_pois = max(max(s) for s in streams.values()) + 1
    seqs = tuple(
        PoiSequence.from_visits(user, symbols, range(len(symbols)))
        for user, symbols in streams.items()
    )
    return Dataset(
        name="inline", alphabet=PoiAlphabet.synthetic(n_pois), sequences=seqs
    )


def random_collapsed(rng: np.random.Generator, n: int, n_sym: int) -> list[int]:
    """Random sequence with no self-transitions (valid PoiSequence body)."""
    out = [int(rng.integers(n_sym))]
    while len(out) < n:
        step = int(rng.integers(1, n_sym))
        out.append((out[-1] + step) % n_sym)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def spawned(monkeypatch):
    """Every subprocess.Popen started during the test."""
    procs = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return procs


_CRITERION_PAT = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    results: dict[int, str] = {}
    titles: dict[int, str] = {}
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _CRITERION_PAT.search(getattr(rep, "nodeid", ""))
            if not m or getattr(rep, "when", "call") != "call":
                continue
            num = int(m.group(1))
            word = "PASS" if outcome == "passed" else outcome.upper()
            # keep the worst outcome if parametrized
            if results.get(num) != "FAILED":
                results[num] = word if outcome != "failed" else "FAILED"
    if not results:
        return
    try:
        from test_acceptance import CRITERIA

        titles = dict(CRITERIA)
    except ImportError:
        pass
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        title = titles.get(num, "")
        terminalreporter.write_line(
            f"{results[num]:>6}  criterion {num}: {title}"
        )
