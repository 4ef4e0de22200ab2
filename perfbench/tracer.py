"""Spans and counters recorded from outside the program under test.

Wrappers are installed at the names callers actually look up (the
modules import functions by name, so `mobmeta.cli.characterize` is wrapped,
not only `mobmeta.characterize.characterize`) and removed again after each
pass, so untimed and untraced passes run the unmodified code.  A seam whose
name no longer exists is skipped and its metric reported as absent.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import os
import statistics
import threading
import time
from typing import Callable, NamedTuple, Optional


class Seam(NamedTuple):
    """A function to wrap, the span it records and the counts it adds.

    `count` takes (args, kwargs, result) and returns {key: increment} for
    the keys listed in `keys`.
    """

    module: str
    path: str
    span: Optional[str] = None
    keys: tuple = ()
    count: Optional[Callable] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.path}"


# Counts taken while tracing are cheap: at most one per user, fold or
# command, never one per symbol.
TRACED_SEAMS = (
    Seam("mobmeta.cli", "load_dataset", "ingest.load"),
    Seam("mobmeta.cli", "dataset_digest", "ingest.digest"),
    Seam("mobmeta.cli", "save_dataset", "ingest.save"),
    Seam("mobmeta.cli", "parse_raw_with_report", "ingest.parse"),
    Seam("mobmeta.cli", "save_raw", "ingest.save_raw"),
    Seam("mobmeta.cli", "load_raw", "ingest.load_raw"),
    Seam("mobmeta.cli", "extract_dataset", "poi.extract"),
    Seam("mobmeta.poi", "detect_staypoints", "poi.staypoints",
         ("poi.fixes", "poi.staypoints"),
         lambda a, kw, r: {"poi.fixes": len(a[0]), "poi.staypoints": len(r)}),
    Seam("mobmeta.poi", "build_alphabet", "poi.cluster", ("poi.pois",),
         lambda a, kw, r: {"poi.pois": r[0].size}),
    Seam("mobmeta.cli", "characterize", "characterize"),
    Seam("mobmeta.characterize", "lz_entropy_rate", "entropy.lz",
         ("entropy.lz_symbols",),
         lambda a, kw, r: {"entropy.lz_symbols": len(a[0])}),
    Seam("mobmeta.characterize", "mi_decay_curve", "metrics.mi_curve"),
    Seam("mobmeta.cli", "match_structure", "metrics.match_structure",
         ("metrics.match_triples",),
         lambda a, kw, r: {"metrics.match_triples": len(r)}),
    Seam("mobmeta.cli", "write_match_structure_csv", "report.match_csv"),
    Seam("mobmeta.cli", "write_folds_csv", "report.folds_csv"),
    Seam("mobmeta.cli", "bundle_report", "report.bundle"),
    Seam("mobmeta.cli", "recommend", "selector.recommend"),
    Seam("mobmeta.cli", "evaluate", "validation.evaluate"),
    Seam("mobmeta.validation", "evaluate", "validation.evaluate"),
    Seam("mobmeta.validation", "make_folds", "validation.make_folds",
         ("validation.folds",),
         lambda a, kw, r: {"validation.folds": len(r)}),
    Seam("mobmeta.validation", "train", "predictors.train"),
    Seam("mobmeta.predictors", "ExternalModel.start", "extpred.start"),
    Seam("mobmeta.predictors", "ExternalModel.predict", "extpred.predict"),
    Seam("mobmeta.predictors", "ExternalModel.close", "extpred.close"),
)


def _symbols_arg(a, kw):
    return kw["symbols"] if "symbols" in kw else a[1]


def _csv_size(a, kw, r):
    with open(kw["path"] if "path" in kw else a[0], "rb") as f:
        data = f.read()
    return {"report.csv_rows": data.count(b"\n") - 1,
            "report.csv_bytes": len(data)}


def _predictions(a, kw, r):
    return {"validation.predictions": int(r.n_predictions)}


# Per-call counters for the separate counting pass.  Some sit on hot inner
# functions (haversine_m runs once per distance), so they never run while
# anything is timed.
COUNTED_SEAMS = (
    Seam("mobmeta.metrics", "_pair_counts", None,
         ("metrics.mi_distances", "metrics.mi_pairs", "metrics.mi_cells"),
         lambda a, kw, r: {"metrics.mi_distances": 1,
                           "metrics.mi_pairs": int(r[3]),
                           "metrics.mi_cells": len(r[0])}),
    Seam("mobmeta.poi", "haversine_m", None, ("poi.distance_evals",),
         lambda a, kw, r: {"poi.distance_evals": 1}),
    Seam("mobmeta.validation", "train", None, ("predictors.train_symbols",),
         lambda a, kw, r: {"predictors.train_symbols":
                           len(_symbols_arg(a, kw))}),
    Seam("mobmeta.cli", "evaluate", None, ("validation.predictions",),
         _predictions),
    Seam("mobmeta.validation", "evaluate", None, ("validation.predictions",),
         _predictions),
    Seam("mobmeta.report", "_write_csv", None,
         ("report.csv_rows", "report.csv_bytes"), _csv_size),
)


@dataclasses.dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    command: int


class Tracer:
    """In-memory span recorder; one open-span stack per thread.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost open span of the thread that opened the
    current command, so work fanned out to a pool stays under its command.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.bad_counts: set[str] = set()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._command = -1
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._root_stack[-1] if self._root_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter_ns(), 0, parent, self._command))
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack().pop()

    def begin_command(self, name: str) -> int:
        self._command += 1
        self._root_stack = self._stack()
        return self.begin(name)

    def add_counts(self, values: dict) -> None:
        with self._lock:
            for key, v in values.items():
                self.counts[key] = self.counts.get(key, 0) + v


def _resolve(module: str, path: str):
    """(owner, attribute, static value) or None when the seam is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        static = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, static


def _wrap(fn: Callable, tracer: Tracer, seam: Seam) -> Callable:
    def counted(a, kw, result):
        try:
            tracer.add_counts(seam.count(a, kw, result))
        except (TypeError, AttributeError, IndexError, KeyError, OSError):
            tracer.bad_counts.add(seam.label)

    if seam.span is None:
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            counted(a, kw, result)
            return result
    else:
        def wrapper(*a, **kw):
            idx = tracer.begin(seam.span)
            try:
                result = fn(*a, **kw)
            finally:
                tracer.end(idx)
            if seam.count is not None:
                counted(a, kw, result)
            return result
    wrapper.__wrapped__ = fn
    return wrapper


class Seams:
    """Installs the wrappers of `seams`; `restore()` puts the originals back.

    `missing` lists the labels of seams that no longer exist.
    """

    def __init__(self, tracer: Tracer, seams):
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        for seam in seams:
            found = _resolve(seam.module, seam.path)
            if found is None:
                self.missing.append(seam.label)
                continue
            owner, attr, static = found
            self._saved.append((owner, attr, static))
            if isinstance(static, (classmethod, staticmethod)):
                new = type(static)(_wrap(static.__func__, tracer, seam))
            else:
                new = _wrap(static, tracer, seam)
            setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, static in reversed(self._saved):
            setattr(owner, attr, static)
        self._saved.clear()


# --- aggregation -----------------------------------------------------------

def _union(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _measure(intervals) -> int:
    return sum(hi - lo for lo, hi in intervals)


def _minus(base, cut) -> list[tuple[int, int]]:
    """Parts of the disjoint sorted intervals `base` not covered by `cut`."""
    out = []
    cut = _union(cut)
    for lo, hi in base:
        cur = lo
        for clo, chi in cut:
            if chi <= cur or clo >= hi:
                continue
            if clo > cur:
                out.append((cur, clo))
            cur = max(cur, chi)
        if cur < hi:
            out.append((cur, hi))
    return out


def self_times(spans: list[Span]) -> dict[tuple[int, str], float]:
    """Seconds per (command, span name) not covered by child spans.

    Spans of one name that overlap (the same function on two threads)
    count once, so the self times of one command add up to its wall time.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    grouped: dict[tuple[int, str], tuple[list, list]] = {}
    for i, s in enumerate(spans):
        own, kids = grouped.setdefault((s.command, s.name), ([], []))
        own.append((s.start, s.end))
        kids.extend(children.get(i, ()))
    return {
        key: _measure(_minus(_union(own), kids)) / 1e9
        for key, (own, kids) in grouped.items()
    }


def durations(spans: list[Span], name: str) -> list[float]:
    return [(s.end - s.start) / 1e9 for s in spans if s.name == name]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def write_spans(path: os.PathLike, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")
