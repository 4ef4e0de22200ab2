"""The four benchmark workloads: seeded inputs and the CLI chain each runs.

Every workload runs `characterize` and `validate`, so the end-to-end
metrics exist on all of them; the remaining commands are what the workload
is for (see README.md for why each was chosen).

Run as a script, this module performs one set-up and prints its timings:

    python3 perfbench/workloads.py <workload> <seed> <size> <dir>

The set-up imports mobmeta, generates the seeded inputs and writes them
under <dir>.  The caller times the whole process as one set-up.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# Placeholders in command lines: the set-up directory, the per-iteration
# output directory and the interpreter that runs the external predictor.
IN, OUT, PY = "{in}", "{out}", "{py}"

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `group` names the end-to-end metric it feeds."""

    group: str
    argv: tuple[str, ...]

    def resolve(self, inputs: Path, out: Path, python: str) -> list[str]:
        return [
            a.replace(IN, str(inputs)).replace(OUT, str(out)).replace(PY, python)
            for a in self.argv
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    # per size: keyword arguments of the input generator
    sizes: dict = field(default_factory=dict)
    # I(d) must peak at this distance (the copy_with_gap planted gap)
    planted_gap: Optional[int] = None
    # two validate outputs (results.json) that must agree exactly
    same_result: Optional[tuple[str, str]] = None


def _cmd(group: str, *argv: str) -> Command:
    return Command(group, tuple(argv))


def zipf_dist(k: int) -> tuple[float, ...]:
    w = [1.0 / (i + 1) for i in range(k)]
    total = math.fsum(w)
    return tuple(x / total for x in w)


SENSITIVITY_GRID = "holdout:split=0.8;kfold:k=3;block_rolling:k=5,p=1"
EXTERNAL_CMD = f"{PY} -m mobmeta.extpred --model markov:1 --alphabet-size 4"

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="many_pois",
            why="iid Zipf visits over 300 POIs, 1 user x 2.5k symbols: wide "
            "alphabet, so the MI curve and per-prediction work over K dominate",
            sizes={"full": dict(k=300, n=2500, users=1),
                   "tiny": dict(k=40, n=400, users=2)},
            commands=(
                _cmd("characterize", "characterize", f"{IN}/data",
                     "--dmax", "100", "--out", f"{OUT}/char/report.json"),
                _cmd("recommend", "recommend", f"{OUT}/char/report.json",
                     "--out", f"{OUT}/rec/recommendation.json"),
                _cmd("validate", "validate", f"{IN}/data", "--model",
                     "markov:2", "--scheme", "block_rolling:k=10,p=1",
                     "--out", f"{OUT}/markov2/folds.csv"),
                _cmd("validate", "validate", f"{IN}/data", "--model",
                     "mmc:10", "--scheme", "rolling:k=10",
                     "--out", f"{OUT}/mmc10/folds.csv"),
                _cmd("report", "report", f"{IN}/data",
                     "--characterization", f"{OUT}/char/report.json",
                     "--validation", f"{OUT}/markov2/results.json",
                     f"{OUT}/mmc10/results.json",
                     "--recommendation", f"{OUT}/rec/recommendation.json",
                     "--out", f"{OUT}/bundle"),
            ),
        ),
        Workload(
            name="long_streams",
            why="copy_with_gap over 4 POIs, 1 user x 4k symbols: narrow "
            "alphabet, so LZ, match structure, scoring and retraining dominate",
            sizes={"full": dict(gap=6, n=4000, users=1),
                   "tiny": dict(gap=6, n=800, users=2)},
            planted_gap=6,
            commands=(
                _cmd("characterize", "characterize", f"{IN}/data",
                     "--dmax", "100", "--out", f"{OUT}/char/report.json"),
                _cmd("validate", "validate", f"{IN}/data", "--model",
                     "markov:2", "--scheme", "rolling:k=10",
                     "--out", f"{OUT}/rolling/folds.csv"),
                _cmd("validate", "validate", f"{IN}/data", "--model",
                     "markov:2", "--scheme", "block_rolling:k=10,p=1",
                     "--out", f"{OUT}/block_rolling/folds.csv"),
                _cmd("validate", "validate", f"{IN}/data", "--model",
                     "markov:2", "--scheme", "window10_cumulative",
                     "--out", f"{OUT}/window10/folds.csv"),
                _cmd("sensitivity", "sensitivity", f"{IN}/data", "--model",
                     "markov:2", "--schemes", SENSITIVITY_GRID,
                     "--out", f"{OUT}/sens/table.csv"),
            ),
        ),
        Workload(
            name="gps_traces",
            why="raw GPS CSV, 1 user x 20 dwells of 45-360 fixes (4.3k "
            "fixes): the only workload that parses GPS and extracts POIs",
            sizes={"full": dict(users=1, dwells=20),
                   "tiny": dict(users=1, dwells=20)},
            commands=(
                _cmd("extract", "ingest", f"{IN}/gps.csv",
                     "--out", f"{OUT}/raw"),
                _cmd("extract", "extract-poi", f"{OUT}/raw",
                     "--out", f"{OUT}/pois"),
                _cmd("characterize", "characterize", f"{OUT}/pois",
                     "--dmax", "20", "--out", f"{OUT}/char/report.json"),
                _cmd("validate", "validate", f"{OUT}/pois", "--model",
                     "markov:1", "--scheme", "rolling:k=3",
                     "--out", f"{OUT}/rolling/folds.csv"),
                _cmd("validate", "validate", f"{OUT}/pois", "--model",
                     "markov:1", "--scheme", "block_rolling:k=4,p=1",
                     "--out", f"{OUT}/block_rolling/folds.csv"),
                _cmd("validate", "validate", f"{OUT}/pois", "--model",
                     "markov:1", "--scheme", "window10_cumulative",
                     "--out", f"{OUT}/window10/folds.csv"),
            ),
        ),
        Workload(
            name="external_predictor",
            why="copy_with_gap, 1 user x 600 symbols, validated through the "
            "extpred stdio protocol and natively: the round-trip layer",
            sizes={"full": dict(gap=6, n=600, users=1),
                   "tiny": dict(gap=6, n=300, users=1)},
            same_result=(f"{OUT}/external/results.json",
                         f"{OUT}/native/results.json"),
            commands=(
                _cmd("characterize", "characterize", f"{IN}/data",
                     "--dmax", "100", "--out", f"{OUT}/char/report.json"),
                _cmd("external_validate", "validate", f"{IN}/data",
                     "--model", "external", "--external-cmd", EXTERNAL_CMD,
                     "--scheme", "block_rolling:k=4,p=1",
                     "--out", f"{OUT}/external/folds.csv"),
                _cmd("validate", "validate", f"{IN}/data", "--model",
                     "markov:1", "--scheme", "block_rolling:k=4,p=1",
                     "--out", f"{OUT}/native/folds.csv"),
            ),
        ),
    )
}


def _visit_order(rng, counts: list[int]) -> list[int]:
    """A seeded order of place indices, place i appearing counts[i] times,
    with no place twice in a row."""
    while True:
        left, order = list(counts), []
        while sum(left):
            options = [i for i, c in enumerate(left)
                       if c and (not order or i != order[-1])]
            if not options:
                break
            i = options[int(rng.integers(len(options)))]
            left[i] -= 1
            order.append(i)
        if not sum(left):
            return order


def write_gps_csv(path: Path, seed: int, users: int, dwells: int) -> None:
    """Seeded GPS fixes at 30 s sampling among 200 shared places.

    Each user makes `dwells` stays of 45-360 fixes, at 6 personal places
    that each get at least 2 stays, never the same place twice in a row,
    joined by straight travel legs of 4-24 fixes.  A user's places lie at
    least 1 km apart, four times the POI merge radius, so that no two of
    them become one POI.  Staypoint detection is
    quadratic in dwell length, so the dwell and leg lengths are one fixed
    set that the seed only permutes, and every stay survives extraction as
    one symbol: a seed changes the data, not the work.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    lat0, lon0 = 39.90, 116.38
    m_per_deg_lat = 111_195.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
    places = np.column_stack([
        lat0 + rng.uniform(-0.09, 0.09, 200),
        lon0 + rng.uniform(-0.12, 0.12, 200),
    ])
    counts = [dwells // 6 + (i < dwells % 6) for i in range(6)]
    dwell_lengths = np.linspace(45, 360, dwells).round().astype(int)
    leg_lengths = np.linspace(4, 24, dwells).round().astype(int)
    t0 = 1_262_304_000
    lines = []
    for u in range(users):
        mine: list[int] = []
        for i in rng.permutation(len(places)):
            dy = (places[mine, 0] - places[i, 0]) * m_per_deg_lat
            dx = (places[mine, 1] - places[i, 1]) * m_per_deg_lon
            if np.all(np.hypot(dy, dx) >= 1000.0):
                mine.append(int(i))
            if len(mine) == 6:
                break
        order = [int(mine[i]) for i in _visit_order(rng, counts)]
        pts: list[tuple[float, float]] = []
        for k, (dwell, steps) in enumerate(zip(rng.permutation(dwell_lengths),
                                               rng.permutation(leg_lengths))):
            lat, lon = places[order[k]]
            noise = rng.normal(0.0, 12.0, size=(dwell, 2))
            pts.extend(
                (lat + dy / m_per_deg_lat, lon + dx / m_per_deg_lon)
                for dy, dx in noise
            )
            lat2, lon2 = places[order[(k + 1) % len(order)]]
            for s in range(1, steps + 1):
                f = s / (steps + 1)
                pts.append((lat + f * (lat2 - lat), lon + f * (lon2 - lon)))
        for i, (lat, lon) in enumerate(pts):
            lines.append(f"u{u:02d},{lat:.6f},{lon:.6f},{t0 + 30 * i}\n")
    path.write_text("".join(lines), encoding="utf-8")


def make_inputs(name: str, seed: int, size: str, dest: Path) -> dict:
    """Generate the workload's inputs under dest; returns layer timings."""
    from mobmeta.ingest import save_dataset
    from mobmeta.synth import SourceSpec, generate

    params = WORKLOADS[name].sizes[size]
    dest.mkdir(parents=True, exist_ok=True)
    if name == "gps_traces":  # the benchmark's own writer, no mobmeta layer
        write_gps_csv(dest / "gps.csv", seed, **params)
        return {"generate_s": 0.0, "save_s": 0.0}

    if name == "many_pois":
        spec = SourceSpec(kind="iid", dist=zipf_dist(params["k"]),
                          n_symbols=params["n"], n_users=params["users"],
                          seed=seed)
    else:
        spec = SourceSpec(kind="copy_with_gap", gap=params["gap"], eps=0.05,
                          n_symbols=params["n"], n_users=params["users"],
                          seed=seed)
    t = time.perf_counter()
    ds, _ground_truth = generate(spec)
    t_gen = time.perf_counter() - t
    t = time.perf_counter()
    save_dataset(ds, dest / "data")
    return {"generate_s": t_gen, "save_s": time.perf_counter() - t}


if __name__ == "__main__":
    name, seed, size, dest = sys.argv[1:5]
    timings = make_inputs(name, int(seed), size, Path(dest))
    print(json.dumps(timings))
