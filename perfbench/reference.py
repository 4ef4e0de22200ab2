"""A fixed amount of pure-Python work, timed in a process of its own.

    python3 perfbench/reference.py

For each line read on stdin it runs `work()` three times and writes the
median wall time in seconds as one line on stdout.  It exits at the end of
stdin.  run.py divides the time of each pass of the chain by these times,
taken just before and just after the pass: the host's speed drifts by up
to 2x over seconds and minutes, and the ratio cancels most of that drift.
The work mimics the chain's own (dicts of pair counts, a sort, CSV text,
float logs, and distances between points as in staypoint detection) so
that it slows the same way in the host's slow states.  It runs in a
separate process so that nothing the program under test leaves behind in
the benchmark's process (threads, a larger heap) changes it.
"""

from __future__ import annotations

import math
import statistics
import sys
import time


def _distance(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    a = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return math.asin(min(1.0, math.sqrt(a)))


def work() -> float:
    counts: dict[tuple[int, int], int] = {}
    prev = 0
    for i in range(3_000):
        x = (i * 7919 + prev * 31) % 613
        key = (prev, x)
        counts[key] = counts.get(key, 0) + 1
        prev = x
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    text = "\n".join(f"{a},{b},{c}" for (a, b), c in rows)
    total = len(text) + math.fsum(c * math.log2(c) for _key, c in rows)
    pts = [(i * 1e-5, (i * 7 % 13) * 1e-5) for i in range(80)]
    for k in range(1, len(pts)):
        lat, lon = pts[k]
        total += sum(_distance(p[0], p[1], lat, lon) for p in pts[:k])
    return total


def sample() -> float:
    times = []
    for _ in range(3):
        t = time.perf_counter()
        work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


if __name__ == "__main__":
    for _line in sys.stdin:
        print(repr(sample()), flush=True)
