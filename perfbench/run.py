"""mobmeta benchmark: one workload's CLI chain, timed end to end and by layer.

    python3 perfbench/run.py --workload many_pois --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is imported from
that checkout's src/.  The chain runs in this process through
mobmeta.cli.main(argv).  --trace 0 reports the end-to-end metrics of
untraced passes, each divided by the time of a fixed reference work
measured around it (reference.py); --trace 1 adds traced passes (spans at
layer boundaries) and two counting passes, and reports the per-layer
metrics.
Every pass is checked (see checks.py).  The last line of stdout is the
result as one JSON object; README.md explains each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker, tree_digest  # noqa: E402
from tracer import (  # noqa: E402
    COUNTED_SEAMS, TRACED_SEAMS, Seams, Tracer, durations, median,
    percentile, self_times, write_spans,
)
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUPS = 11  # set-ups per run; setup_s is their median
MIN_ITERATIONS = 3  # untraced chains per --trace 0 run, even past --seconds
MIN_TRACED = 2  # traced chains (and untraced ones between them) per --trace 1
ENV_CLEARED = ("MOBMETA_SEED", "MOBMETA_THREADS", "MOBMETA_OUT")

# (metric, unit, how it is derived).  "self": median over traced passes of
# the span's self time; "calls": number of spans per pass; "count": a count
# taken while tracing or in the counting pass; "per": a ratio of two other
# metrics times a scale; "pct": percentile of span durations in us.
PER_LAYER = (
    ("entropy.lz_s", "s", ("self", "entropy.lz")),
    ("entropy.lz_symbols", "count", ("count", "entropy.lz_symbols")),
    ("entropy.lz_ns_per_symbol", "ns",
     ("per", "entropy.lz_s", "entropy.lz_symbols", 1e9)),
    ("metrics.mi_curve_s", "s", ("self", "metrics.mi_curve")),
    ("metrics.mi_distances", "count", ("count", "metrics.mi_distances")),
    ("metrics.mi_pairs", "count", ("count", "metrics.mi_pairs")),
    ("metrics.mi_cells", "count", ("count", "metrics.mi_cells")),
    ("metrics.mi_ns_per_pair", "ns",
     ("per", "metrics.mi_curve_s", "metrics.mi_pairs", 1e9)),
    ("metrics.match_structure_s", "s", ("self", "metrics.match_structure")),
    ("metrics.match_triples", "count", ("count", "metrics.match_triples")),
    ("characterize.self_s", "s", ("self", "characterize")),
    ("selector.recommend_s", "s", ("self", "selector.recommend")),
    ("report.match_csv_s", "s", ("self", "report.match_csv")),
    ("report.folds_csv_s", "s", ("self", "report.folds_csv")),
    ("report.bundle_s", "s", ("self", "report.bundle")),
    ("report.csv_rows", "count", ("count", "report.csv_rows")),
    ("report.csv_bytes", "bytes", ("count", "report.csv_bytes")),
    ("predictors.train_s", "s", ("self", "predictors.train")),
    ("predictors.train_calls", "count", ("calls", "predictors.train")),
    ("predictors.train_symbols", "count",
     ("count", "predictors.train_symbols")),
    ("predictors.train_ns_per_symbol", "ns",
     ("per", "predictors.train_s", "predictors.train_symbols", 1e9)),
    ("validation.make_folds_s", "s", ("self", "validation.make_folds")),
    ("validation.folds", "count", ("count", "validation.folds")),
    ("validation.eval_self_s", "s", ("self", "validation.evaluate")),
    ("validation.predictions", "count", ("count", "validation.predictions")),
    ("validation.us_per_prediction", "us",
     ("per", "validation.eval_self_s", "validation.predictions", 1e6)),
    ("extpred.start_s", "s", ("self", "extpred.start")),
    ("extpred.starts", "count", ("calls", "extpred.start")),
    ("extpred.roundtrips", "count", ("calls", "extpred.predict")),
    ("extpred.roundtrip_s", "s", ("self", "extpred.predict")),
    ("extpred.roundtrip_us_p50", "us", ("pct", "extpred.predict", 0.50)),
    ("extpred.roundtrip_us_p99", "us", ("pct", "extpred.predict", 0.99)),
    ("extpred.close_s", "s", ("self", "extpred.close")),
    ("poi.staypoints_s", "s", ("self", "poi.staypoints")),
    ("poi.fixes", "count", ("count", "poi.fixes")),
    ("poi.staypoints", "count", ("count", "poi.staypoints")),
    ("poi.us_per_fix", "us", ("per", "poi.staypoints_s", "poi.fixes", 1e6)),
    ("poi.distance_evals", "count", ("count", "poi.distance_evals")),
    ("poi.cluster_s", "s", ("self", "poi.cluster")),
    ("poi.pois", "count", ("count", "poi.pois")),
    ("poi.extract_self_s", "s", ("self", "poi.extract")),
    ("ingest.parse_s", "s", ("self", "ingest.parse")),
    ("ingest.save_raw_s", "s", ("self", "ingest.save_raw")),
    ("ingest.load_raw_s", "s", ("self", "ingest.load_raw")),
    ("ingest.load_s", "s", ("self", "ingest.load")),
    ("ingest.loads", "count", ("calls", "ingest.load")),
    ("ingest.digest_s", "s", ("self", "ingest.digest")),
    ("ingest.save_s", "s", ("setup+self", "save_s", "ingest.save")),
    ("synth.generate_s", "s", ("setup", "generate_s")),
    ("cli.self_s", "s", ("self", "cli")),
    ("tracing_overhead_s", "s", ("overhead",)),
)


class SetupError(Exception):
    """A set-up subprocess failed; there are no inputs to run on."""


def provenance(args) -> dict:
    load1 = os.getloadavg()[0]
    sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repo
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "loadavg_1min_at_start": load1,
    }


def run_setup(args, dest: Path) -> tuple[float, dict, dict]:
    """One fresh-process set-up into dest: wall seconds, layer timings and
    the digest of what it wrote."""
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), args.workload,
         str(args.seed), args.size, str(dest)],
        capture_output=True, text=True, timeout=150,
    )
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip()[-2000:])
    return wall, json.loads(proc.stdout.strip().splitlines()[-1]), \
        tree_digest(dest)


def run_chain(cli_main, workload, inputs: Path, out: Path, checker: Checker,
              tracer: Tracer | None = None) -> dict[str, float]:
    """One pass of the chain; seconds per command group plus the total."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    python = sys.executable
    argvs, groups = [], {}
    gc.collect()
    for cmd in workload.commands:
        argv = cmd.resolve(inputs, out, python)
        buf = io.StringIO()
        t = time.perf_counter()
        idx = tracer.begin_command("cli") if tracer else None
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli_main(argv)
        except SystemExit as e:  # argparse exits on bad flags
            rc = e.code
        except Exception as e:  # a crash is a failed op, not a harness crash
            rc = f"{type(e).__name__}: {e}"
        finally:
            if tracer:
                tracer.end(idx)
        dt = time.perf_counter() - t
        groups[cmd.group] = groups.get(cmd.group, 0.0) + dt
        checker.command(argv, rc, buf.getvalue())
        argvs.append(argv)
    checker.iteration(workload, argvs, out)
    groups["pipeline"] = sum(groups.values())
    return groups


class Reference:
    """The reference work (reference.py), timed in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


E2E_GROUPS = {
    "pipeline": ("pipeline",),
    "characterize": ("characterize",),
    "validate": ("validate", "external_validate"),
}


def end_to_end(passes: list[dict], refs: list[tuple[float, float]],
               setup_walls: list[float]) -> dict:
    """(value, unit, samples) per end-to-end metric.

    A pass's time is divided by the mean of the reference times taken just
    before and just after it, and the metric is the median of that ratio
    over the passes: how many reference works the command takes.
    """
    def rel(groups):
        return (median(sum(p.get(g, 0.0) for g in groups) * 2.0 / (a + b)
                       for p, (a, b) in zip(passes, refs)),
                "ref", len(passes))

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup_walls), "s", len(setup_walls)),
        **{f"{name}_ref": rel(groups) for name, groups in E2E_GROUPS.items()},
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def seconds(passes: list[dict], refs: list[tuple[float, float]]) -> dict:
    """The same medians in seconds, printed but not gated: they follow the
    host's drift."""
    out = {f"seconds.{name}_s": median(sum(p.get(g, 0.0) for g in groups)
                                       for p in passes)
           for name, groups in E2E_GROUPS.items()}
    out["seconds.reference_s"] = median(x for pair in refs for x in pair)
    return out


def per_layer(traced: list[Tracer], counting: Tracer, untraced: list[dict],
              traced_totals: list[dict], setup_layers: list[dict],
              missing: set[str]) -> dict:
    """Per-layer metrics; a metric whose seam is missing is left out."""
    per_pass_self, per_pass_calls = [], []
    for tr in traced:
        st: dict[str, float] = {}
        for (_cmd, name), sec in self_times(tr.spans).items():
            st[name] = st.get(name, 0.0) + sec
        per_pass_self.append(st)
        calls: dict[str, int] = {}
        for s in tr.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        per_pass_calls.append(calls)
    counts = dict(traced[-1].counts)
    counts.update(counting.counts)
    bad = set().union(*(tr.bad_counts for tr in traced), counting.bad_counts)
    gone_spans = {s.span for s in TRACED_SEAMS if s.label in missing | bad}
    gone_keys = {k for s in TRACED_SEAMS + COUNTED_SEAMS
                 if s.label in missing | bad for k in s.keys}

    out: dict[str, tuple] = {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        if kind == "self":
            if how[1] in gone_spans:
                continue
            value = median(p.get(how[1], 0.0) for p in per_pass_self)
        elif kind == "calls":
            if how[1] in gone_spans:
                continue
            value = per_pass_calls[-1].get(how[1], 0)
        elif kind == "count":
            if how[1] in gone_keys:
                continue
            value = counts.get(how[1], 0)
        elif kind == "per":
            if how[1] not in out or how[2] not in out:
                continue
            den = out[how[2]][0]
            value = out[how[1]][0] / den * how[3] if den else 0.0
        elif kind == "pct":
            if how[1] in gone_spans:
                continue
            pooled = [d for tr in traced for d in durations(tr.spans, how[1])]
            value = percentile(pooled, how[2]) * 1e6
        elif kind == "setup":
            value = median(layer[how[1]] for layer in setup_layers)
        elif kind == "setup+self":
            if how[2] in gone_spans:
                continue
            value = (median(layer[how[1]] for layer in setup_layers)
                     + median(p.get(how[2], 0.0) for p in per_pass_self))
        else:  # overhead
            value = (median(t["pipeline"] for t in traced_totals)
                     - median(u["pipeline"] for u in untraced))
        out[name] = (value, unit, len(traced))
    return out


def accounted(tracer: Tracer) -> bool:
    """Per command, the self times of all its spans sum to its wall time."""
    walls = {s.command: (s.end - s.start) / 1e9
             for s in tracer.spans if s.parent is None}
    sums: dict[int, float] = {}
    for (cmd, _name), sec in self_times(tracer.spans).items():
        sums[cmd] = sums.get(cmd, 0.0) + sec
    return all(abs(sums.get(c, 0.0) - w) <= 1e-6 + 1e-3 * w
               for c, w in walls.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="input size; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mobmeta" / "__init__.py").is_file():
        print(f"perfbench: no mobmeta package under {src}", file=sys.stderr)
        return 2
    for var in ENV_CLEARED:
        os.environ.pop(var, None)
    # the external predictor child must import the code under test too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))

    info = provenance(args)
    workload = WORKLOADS[args.workload]
    work = HERE / "out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "out" / "results"
    name = f"{args.workload}-seed{args.seed}"
    spans_path = results / f"{name}-spans.jsonl" if args.trace else None
    reference = None
    try:
        inputs = work / "inputs"
        try:
            wall, layers, first_digest = run_setup(args, inputs)
        except (SetupError, subprocess.SubprocessError, ValueError) as e:
            print(f"perfbench: set-up failed: {e}", file=sys.stderr)
            return 1
        setup_walls, setup_layers = [wall], [layers]
        from mobmeta.cli import main as cli_main

        checker = Checker(src / "mobmeta" / "schemas")

        def another_setup():
            # spread over the run, so set-ups sample the same machine
            # states as the passes
            dest = work / "setup"
            try:
                wall, layers, digest = run_setup(args, dest)
            except (SetupError, subprocess.SubprocessError, ValueError) as e:
                checker.check(False, f"set-up failed: {e}")
                return
            finally:
                shutil.rmtree(dest, ignore_errors=True)
            setup_walls.append(wall)
            setup_layers.append(layers)
            checker.check(digest == first_digest, "set-ups with one seed "
                          "wrote different inputs")

        out = work / "out"
        reference = Reference()
        refs: list[tuple[float, float]] = []
        untraced: list[dict] = []
        traced_totals: list[dict] = []
        tracers: list[Tracer] = []
        missing: set[str] = set()
        started = time.perf_counter()
        deadline = started + args.seconds
        while True:
            before = reference.sample()
            untraced.append(run_chain(cli_main, workload, inputs, out, checker))
            refs.append((before, reference.sample()))
            if args.trace:
                tracer = Tracer()
                seams = Seams(tracer, TRACED_SEAMS)
                try:
                    traced_totals.append(run_chain(
                        cli_main, workload, inputs, out, checker, tracer))
                finally:
                    seams.restore()
                missing.update(seams.missing)
                tracers.append(tracer)
                checker.check(accounted(tracer), "span self times do not add "
                              "up to command wall times")
            if len(setup_walls) < SETUPS:
                another_setup()
            done = len(tracers) if args.trace else len(untraced)
            need = MIN_TRACED if args.trace else MIN_ITERATIONS
            # stop before a round that would end past the deadline
            round_s = (time.perf_counter() - started) / done
            if done >= need and time.perf_counter() + round_s > deadline:
                break
        while len(setup_walls) < SETUPS:
            another_setup()
        metrics = end_to_end(untraced, refs, setup_walls)

        if args.trace:
            counting = []
            for _ in range(2):
                tracer = Tracer()
                seams = Seams(tracer, COUNTED_SEAMS)
                try:
                    run_chain(cli_main, workload, inputs, out, checker)
                finally:
                    seams.restore()
                missing.update(seams.missing)
                counting.append(tracer)
            checker.check(counting[0].counts == counting[1].counts,
                          "counting-pass counts differ between passes")
            checker.check(
                all(t.counts == tracers[0].counts for t in tracers),
                "traced counts differ between passes")
            metrics = per_layer(tracers, counting[0], untraced, traced_totals,
                                setup_layers, missing)
    finally:
        if reference is not None:
            reference.close()
        shutil.rmtree(work, ignore_errors=True)

    groups = sorted({k for p in untraced for k in p} - {"pipeline"})
    stage_times = {f"stage.{g}_s": median(p.get(g, 0.0) for p in untraced)
                   for g in groups}
    stage_times.update(seconds(untraced, refs))
    ratio = checker.failed / checker.attempted
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in
                    metrics.items()},
    }
    record = {
        "provenance": info,
        "result": result,
        "samples": {k: n for k, (_v, _u, n) in metrics.items()},
        "stage_medians_s": stage_times,
        "passes_s": untraced,
        "reference_s": refs,
        "traced_passes_s": traced_totals,
        "missing_seams": sorted(missing),
        "schemas_checked": checker.schemas_checked,
        "failures": checker.failures,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans_path:
        write_spans(spans_path, [s for t in tracers for s in t.spans])

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} load1={info['loadavg_1min_at_start']:.2f}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit:6s} n={n}")
    if not args.trace:
        for name, value in stage_times.items():
            print(f"  {name:32s} {value:14.6f} s      n={len(untraced)}")
    print(f"{'failed_ops_ratio':34s} {ratio:14.6f} failed/attempted "
          f"({checker.failed}/{checker.attempted})")
    for msg in checker.failures:
        print(f"  FAILED: {msg}")
    if missing:
        print(f"  absent seams: {', '.join(sorted(missing))}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
