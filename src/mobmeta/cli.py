"""Command-line interface: ingest, extract-poi, synth, characterize,
validate, sensitivity, recommend, and report bundling.

Exit codes: 0 success, 2 usage error, 3 data error, 4 infeasible plan.
main() runs every command the same way: warnings raised during the
command print to stderr as "warning: <message>" (also when it fails),
and a command that succeeds gets exactly one run_manifest.json beside
its outputs, recording the command line, the config hash, the dataset
hash, tool version, wall time, and output paths.  The dataset hash is the
sha256 of the files the command read or wrote: alphabet.json then
sequences.jsonl of a dataset directory, raw.jsonl of a raw one, or the
report.json that recommend reads.
Defaults for --seed and --out come from MOBMETA_SEED and MOBMETA_OUT.

Each command is defined once, in COMMANDS: its name, help line, handler
and the function that adds its arguments.  A command line that starts
with a command name is parsed by that command's own parser (prog
"mobmeta <command>"), so a command builds only its own arguments.  The
full parser, every command as a subparser of "mobmeta", is built from
the same definitions only for the top-level help, --version, and a
missing or unknown command.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .characterize import (
    CharacterizeParams,
    characterize,
    per_user_attribute_matrix,
    report_from_dict,
)
from .core import DataError, InfeasiblePlanError
from .ingest import (
    CSV_COLUMNS,
    IngestConfig,
    dataset_digest,
    load_dataset,
    load_raw,
    load_symbols_jsonl,
    parse_raw_with_report,
    save_dataset,
    save_raw,
)
from .jsonutil import (
    canonical_dumps,
    read_json,
    sha256_file,
    write_canonical_json,
)
from .metrics import attribute_correlations, match_structure
from .poi import ExtractionParams, extract_dataset
from .predictors import PredictorSpec, parse_model
from .report import (
    bundle_files,
    bundle_report,
    stats_table,
    write_corr_matrix_csv,
    write_folds_csv,
    write_match_structure_csv,
    write_mi_curve_csv,
    write_sensitivity_csv,
)
from .selector import load_rules, recommend
from .synth import generate, spec_from_dict, spec_to_dict, SourceSpec
from .validation import (
    SCHEME_PARAMS,
    ValidationPlan,
    default_sensitivity_plans,
    evaluate,
    validation_sensitivity,
)


class UsageError(Exception):
    """Bad arguments detected after argparse; exits 2 like argparse."""


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None


def _default_out(cmd_default: str | None) -> str | None:
    return os.environ.get("MOBMETA_OUT") or cmd_default


@dataclass(frozen=True)
class Run:
    """What a finished command records in its run_manifest.json."""

    anchor: Path  # the output file or directory the manifest sits beside
    config: dict
    dataset_hash: str | None
    outputs: list[Path]


def write_manifest(run: Run, argv: list[str], t0: float) -> Path:
    """One run_manifest.json next to (or inside) the command's output."""
    directory = run.anchor if run.anchor.is_dir() else run.anchor.parent
    directory.mkdir(parents=True, exist_ok=True)
    config_hash = (
        "sha256:"
        + hashlib.sha256(canonical_dumps(run.config).encode("utf-8")).hexdigest()
    )
    path = directory / "run_manifest.json"
    write_canonical_json(
        path,
        {
            "command_line": argv,
            "config_hash": config_hash,
            "dataset_hash": run.dataset_hash,
            "tool_version": __version__,
            "wall_time_s": round(time.monotonic() - t0, 6),
            "outputs": sorted(str(p) for p in run.outputs),
        },
    )
    return path


def parse_cols(text: str) -> dict:
    """"user=0,lat=1,lon=2,t=3" -> column_map dict.  An entry whose name
    is not one of CSV_COLUMNS, or whose index is not an integer >= 0,
    is a usage error naming it."""
    out = {}
    for part in text.split(","):
        key, _, idx = part.partition("=")
        key = key.strip()
        try:
            index = int(idx)
        except ValueError:
            raise UsageError(f"bad --cols value {text!r}") from None
        if key not in CSV_COLUMNS:
            raise UsageError(
                f"--cols entry {part!r}: unknown column {key!r}, "
                f"expected one of {', '.join(CSV_COLUMNS)}"
            )
        if index < 0:
            raise UsageError(
                f"--cols entry {part!r}: column index must be >= 0"
            )
        out[key] = index
    return out


def parse_model_arg(
    text: str, external_cmd: str | None = None
) -> PredictorSpec:
    """predictors.parse_model on --model and --external-cmd; exits 2."""
    if text.partition(":")[0] == "external" and not external_cmd:
        raise UsageError("external model needs --external-cmd")
    try:
        return parse_model(text, shlex.split(external_cmd or ""))
    except ValueError as e:
        raise UsageError(str(e)) from None


def _yes_no(text: str) -> bool:
    """true/false, 1/0 or yes/no in any case; ValueError otherwise, so a
    typo such as shuffled=ture is refused rather than read as false."""
    value = text.lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SCHEME_KEYS = {
    "split": float,
    "k": int,
    "p": int,
    "iterations": int,
    "shuffled": _yes_no,
}


def parse_scheme_arg(
    text: str, seed: int, per_user: bool, context_window: int
) -> ValidationPlan:
    """"block_rolling:k=10,p=1" -> ValidationPlan.  A parameter that the
    scheme does not read (validation.SCHEME_PARAMS), or one given twice,
    is a usage error.

    ``per_user`` must be True: every user is validated on their own
    stream, and the joined-users validation that False named is gone.
    The argument stays while perfbench/test_smoke.py passes it.
    """
    if per_user is not True:
        raise UsageError(
            "validation joining every user into one stream is gone; "
            "each user is validated on their own stream"
        )
    name, _, params = text.partition(":")
    kwargs: dict = {}
    if params:
        for part in params.split(","):
            key, eq, value = part.partition("=")
            if not eq or key not in _SCHEME_KEYS:
                raise UsageError(f"bad scheme parameter {part!r} in {text!r}")
            if name in SCHEME_PARAMS and key not in SCHEME_PARAMS[name]:
                raise UsageError(
                    f"scheme {name} does not read parameter {key!r} "
                    f"(in {text!r}); it reads: "
                    f"{', '.join(SCHEME_PARAMS[name]) or 'none'}"
                )
            if key in kwargs:
                raise UsageError(
                    f"scheme parameter {key!r} given twice in {text!r}"
                )
            try:
                kwargs[key] = _SCHEME_KEYS[key](value)
            except ValueError:
                raise UsageError(
                    f"bad value for {key!r} in scheme {text!r}"
                ) from None
    try:
        return ValidationPlan(
            scheme=name, seed=seed, external_context_window=context_window,
            **kwargs,
        )
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad scheme {text!r}: {e}") from None


def _spec_from_args(args) -> SourceSpec:
    if args.spec:
        return spec_from_dict(read_json(args.spec))
    common = {
        "n_symbols": args.n,
        "n_users": args.users,
        "seed": args.seed,
    }
    try:
        if args.kind == "iid":
            if args.dist:
                dist = tuple(float(p) for p in args.dist.split(","))
            else:
                m = args.alphabet_size
                dist = tuple(1.0 / m for _ in range(m))
            return SourceSpec(kind="iid", dist=dist, **common)
        if args.kind == "periodic":
            if not args.pattern:
                raise UsageError("--kind periodic needs --pattern")
            pattern = tuple(int(p) for p in args.pattern.split(","))
            return SourceSpec(kind="periodic", pattern=pattern, **common)
        if args.kind == "markov_order_k":
            if not args.transition:
                raise UsageError("--kind markov_order_k needs --transition")
            import numpy as np

            return SourceSpec(
                kind="markov_order_k",
                transition=np.asarray(read_json(args.transition)),
                **common,
            )
        if args.kind == "copy_with_gap":
            return SourceSpec(
                kind="copy_with_gap", gap=args.k, eps=args.eps, **common
            )
        if args.kind == "regime_switch":
            if not (args.spec_a and args.spec_b):
                raise UsageError(
                    "--kind regime_switch needs --spec-a and --spec-b"
                )
            return SourceSpec(
                kind="regime_switch",
                spec_a=spec_from_dict(read_json(args.spec_a)),
                spec_b=spec_from_dict(read_json(args.spec_b)),
                switch_fraction=args.switch_fraction,
                **common,
            )
    except ValueError as e:
        raise UsageError(f"bad source spec: {e}") from None
    raise UsageError(f"unknown source kind {args.kind!r}")


def _require_out(args, what: str) -> Path:
    if not args.out:
        raise UsageError(f"--out is required ({what})")
    return Path(args.out)


def _out_file(args, default: str) -> Path:
    """--out (or the command's default file name), its directory created."""
    out = Path(args.out or default)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


DATASET_FILES = ("alphabet.json", "sequences.jsonl", "meta.json")


def ingest_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--format", default="csv_gps",
                   choices=["csv_gps", "plt_geolife_like", "symbols_jsonl"])
    p.add_argument("--cols", default="user=0,lat=1,lon=2,t=3")
    p.add_argument("--tz-offset", type=int, default=0,
                   help="seconds added to every timestamp (0: input is UTC)")
    p.add_argument("--dedup", default="drop_equal_timestamp",
                   choices=["drop_equal_timestamp", "error"])
    p.add_argument("--name", default=None)


def cmd_ingest(args) -> Run:
    out_dir = _require_out(args, "dataset directory")
    cfg = IngestConfig(
        format=args.format,
        column_map=parse_cols(args.cols),
        tz_offset_seconds=args.tz_offset,
        dedup_policy=args.dedup,
    )
    name = args.name or Path(args.input).stem
    config = {**asdict(cfg), "name": name}
    if args.format == "symbols_jsonl":
        ds = load_symbols_jsonl(args.input, name=name)
        save_dataset(ds, out_dir)
        print(
            f"ingested {ds.n_users} users, {ds.alphabet.size} POIs -> {out_dir}"
        )
        return Run(out_dir, config, dataset_digest(out_dir),
                   [out_dir / f for f in DATASET_FILES])
    trajs, rep = parse_raw_with_report(args.input, cfg)
    save_raw(
        trajs, out_dir, name,
        provenance={"format": cfg.format, "source_path": Path(args.input).name},
    )
    write_canonical_json(
        out_dir / "ingest_report.json",
        {
            "rows_read": rep.rows_read,
            "points_kept": rep.points_kept,
            "rejects": [[line, reason] for line, reason in rep.rejects],
        },
    )
    print(
        f"ingested {rep.points_kept} points from {rep.rows_read} rows "
        f"({len(rep.rejects)} rejected) for {len(trajs)} users -> {out_dir}"
    )
    return Run(
        out_dir, config, "sha256:" + sha256_file(out_dir / "raw.jsonl"),
        [out_dir / f for f in ("raw.jsonl", "meta.json", "ingest_report.json")],
    )


def extract_poi_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("raw_dir")
    p.add_argument("--stay-radius", type=float, default=200.0)
    p.add_argument("--stay-min", type=float, default=1200.0)
    p.add_argument("--merge-radius", type=float, default=250.0)
    p.add_argument("--min-visits", type=int, default=2)
    p.add_argument("--name", default=None)


def cmd_extract_poi(args) -> Run:
    out_dir = _require_out(args, "dataset directory")
    trajs = load_raw(args.raw_dir)
    try:
        params = ExtractionParams(
            stay_radius_m=args.stay_radius,
            stay_min_duration_s=args.stay_min,
            cluster_merge_radius_m=args.merge_radius,
            min_visits=args.min_visits,
        )
    except DataError as e:
        raise UsageError(str(e)) from None
    name = args.name or Path(args.raw_dir).name
    ds = extract_dataset(trajs, params, name)
    save_dataset(ds, out_dir)
    config = {**asdict(params), "name": name}
    excluded = ds.provenance.get("excluded_short_users", [])
    print(
        f"extracted {ds.alphabet.size} POIs, {ds.n_users} users "
        f"({len(excluded)} excluded as too short) -> {out_dir}"
    )
    return Run(out_dir, config, dataset_digest(out_dir),
               [out_dir / f for f in DATASET_FILES])


def synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="iid",
                   choices=["iid", "periodic", "markov_order_k",
                            "copy_with_gap", "regime_switch"])
    p.add_argument("--n", type=int, default=10000,
                   help="symbols per user before collapse")
    p.add_argument("--users", type=int, default=1)
    p.add_argument("--alphabet-size", type=int, default=4)
    p.add_argument("--dist", default=None, help="iid probabilities, comma-separated")
    p.add_argument("--pattern", default=None, help="periodic symbols, comma-separated")
    p.add_argument("--transition", default=None,
                   help="JSON file with the transition table")
    p.add_argument("--k", type=int, default=1, help="copy_with_gap gap")
    p.add_argument("--eps", type=float, default=0.0, help="copy noise")
    p.add_argument("--spec-a", default=None, help="regime A spec JSON file")
    p.add_argument("--spec-b", default=None, help="regime B spec JSON file")
    p.add_argument("--switch-fraction", type=float, default=0.5)
    p.add_argument("--spec", default=None,
                   help="full source spec JSON file (overrides other flags)")


def cmd_synth(args) -> Run:
    out_dir = _require_out(args, "dataset directory")
    spec = _spec_from_args(args)
    ds, ground_truth = generate(spec)
    save_dataset(ds, out_dir)
    write_canonical_json(out_dir / "ground_truth.json", ground_truth)
    print(
        f"generated {spec.kind}: {ds.n_users} users, "
        f"alphabet {ds.alphabet.size} -> {out_dir}"
    )
    return Run(
        out_dir, spec_to_dict(spec), dataset_digest(out_dir),
        [out_dir / f for f in DATASET_FILES + ("ground_truth.json",)],
    )


def characterize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset_dir")
    p.add_argument("--dmax", type=int, default=100,
                   help="largest MI distance d, capped below stream length/10")
    p.add_argument("--eps-fit", type=float, default=1e-3,
                   help="bits an I(d) must exceed to enter the power-law fit")
    p.add_argument("--eps-depth", type=float, default=0.1,
                   help="bits an I(d) must reach to count toward the LDD "
                   "depth (the largest such d)")
    p.add_argument("--pmi-top-k", type=int, default=10,
                   help="how many highest-PMI POI pairs at d=1 to report")


def cmd_characterize(args) -> Run:
    ds = load_dataset(args.dataset_dir)
    try:
        params = CharacterizeParams(
            d_max=args.dmax,
            eps_fit=args.eps_fit,
            eps_depth=args.eps_depth,
            pmi_top_k=args.pmi_top_k,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    report = characterize(ds, params)
    out = _out_file(args, "report.json")
    write_canonical_json(out, report.to_dict())
    mi_path = out.parent / "mi_curve.csv"
    write_mi_curve_csv(mi_path, report.mi_curve)

    # over the users the report kept, as its MI curve and PMI
    triples = match_structure(
        report.stream, separator_id=ds.alphabet.separator_id
    )
    ms_path = out.parent / "match_structure.csv"
    write_match_structure_csv(ms_path, *triples.T)

    corr_path = out.parent / "corr_matrix.csv"
    try:
        kept, corr = attribute_correlations(*per_user_attribute_matrix(report))
    except DataError as e:
        # too few or identical users leave nothing to correlate; not fatal
        corr_path.write_text("attribute\n", encoding="utf-8")
        print(f"warning: {e}, correlation matrix skipped", file=sys.stderr)
    else:
        write_corr_matrix_csv(corr_path, kept, corr)

    print(
        f"{report.dataset_name}: {report.n_users} users, "
        f"{report.n_pois} POIs, entropy {report.entropy_bits_mean:.3f} bits, "
        f"predictability {report.predictability_mean:.4f} -> {out}"
    )
    for note in report.warnings:
        print(f"note: {note}", file=sys.stderr)
    return Run(out, asdict(params), dataset_digest(args.dataset_dir),
               [out, mi_path, ms_path, corr_path])


def positive_int(text: str) -> int:
    """argparse type of an integer >= 1 (--context-window)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return value


def _predictor_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments validate and sensitivity share: the dataset and the
    predictor with its external settings."""
    p.add_argument("dataset_dir")
    p.add_argument("--model", required=True,
                   help="markov:K | mmc[:M] | top_frequency | "
                        "random_uniform | external")
    p.add_argument("--external-cmd", default=None,
                   help="command line for --model external")
    p.add_argument("--context-window", type=positive_int, default=64,
                   help="history cap shipped to external predictors")


def _predictor_config(args, **schemes) -> dict:
    """The manifest config of validate (scheme) or sensitivity (schemes)."""
    return {"model": args.model, **schemes, "seed": args.seed,
            "context_window": args.context_window}


def validate_arguments(p: argparse.ArgumentParser) -> None:
    _predictor_arguments(p)
    p.add_argument("--scheme", required=True,
                   help="e.g. block_rolling:k=10,p=1 or holdout:split=0.8")


def cmd_validate(args) -> Run:
    ds = load_dataset(args.dataset_dir)
    spec = parse_model_arg(args.model, args.external_cmd)
    plan = parse_scheme_arg(args.scheme, args.seed, True,
                            args.context_window)
    result = evaluate(ds, spec, plan)
    out = _out_file(args, "folds.csv")
    write_folds_csv(out, result.fold_results)
    results_path = out.parent / "results.json"
    write_canonical_json(results_path, result.to_dict())
    bits = (
        f"{result.bits_weighted:.4f}"
        if result.bits_weighted is not None else "n/a"
    )
    print(
        f"{result.model_label} under {result.plan_label} "
        f"({'leaky' if result.leaky else 'leakage-free'}): "
        f"accuracy user-mean {result.accuracy_user_mean:.4f}, "
        f"weighted {result.accuracy_weighted:.4f}, bits/symbol {bits}, "
        f"{result.n_predictions} predictions -> {out}"
    )
    return Run(out, _predictor_config(args, scheme=args.scheme),
               dataset_digest(args.dataset_dir), [out, results_path])


def sensitivity_arguments(p: argparse.ArgumentParser) -> None:
    _predictor_arguments(p)
    p.add_argument("--schemes", default=None,
                   help="semicolon-separated scheme specs; default grid "
                        "holdout .8/.7/.6 + kfold 3/5/10")


def cmd_sensitivity(args) -> Run:
    ds = load_dataset(args.dataset_dir)
    spec = parse_model_arg(args.model, args.external_cmd)
    if args.schemes:
        plans = [
            parse_scheme_arg(s.strip(), args.seed, True, args.context_window)
            for s in args.schemes.split(";")
        ]
        if len(plans) < 2:
            raise UsageError(
                f"--schemes needs at least 2 schemes to compare, "
                f"got {len(plans)}"
            )
    else:
        plans = default_sensitivity_plans(args.seed, args.context_window)
    rows = validation_sensitivity(ds, spec, plans)
    out = _out_file(args, "table.csv")
    write_sensitivity_csv(out, rows)
    rows_json = out.parent / "sensitivity.json"
    write_canonical_json(
        rows_json,
        {"model": spec.label, "rows": [asdict(r) for r in rows]},
    )
    spread = max(r.accuracy_user_mean for r in rows) - min(
        r.accuracy_user_mean for r in rows
    )
    for r in rows:
        tag = "leaky" if r.leaky else "ok"
        print(
            f"{r.scheme:>10} {r.params:<24} "
            f"acc {r.accuracy_user_mean:.4f} ({tag})"
        )
    print(f"spread across schemes: {spread:.4f} -> {out}")
    return Run(out, _predictor_config(args, schemes=args.schemes),
               dataset_digest(args.dataset_dir), [out, rows_json])


def recommend_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("report", help="characterization report.json")
    p.add_argument("--rules", default=None, help="rules JSON file")


def cmd_recommend(args) -> Run:
    report = report_from_dict(read_json(args.report))
    rules = load_rules(args.rules) if args.rules else None
    rec = recommend(report, rules)
    out = _out_file(args, "recommendation.json")
    write_canonical_json(out, rec.to_dict())
    print(f"verdict: {rec.verdict}  (rule {rec.fired_rule}: {rec.rationale})")
    for entry in rec.trace:
        conds = (
            ", ".join(
                f"{k}={c['value']:.4g} vs {c['threshold']:g} "
                f"[{'Y' if c['satisfied'] else 'n'}]"
                for k, c in entry["conditions"].items()
            )
            or "always"
        )
        mark = "*" if entry["fired"] else " "
        print(f" {mark} {entry['rule']}: {conds} -> "
              f"{entry['verdict_if_matched']}")
    config = {"report": str(args.report), "rules": args.rules}
    return Run(out, config, "sha256:" + sha256_file(args.report), [out])


def report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset_dir")
    p.add_argument("--characterization", required=True)
    p.add_argument("--validation", nargs="*", default=None,
                   help="results.json files from validate runs")
    p.add_argument("--recommendation", default=None)
    p.add_argument("--sensitivity", default=None,
                   help="sensitivity.json from a sensitivity run")


def cmd_report(args) -> Run:
    out_dir = _require_out(args, "report directory")
    ds = load_dataset(args.dataset_dir)
    summary = bundle_report(
        ds,
        out_dir,
        characterization_path=args.characterization,
        validation_paths=args.validation or (),
        recommendation_path=args.recommendation,
        sensitivity_path=args.sensitivity,
    )
    print(stats_table([summary["dataset"]]), end="")
    print(f"report bundle -> {out_dir}")
    config = {
        "characterization": str(args.characterization),
        "validation": [str(p) for p in (args.validation or [])],
        "recommendation": args.recommendation,
        "sensitivity": args.sensitivity,
    }
    return Run(out_dir, config, dataset_digest(args.dataset_dir),
               bundle_files(out_dir))


@dataclass(frozen=True)
class Command:
    """One subcommand: its name, help line, handler and arguments."""

    name: str
    help: str
    func: Callable[[argparse.Namespace], Run]
    add_arguments: Callable[[argparse.ArgumentParser], None]

    def define(self, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        """p with this command's arguments and defaults (func, command)."""
        self.add_arguments(p)
        p.set_defaults(func=self.func, command=self.name)
        return p


COMMANDS = {c.name: c for c in (
    Command("ingest", "parse raw trajectories or symbol streams",
            cmd_ingest, ingest_arguments),
    Command("extract-poi", "staypoints -> POI alphabet -> sequences",
            cmd_extract_poi, extract_poi_arguments),
    Command("synth", "generate a synthetic dataset with ground truth",
            cmd_synth, synth_arguments),
    Command("characterize", "meta-attribute report plus plot CSVs",
            cmd_characterize, characterize_arguments),
    Command("validate", "evaluate one predictor under one split scheme",
            cmd_validate, validate_arguments),
    Command("sensitivity", "accuracy instability across split schemes",
            cmd_sensitivity, sensitivity_arguments),
    Command("recommend", "threshold rules -> model-class verdict",
            cmd_recommend, recommend_arguments),
    Command("report", "bundle component outputs into one directory",
            cmd_report, report_arguments),
)}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with no command the full parser.

    A command's parser (prog "mobmeta <command>") holds that command's
    arguments alone.  The full parser ("mobmeta") holds --version and
    every command as a subparser built from the same definitions; only
    the top-level help and the errors of a missing or unknown command
    need it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=_env_int("MOBMETA_SEED", 0),
        help="RNG seed (MOBMETA_SEED)",
    )
    common.add_argument(
        "--out", default=_default_out(None),
        help="output file or directory (MOBMETA_OUT)",
    )
    if command is not None:
        return COMMANDS[command].define(
            argparse.ArgumentParser(prog=f"mobmeta {command}",
                                    parents=[common])
        )

    ap = argparse.ArgumentParser(
        prog="mobmeta",
        description="POI-sequence dataset characterization, model "
        "recommendation, and leakage-free predictor validation",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for c in COMMANDS.values():
        c.define(sub.add_parser(c.name, parents=[common], help=c.help))
    return ap


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the command argv[0] names, else by
    the full parser (help, --version, a missing or unknown command)."""
    if argv and argv[0] in COMMANDS:
        return build_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand; the exit code maps the error kind (see above)."""
    t0 = time.monotonic()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                run = args.func(args)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        write_manifest(run, ["mobmeta"] + argv, t0)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except InfeasiblePlanError as e:
        print(f"infeasible plan: {e}", file=sys.stderr)
        return 4
    except (DataError, OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
