"""Command-line interface: ingest, extract-poi, synth, characterize,
validate, sensitivity, recommend, and report bundling.

Exit codes: 0 success, 2 usage error, 3 data error, 4 infeasible plan.
main() runs every command the same way: warnings raised during the
command print to stderr as "warning: <message>" (also when it fails),
and a command that succeeds gets exactly one run_manifest.json beside
its outputs, recording the command line, the config hash, the dataset
hash, tool version, wall time, and output paths.  The dataset hash is the
ingest.dataset_digest of the dataset or raw directory the command read
or wrote, or the sha256 of the report that recommend reads.  Only synth,
validate and sensitivity take --seed.  An option that selects a kind (synth
--kind, ingest --format, --model) reads only its own options: one given
that it does not read is a usage error, and one left out is left to the
record's default.  A synth kind reads the options of its fields in
synth.KIND_FIELDS.

Each command is defined once, in COMMANDS: its name, help line, handler,
the function that adds its arguments, and what it writes: a file --out
(with a default name) and the files beside it, or a directory --out
(required) and the files inside it.  Before any input is read, one rule
checks both kinds: an --out of the wrong kind, a file --out named like a
file written beside it or like run_manifest.json, a nearest existing
ancestor of --out that is not a directory, and an output or manifest
path that is an existing directory are usage errors.  The manifest lists
those files as its outputs.

A command line that starts with a command name is parsed by that
command's own parser (prog "mobmeta <command>"), so a command builds
only its own arguments.  The full parser, every command as a subparser
of "mobmeta", is built from the same definitions only for the top-level
help, --version, and a missing or unknown command.
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
    characterize,
    per_user_attribute_matrix,
    read_report,
)
from .core import DataError, InfeasiblePlanError
from .ingest import (
    CSV_COLUMNS,
    DATASET_FILES,
    RAW_FILES,
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
    record_dict,
    sha256_file,
    write_canonical_json,
)
from .metrics import attribute_correlations, match_structure
from .poi import ExtractionParams, extract_dataset
from .predictors import PredictorSpec, parse_model
from .report import (
    BUNDLE_FILES,
    bundle_report,
    stats_table,
    write_corr_matrix_csv,
    write_folds_csv,
    write_match_structure_csv,
    write_mi_curve_csv,
    write_sensitivity_csv,
)
from .selector import recommend
from .synth import (
    KIND_FIELDS,
    SourceSpec,
    generate,
    spec_from_dict,
    spec_to_dict,
)
from .validation import (
    SCHEME_PARAMS,
    ValidationPlan,
    default_sensitivity_plans,
    evaluate,
    validation_sensitivity,
)


class UsageError(Exception):
    """Bad arguments detected after argparse; exits 2 like argparse."""


@dataclass(frozen=True)
class Run:
    """What a finished command records in its run_manifest.json besides
    the files it wrote, which main() knows from the command's Command."""

    config: dict
    dataset_hash: str | None


def write_manifest(path: Path, run: Run, outputs: list[Path],
                   argv: list[str], t0: float) -> None:
    """The run_manifest.json of a command that wrote `outputs`."""
    config_hash = (
        "sha256:"
        + hashlib.sha256(canonical_dumps(run.config).encode("utf-8")).hexdigest()
    )
    write_canonical_json(
        path,
        {
            "command_line": argv,
            "config_hash": config_hash,
            "dataset_hash": run.dataset_hash,
            "tool_version": __version__,
            "wall_time_s": round(time.monotonic() - t0, 6),
            "outputs": sorted(str(p) for p in outputs),
        },
    )


def parse_cols(text: str) -> dict:
    """"user=0,lat=1,lon=2,t=3" -> column_map dict.  An entry whose name
    is not one of CSV_COLUMNS or comes twice, or whose index is not an
    integer >= 0, is a usage error naming it; so is a column of
    CSV_COLUMNS that no entry names."""
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
        if key in out:
            raise UsageError(f"--cols entry {part!r}: column {key!r} given "
                             f"twice in {text!r}")
        out[key] = index
    missing = [key for key in CSV_COLUMNS if key not in out]
    if missing:
        raise UsageError(f"--cols {text!r} has no index for column "
                         f"{', '.join(missing)}")
    return out


def _yes_no(text: str) -> bool:
    """true/false, 1/0 or yes/no in any case; ValueError otherwise, so a
    typo such as shuffled=ture is refused rather than read as false."""
    value = text.lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# every parameter some scheme reads
_SCHEME_KEYS = {key for keys in SCHEME_PARAMS.values() for key in keys}


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
    name, colon, params = text.partition(":")
    kwargs: dict = {}
    if colon:
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
            default = getattr(ValidationPlan, key)
            read = _yes_no if type(default) is bool else type(default)
            try:
                kwargs[key] = read(value)
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


def _given(args, flag: str, reads: tuple, options: dict) -> dict:
    """{field: reader(value)} of the `options` (option -> (field, reader))
    given; one that the chosen `flag` does not read, or two that set one
    field, is a usage error."""
    fields, setters = {}, {}
    for option, (field, read) in options.items():
        value = getattr(args, option[2:].replace("-", "_"))
        if value is None:
            continue
        if option not in reads:
            raise UsageError(
                f"{flag} {getattr(args, flag[2:])} does not read {option}; "
                f"it reads: {', '.join(reads) or 'none'}"
            )
        if field in setters:
            raise UsageError(f"{setters[field]} and {option} both set "
                             f"{field}; give one of them")
        setters[field] = option
        fields[field] = read(value)
    return fields


def _spec_file(path: str, as_spec):
    """The JSON value in a file, checked whole as the source spec that
    `as_spec` makes of it; exits 3 naming the file."""
    value = read_json(path)
    try:
        spec_from_dict(as_spec(value))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    return value


def _regime_file(path: str):
    """A regime's source spec in a JSON file, checked whole: its kind's
    fields only, since the regime_switch spec sets n_symbols, n_users and
    seed."""
    return _spec_file(path, lambda spec: {
        "kind": "regime_switch", "n_symbols": 2, "spec_a": spec,
        "spec_b": spec})


def _transition_file(path: str):
    """markov_order_k's transition table in a JSON file, checked whole."""
    return _spec_file(path, lambda table: {
        "kind": "markov_order_k", "n_symbols": 2, "transition": table})


def _spec_from_args(args) -> SourceSpec:
    """spec_from_dict of synth's options: the kind reads those whose field
    is one of its KIND_FIELDS, and an iid given neither --alphabet-size
    nor --dist is uniform over 4 POIs."""
    reads = tuple(option for option, (field, _) in _SYNTH_FIELDS.items()
                  if field in KIND_FIELDS[args.kind])
    fields = _given(args, "--kind", reads, _SYNTH_FIELDS)
    if args.users is not None:
        fields["n_users"] = args.users
    if args.kind == "iid" and "dist" not in fields:
        fields["dist"] = _uniform(4)
    try:
        return spec_from_dict({"kind": args.kind, "n_symbols": args.n,
                               "seed": args.seed, **fields})
    except DataError as e:
        # name the option that set the field whose value the spec refuses
        field = getattr(e.__cause__, "field", None)
        setters = {"--n": "n_symbols", "--users": "n_users",
                   **{o: f for o, (f, _) in _SYNTH_FIELDS.items()}}
        for option, name in setters.items():
            value = getattr(args, option[2:].replace("-", "_"))
            if name == field and value is not None:
                raise UsageError(f"{option} {value}: {e.__cause__}") from None
        # no option set that field: the kind needs one that does
        needs = [o for o in reads if _SYNTH_FIELDS[o][0] == field]
        if needs:
            raise UsageError(f"--kind {args.kind} needs "
                             f"{' or '.join(needs)}") from None
        raise UsageError(str(e)) from None


# ingest's format-specific options with the IngestConfig field and reader
# of each, and the ones each --format reads
_INGEST_FIELDS = {"--cols": ("column_map", parse_cols),
                  "--tz-offset": ("tz_offset_seconds", int),
                  "--dedup": ("dedup_policy", str)}
_FORMAT_OPTIONS = {"csv_gps": ("--cols", "--tz-offset", "--dedup"),
                   "plt_geolife_like": ("--tz-offset", "--dedup"),
                   "symbols_jsonl": ()}


def ingest_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--format", default="csv_gps",
                   choices=list(_FORMAT_OPTIONS))
    p.add_argument("--cols")
    p.add_argument("--tz-offset", type=int,
                   help="seconds added to every timestamp (0: input is UTC)")
    p.add_argument("--dedup", choices=["drop_equal_timestamp", "error"])


def cmd_ingest(args, out_dir: Path) -> Run:
    cfg = IngestConfig(format=args.format, **_given(
        args, "--format", _FORMAT_OPTIONS[args.format], _INGEST_FIELDS))
    name = Path(args.input).stem
    config = {**asdict(cfg), "name": name}
    if args.format == "symbols_jsonl":
        ds = load_symbols_jsonl(args.input, name=name)
        save_dataset(ds, out_dir)
        print(
            f"ingested {ds.n_users} users, {ds.alphabet.size} POIs -> {out_dir}"
        )
        return Run(config, dataset_digest(out_dir))
    trajs, rep = parse_raw_with_report(args.input, cfg)
    save_raw(
        trajs, out_dir, name,
        provenance={"format": cfg.format, "source_path": Path(args.input).name},
    )
    write_canonical_json(out_dir / "ingest_report.json", record_dict(rep))
    print(
        f"ingested {rep.points_kept} points from {rep.rows_read} rows "
        f"({len(rep.rejects)} rejected) for {len(trajs)} users -> {out_dir}"
    )
    return Run(config, dataset_digest(out_dir, RAW_FILES))


# the ExtractionParams field that each extract-poi option sets and defaults to
_EXTRACT_FIELDS = {"--stay-radius": "stay_radius_m",
                   "--stay-min": "stay_min_duration_s",
                   "--merge-radius": "cluster_merge_radius_m",
                   "--min-visits": "min_visits"}


def extract_poi_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("raw_dir")
    for option, field in _EXTRACT_FIELDS.items():
        default = getattr(ExtractionParams, field)
        p.add_argument(option, type=type(default), default=default)


def cmd_extract_poi(args, out_dir: Path) -> Run:
    given = {option: getattr(args, option[2:].replace("-", "_"))
             for option in _EXTRACT_FIELDS}
    try:
        params = ExtractionParams(
            **{_EXTRACT_FIELDS[option]: v for option, v in given.items()})
    except DataError as e:
        # each refusal starts with the field's name: name its option
        option = next(o for o, f in _EXTRACT_FIELDS.items()
                      if str(e).startswith(f + " "))
        raise UsageError(f"{option} {given[option]}: {e}") from None
    trajs = load_raw(args.raw_dir)
    # the directory's own name, also for "." or "data/raw/.."
    name = Path(os.path.abspath(args.raw_dir)).name
    ds = extract_dataset(trajs, params, name)
    save_dataset(ds, out_dir)
    config = {**asdict(params), "name": name}
    excluded = ds.provenance.get("excluded_short_users", [])
    print(
        f"extracted {ds.alphabet.size} POIs, {ds.n_users} users "
        f"({len(excluded)} excluded as too short) -> {out_dir}"
    )
    return Run(config, dataset_digest(out_dir))


def _uniform(m: int) -> list[float]:
    """iid's dist over m POIs; empty, and refused by the spec, for m < 1."""
    return [1.0 / m for _ in range(m)]


# synth's kind-specific options with the SourceSpec field and reader of
# each; a --kind reads the options of its KIND_FIELDS, so iid reads both
# --alphabet-size (a uniform dist) and --dist, one at a time
_SYNTH_FIELDS = {
    "--alphabet-size": ("dist", _uniform),
    "--dist": ("dist", lambda text: text.split(",")),
    "--pattern": ("pattern", lambda text: text.split(",")),
    "--transition": ("transition", _transition_file),
    "--k": ("gap", int),
    "--eps": ("eps", float),
    "--spec-a": ("spec_a", _regime_file),
    "--spec-b": ("spec_b", _regime_file),
    "--switch-fraction": ("switch_fraction", float),
}


def synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="iid", choices=list(KIND_FIELDS))
    p.add_argument("--n", type=int, default=10000,
                   help="symbols per user before collapse")
    p.add_argument("--users", type=int)
    p.add_argument("--alphabet-size", type=int)
    p.add_argument("--dist", help="iid probabilities, comma-separated")
    p.add_argument("--pattern", help="periodic symbols, comma-separated")
    p.add_argument("--transition", help="JSON file with the transition table")
    p.add_argument("--k", type=int, help="copy_with_gap gap")
    p.add_argument("--eps", type=float, help="copy noise")
    p.add_argument("--spec-a", help="regime A spec JSON file")
    p.add_argument("--spec-b", help="regime B spec JSON file")
    p.add_argument("--switch-fraction", type=float)


def cmd_synth(args, out_dir: Path) -> Run:
    spec = _spec_from_args(args)
    ds, ground_truth = generate(spec)
    save_dataset(ds, out_dir)
    write_canonical_json(out_dir / "ground_truth.json", ground_truth)
    print(
        f"generated {spec.kind}: {ds.n_users} users, "
        f"alphabet {ds.alphabet.size} -> {out_dir}"
    )
    return Run(spec_to_dict(spec), dataset_digest(out_dir))


def characterize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset_dir")
    p.add_argument("--dmax", type=positive_int, default=100,
                   help="largest MI distance d, capped below stream length/10")


def cmd_characterize(args, out: Path, mi_path: Path, ms_path: Path,
                     corr_path: Path) -> Run:
    ds = load_dataset(args.dataset_dir)
    report = characterize(ds, args.dmax)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_canonical_json(out, report.to_dict())
    write_mi_curve_csv(mi_path, report.mi_curve)

    # over the users the report kept, as its MI curve and PMI
    triples = match_structure(report.stream)
    write_match_structure_csv(ms_path, *triples.T)

    try:
        kept, corr = attribute_correlations(*per_user_attribute_matrix(report))
    except DataError as e:
        # too few or identical users leave nothing to correlate; not fatal
        kept, corr = [], []
        print(f"warning: {e}, correlation matrix skipped", file=sys.stderr)
    write_corr_matrix_csv(corr_path, kept, corr)

    print(
        f"{report.dataset_name}: {report.n_users} users, "
        f"{report.n_pois} POIs, entropy {report.entropy_bits_mean:.3f} bits, "
        f"predictability {report.predictability_mean:.4f} -> {out}"
    )
    for note in report.warnings:
        print(f"note: {note}", file=sys.stderr)
    return Run({"d_max": args.dmax}, dataset_digest(args.dataset_dir))


def positive_int(text: str) -> int:
    """argparse type of an integer >= 1 (--dmax, --context-window)."""
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
    p.add_argument("--external-cmd", help="command line for --model external")
    p.add_argument("--context-window", type=positive_int,
                   help="history cap shipped to external predictors")


# the options that --model external reads; a native model reads none
_MODEL_FIELDS = {"--external-cmd": ("external_cmd", str),
                 "--context-window": ("context_window", int)}


def _predictor(args) -> tuple[PredictorSpec, int, dict]:
    """predictors.parse_model of --model, its plans' context window and
    the manifest config, which records the window of an external model
    only; exits 2 on a bad model or options."""
    external = args.model.partition(":")[0] == "external"
    fields = _given(args, "--model", tuple(_MODEL_FIELDS) if external else (),
                    _MODEL_FIELDS)
    if external and not fields.get("external_cmd"):
        raise UsageError("external model needs --external-cmd")
    try:
        spec = parse_model(args.model,
                           shlex.split(fields.get("external_cmd", "")))
    except ValueError as e:
        raise UsageError(str(e)) from None
    window = fields.get("context_window",
                        ValidationPlan.external_context_window)
    config = {"model": args.model, "seed": args.seed}
    if external:
        config["context_window"] = window
    return spec, window, config


def validate_arguments(p: argparse.ArgumentParser) -> None:
    _predictor_arguments(p)
    p.add_argument("--scheme", required=True,
                   help="e.g. block_rolling:k=10,p=1 or holdout:split=0.8")


def cmd_validate(args, out: Path, results_path: Path) -> Run:
    spec, window, config = _predictor(args)
    plan = parse_scheme_arg(args.scheme, args.seed, True, window)
    ds = load_dataset(args.dataset_dir)
    result = evaluate(ds, spec, plan)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_folds_csv(out, result.folds)
    write_canonical_json(results_path, result.to_dict())
    bits = (
        f"{result.bits_weighted:.4f}"
        if result.bits_weighted is not None else "n/a"
    )
    print(
        f"{result.model} under {result.plan} "
        f"({'leaky' if result.leaky else 'leakage-free'}): "
        f"accuracy user-mean {result.accuracy_user_mean:.4f}, "
        f"weighted {result.accuracy_weighted:.4f}, bits/symbol {bits}, "
        f"{result.n_predictions} predictions -> {out}"
    )
    return Run({**config, "scheme": args.scheme},
               dataset_digest(args.dataset_dir))


def sensitivity_arguments(p: argparse.ArgumentParser) -> None:
    _predictor_arguments(p)
    p.add_argument("--schemes", default=None,
                   help="semicolon-separated scheme specs; default grid "
                        "holdout .8/.7/.6 + kfold 3/5/10")


def cmd_sensitivity(args, out: Path, rows_json: Path) -> Run:
    spec, window, config = _predictor(args)
    if args.schemes:
        plans = [
            parse_scheme_arg(s.strip(), args.seed, True, window)
            for s in args.schemes.split(";")
        ]
        if len(plans) < 2:
            raise UsageError(
                f"--schemes needs at least 2 schemes to compare, "
                f"got {len(plans)}"
            )
    else:
        plans = default_sensitivity_plans(args.seed, window)
    rows = validation_sensitivity(load_dataset(args.dataset_dir), spec, plans)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sensitivity_csv(out, rows)
    write_canonical_json(
        rows_json,
        {"model": spec.label, "rows": [record_dict(r) for r in rows]},
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
    return Run({**config, "schemes": args.schemes},
               dataset_digest(args.dataset_dir))


def recommend_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("report", help="characterization report.json")


def cmd_recommend(args, out: Path) -> Run:
    rec = recommend(read_report(args.report))
    out.parent.mkdir(parents=True, exist_ok=True)
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
    return Run({"report": str(args.report)},
               "sha256:" + sha256_file(args.report))


def report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset_dir")
    p.add_argument("--characterization", required=True)
    p.add_argument("--validation", nargs="*", default=None,
                   help="results.json files from validate runs")
    p.add_argument("--recommendation", default=None)
    p.add_argument("--sensitivity", default=None,
                   help="sensitivity.json from a sensitivity run")


def cmd_report(args, out_dir: Path) -> Run:
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
    return Run(config, dataset_digest(args.dataset_dir))


MANIFEST = "run_manifest.json"


@dataclass(frozen=True)
class Command:
    """One subcommand: its name, help line, handler, arguments and what it
    writes.  A command with a default `out` writes that file, or the file
    --out names, and `files` beside it; one without writes `files` inside
    the directory --out names, which must be given.  `files` is a function
    of the arguments where they choose it (ingest --format).  A `seeded`
    command takes --seed."""

    name: str
    help: str
    func: Callable[..., Run]
    add_arguments: Callable[[argparse.ArgumentParser], None]
    out: str | None
    files: tuple[str, ...] | Callable[[argparse.Namespace], tuple[str, ...]]
    seeded: bool = False

    def define(self, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        """p with this command's arguments and defaults (func, command)."""
        if self.seeded:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", help="output file or directory")
        self.add_arguments(p)
        p.set_defaults(func=self.func, command=self.name)
        return p

    def outputs(self, args) -> tuple[list[Path], list[Path], Path]:
        """The paths the handler takes after args (--out, then the files
        beside a file --out), every file the command writes, and the path
        of its manifest, checked by the rule in the module docstring: a
        path that could not be written is refused before any work."""
        files = self.files(args) if callable(self.files) else self.files
        directory = self.out is None
        if directory and not args.out:
            raise UsageError(f"--out is required ({self.name} writes a "
                             f"directory)")
        out = Path(args.out or self.out)
        if not directory and out.name in (*files, MANIFEST):
            raise UsageError(f"--out {out}: {self.name} writes its own "
                             f"{out.name} beside it")
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if nearest == out and out.is_dir() != directory:
            raise UsageError(
                f"--out {out} is {'not ' * directory}a directory; {self.name} "
                f"writes a {'directory' if directory else 'file'} there")
        if nearest != out and not nearest.is_dir():
            raise UsageError(f"--out {out}: {nearest} is not a directory")
        folder = out if directory else out.parent
        paths = [folder / name for name in files]
        for path in (*paths, folder / MANIFEST):
            if path.is_dir():
                raise UsageError(f"--out {out}: {path} is a directory; "
                                 f"{self.name} writes a file there")
        if directory:
            return [out], paths, folder / MANIFEST
        return [out, *paths], [out, *paths], folder / MANIFEST


COMMANDS = {c.name: c for c in (
    Command("ingest", "parse raw trajectories or symbol streams",
            cmd_ingest, ingest_arguments, None,
            lambda args: DATASET_FILES if args.format == "symbols_jsonl"
            else RAW_FILES + ("ingest_report.json",)),
    Command("extract-poi", "staypoints -> POI alphabet -> sequences",
            cmd_extract_poi, extract_poi_arguments, None, DATASET_FILES),
    Command("synth", "generate a synthetic dataset with ground truth",
            cmd_synth, synth_arguments, None,
            DATASET_FILES + ("ground_truth.json",), seeded=True),
    Command("characterize", "meta-attribute report plus plot CSVs",
            cmd_characterize, characterize_arguments, "report.json",
            ("mi_curve.csv", "match_structure.csv", "corr_matrix.csv")),
    Command("validate", "evaluate one predictor under one split scheme",
            cmd_validate, validate_arguments, "folds.csv", ("results.json",),
            seeded=True),
    Command("sensitivity", "accuracy instability across split schemes",
            cmd_sensitivity, sensitivity_arguments, "table.csv",
            ("sensitivity.json",), seeded=True),
    Command("recommend", "threshold rules -> model-class verdict",
            cmd_recommend, recommend_arguments, "recommendation.json", ()),
    Command("report", "bundle component outputs into one directory",
            cmd_report, report_arguments, None, BUNDLE_FILES),
)}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, or with no command the full parser.

    A command's parser (prog "mobmeta <command>") holds that command's
    arguments alone.  The full parser ("mobmeta") holds --version and
    every command as a subparser built from the same definitions; only
    the top-level help and the errors of a missing or unknown command
    need it.
    """
    if command is not None:
        return COMMANDS[command].define(
            argparse.ArgumentParser(prog=f"mobmeta {command}"))

    ap = argparse.ArgumentParser(
        prog="mobmeta",
        description="POI-sequence dataset characterization, model "
        "recommendation, and leakage-free predictor validation",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for c in COMMANDS.values():
        c.define(sub.add_parser(c.name, help=c.help))
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
        paths, outputs, manifest = COMMANDS[args.command].outputs(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                run = args.func(args, *paths)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        write_manifest(manifest, run, outputs, ["mobmeta"] + argv, t0)
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
