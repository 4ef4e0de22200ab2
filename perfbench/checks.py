"""Output checks.  Every command and every check is one attempted
operation; a failure of either counts towards failed_ops_ratio."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from workloads import OUT

TIME_ORDERED = ("rolling", "block_rolling", "window10_cumulative")


def option(argv: list[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def tree_digest(directory: Path, skip=("run_manifest.json",)) -> dict:
    """sha256 of every file under directory, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def sequence_lengths(dataset_dir: Path) -> list[int]:
    with open(dataset_dir / "sequences.jsonl", encoding="utf-8") as f:
        return [len(json.loads(line)["symbols"]) for line in f if line.strip()]


def expected_predictions(lengths: list[int], scheme: str,
                         model: str) -> Optional[int]:
    """Test positions a time-ordered plan implies, from the block arithmetic.

    k blocks of n//k symbols (remainder to the last block); rolling and
    window10_cumulative test blocks 1..k-1, block_rolling tests blocks
    p..k-1.  A user whose blocks hold < 2 symbols, or whose first training
    window is too short for the model, is excluded.  None for other plans.
    """
    name, _, params = scheme.partition(":")
    if name not in TIME_ORDERED:
        return None
    kv = dict(part.split("=", 1) for part in params.split(",") if part)
    k = 10 if name == "window10_cumulative" else int(kv.get("k", 10))
    p = int(kv.get("p", 1)) if name == "block_rolling" else 1
    kind, _, arg = model.partition(":")
    need_train = {"markov": int(arg or 1) + 1, "mmc": 2}.get(kind, 1)
    total = 0
    for n in lengths:
        b = n // k
        if b < 2 or p * b < need_train:
            continue
        total += n - p * b
    return total


class Checker:
    def __init__(self, schema_dir: Path):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first_digest: Optional[dict] = None
        self._schemas = {}
        try:
            import jsonschema
        except ImportError:
            self._validate = None
        else:
            self._validate = jsonschema.validate
            self._invalid = (jsonschema.ValidationError,
                             jsonschema.SchemaError)
            for kind in ("report", "summary"):
                self._schemas[kind] = json.loads(
                    (schema_dir / f"{kind}.schema.json").read_text("utf-8"))

    @property
    def schemas_checked(self) -> bool:
        return self._validate is not None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def command(self, argv: list[str], rc, output: str) -> None:
        tail = output.strip().splitlines()[-1:] if output.strip() else []
        self.check(rc == 0, f"{' '.join(argv[:2])}: exit {rc} {tail}")

    def _schema(self, kind: str, path: Path) -> None:
        if self._validate is None:
            return
        try:
            self._validate(json.loads(path.read_text("utf-8")),
                           self._schemas[kind])
            ok, why = True, ""
        except (*self._invalid, OSError, ValueError) as e:
            ok, why = False, str(e).splitlines()[0]
        self.check(ok, f"{path.name} fails {kind} schema: {why}")

    def _validate_run(self, argv: list[str]) -> None:
        results = Path(option(argv, "--out")).parent / "results.json"
        try:
            res = json.loads(results.read_text("utf-8"))
            lengths = sequence_lengths(Path(argv[1]))
        except (OSError, ValueError, KeyError) as e:
            self.check(False, f"{results}: unreadable ({e})")
            return
        scheme, model = option(argv, "--scheme"), option(argv, "--model")
        want = expected_predictions(lengths, scheme, model)
        if want is not None:
            self.check(res.get("n_predictions") == want,
                       f"{model} {scheme}: n_predictions "
                       f"{res.get('n_predictions')} != {want}")
        bad = [f for f in res.get("folds", [])
               if not f["leaky"] and f["train_hi"] > f["test_lo"]]
        self.check(not bad, f"{model} {scheme}: {len(bad)} folds train on "
                   "the future")

    def iteration(self, workload, argvs: list[list[str]], out: Path) -> None:
        """All output checks of one finished chain."""
        for argv in argvs:
            if argv[0] == "characterize":
                self._schema("report", Path(option(argv, "--out")))
            elif argv[0] == "report":
                self._schema("summary", Path(option(argv, "--out"))
                             / "summary.json")
            elif argv[0] == "validate":
                self._validate_run(argv)
        if workload.planted_gap is not None:
            report = next(Path(option(a, "--out")) for a in argvs
                          if a[0] == "characterize")
            try:
                curve = json.loads(report.read_text("utf-8"))["mi_curve"]
                peak = max(curve, key=lambda e: e[1])[0] if curve else None
            except (OSError, ValueError, KeyError) as e:
                peak = f"unreadable ({e})"
            self.check(peak == workload.planted_gap,
                       f"MI curve peaks at d={peak}, planted gap is "
                       f"{workload.planted_gap}")
        if workload.same_result is not None:
            keys = ("accuracy_user_mean", "accuracy_weighted",
                    "bits_user_mean", "bits_weighted", "n_predictions")
            try:
                a, b = (json.loads(Path(p.replace(OUT, str(out)))
                                   .read_text("utf-8"))
                        for p in workload.same_result)
                diff = [k for k in keys if a.get(k) != b.get(k)]
            except (OSError, ValueError) as e:
                diff = [f"unreadable ({e})"]
            self.check(not diff, f"external and native results differ in "
                       f"{diff}")
        digest = tree_digest(out)
        if self._first_digest is None:
            self._first_digest = digest
        changed = sorted(k for k in digest.keys() | self._first_digest.keys()
                         if digest.get(k) != self._first_digest.get(k))
        self.check(not changed, f"artifacts differ from the first "
                   f"iteration: {changed[:5]}")
