"""Split schemes and the evaluation harness: accuracy and bits/symbol
under teacher forcing.

The time-ordered family (rolling, block_rolling, window10_cumulative)
is structurally leakage-free: every fold satisfies max(train index) <
min(test index), asserted at construction.  The conventional schemes
(holdout, kfold, leave_one_out, bootstrap) are retained on purpose for
the sensitivity demonstration and always tagged leaky=True in outputs;
the tag marks them as outside the certified time-ordered family, not a
claim that each individual fold mixes time.  holdout is the plain case:
its one fold trains on [0, m) and tests [m, n), so per user it never
trains on the future.  Its fault is the single split: one split point
decides the whole score, and no second fold shows how much it moved it.

Every user is split and scored on their own stream.  max(train) <
min(test) orders positions, and positions follow time only within one
user: in a stream of users joined end to end, a fold could train on one
user's late visits and test another's earlier ones.

Each fold trains on its distinct train positions in time order (a
bootstrap fold's repeated draws count once).  When the previous fold's
positions are a prefix of this fold's, as in the expanding windows of
rolling and window10_cumulative, the previous native model is extended
with `predictors.retrain` on the remainder instead of refitting; that
equals training on the whole prefix.  A native model scores all test
positions of a fold in one `score` call, which returns each position's
argmax and the probability of its true symbol.  An external predictor
gets a child of its own per fold and one PREDICT request per test
position.  Each child sees one fold only, and strictly alternates: its
next request goes out only once its last response has been read.  But
the folds of every user are queued together and up to MAX_CHILDREN of
them are in conversation at once, in one selectors loop, so one child's
start-up, round trips and exit overlap the others'.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DataError, Dataset, InfeasiblePlanError
from .predictors import (
    ExternalModel, Pipes, PredictorSpec, request_block, request_lines,
    retrain, train,
)
from .rng import SplitMix64

LEAKY_SCHEMES = frozenset({"holdout", "kfold", "leave_one_out", "bootstrap"})
TIME_ORDERED_SCHEMES = frozenset(
    {"rolling", "block_rolling", "window10_cumulative"}
)

# The ValidationPlan parameters each scheme reads, in the order its label
# shows them.  A scheme ignores every other parameter, so the command
# line refuses them.
SCHEME_PARAMS = {
    "holdout": ("split",),
    "kfold": ("k", "shuffled"),
    "leave_one_out": (),
    "bootstrap": ("iterations",),
    "rolling": ("k",),
    "block_rolling": ("k", "p"),
    "window10_cumulative": (),
}

# At most this many children of an external predictor are alive at once.
MAX_CHILDREN = 4


@dataclass(frozen=True)
class ValidationPlan:
    """One split scheme with its parameters.

    split is the holdout train fraction; k the number of kfold folds or
    of rolling and block_rolling blocks; p the train blocks of
    block_rolling; iterations drives bootstrap; shuffled applies to
    kfold (SCHEME_PARAMS).  external_context_window caps how much
    revealed history is shipped to external predictors per prediction.
    """

    scheme: str
    split: float = 0.8
    k: int = 10
    p: int = 1
    iterations: int = 20
    shuffled: bool = True
    seed: int = 0
    external_context_window: int = 64

    def __post_init__(self):
        if self.scheme not in SCHEME_PARAMS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split must be in (0,1), got {self.split}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not 1 <= self.p < self.k:
            raise ValueError(f"need 1 <= p < k, got p={self.p}, k={self.k}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.external_context_window < 1:
            raise ValueError("external_context_window must be >= 1")

    @property
    def leaky(self) -> bool:
        return self.scheme in LEAKY_SCHEMES

    @property
    def label(self) -> str:
        """The scheme and the parameters it reads (SCHEME_PARAMS), as
        "block_rolling:k=10,p=1"; a scheme that reads none is its name."""
        params = ",".join(f"{name}={_label_value(getattr(self, name))}"
                          for name in SCHEME_PARAMS[self.scheme])
        return f"{self.scheme}:{params}" if params else self.scheme


def _label_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class Fold:
    """One split of the positions [0, n).

    `train` is None for the schemes that train on every position outside
    the test set (kfold, leave_one_out): `train_idx` then builds those
    positions on each read, so the n folds of leave_one_out take O(n)
    memory rather than O(n^2).
    """

    index: int
    test_idx: np.ndarray
    leaky: bool
    n: int
    train: Optional[np.ndarray] = None

    @property
    def train_idx(self) -> np.ndarray:
        if self.train is not None:
            return self.train
        mask = np.ones(self.n, dtype=bool)
        mask[self.test_idx] = False
        return np.flatnonzero(mask)


def _block_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """k blocks of n//k symbols; the remainder goes to the last block."""
    b = n // k
    if b < 2:
        raise InfeasiblePlanError(
            f"blocks need >= 2 symbols: n={n} gives block size {b} at k={k}"
        )
    return [(j * b, (j + 1) * b if j < k - 1 else n) for j in range(k)]


def make_folds(plan: ValidationPlan, n: int) -> list[Fold]:
    """Fold index sets for a sequence of length n.

    Raises InfeasiblePlanError when the scheme cannot be realized.
    """
    if n < 2:
        raise InfeasiblePlanError(f"need at least 2 symbols, got {n}")
    scheme = plan.scheme
    folds: list[Fold] = []
    if scheme == "holdout":
        m = int(plan.split * n)
        if m < 1 or m >= n:
            raise InfeasiblePlanError(
                f"holdout split {plan.split} leaves no train or no test at n={n}"
            )
        folds.append(Fold(0, np.arange(m, n), True, n, np.arange(m)))
    elif scheme == "kfold":
        if plan.k > n:
            raise InfeasiblePlanError(f"kfold k={plan.k} exceeds n={n}")
        order = list(range(n))
        if plan.shuffled:
            SplitMix64(plan.seed).shuffle(order)
        order = np.asarray(order, dtype=np.int64)
        for f in range(plan.k):
            lo, hi = f * n // plan.k, (f + 1) * n // plan.k
            folds.append(Fold(f, np.sort(order[lo:hi]), True, n))
    elif scheme == "leave_one_out":
        folds = [Fold(i, np.asarray([i]), True, n) for i in range(n)]
    elif scheme == "bootstrap":
        rng = SplitMix64(plan.seed)
        for it in range(plan.iterations):
            draws = np.sort(rng.randint(n, n))
            mask = np.ones(n, dtype=bool)
            mask[draws] = False
            oob = np.flatnonzero(mask)
            if oob.size == 0:
                continue
            folds.append(Fold(it, oob, True, n, draws))
        if not folds:
            raise InfeasiblePlanError(
                "bootstrap produced no out-of-bag test symbols"
            )
    else:
        k = 10 if scheme == "window10_cumulative" else plan.k
        blocks = _block_bounds(n, k)
        if scheme == "block_rolling":
            for i in range(k - plan.p):
                t_lo, t_hi = blocks[i + plan.p]
                folds.append(Fold(
                    i, np.arange(t_lo, t_hi), False, n,
                    np.arange(blocks[i][0], blocks[i + plan.p - 1][1]),
                ))
        else:  # rolling / window10_cumulative: expanding train
            for i in range(k - 1):
                t_lo, t_hi = blocks[i + 1]
                folds.append(Fold(i, np.arange(t_lo, t_hi), False, n,
                                  np.arange(0, blocks[i][1])))
    for fold in folds:
        if not fold.leaky:
            assert int(fold.train_idx.max()) < int(fold.test_idx.min())
    return folds


@dataclass(frozen=True)
class FoldResult:
    user_id: str
    fold_index: int
    train_lo: int
    train_hi: int
    test_lo: int
    test_hi: int
    n_correct: int
    n_predictions: int
    accuracy: float
    bits_per_symbol: Optional[float]
    leaky: bool


@dataclass(frozen=True)
class EvaluationResult:
    plan_label: str
    model_label: str
    fold_results: tuple[FoldResult, ...]
    excluded_users: tuple[str, ...]
    accuracy_user_mean: float
    accuracy_weighted: float
    bits_user_mean: Optional[float]
    bits_weighted: Optional[float]
    n_predictions: int
    leaky: bool

    def fold_curve(self) -> list[tuple[int, float]]:
        """Mean accuracy per fold index across users (for drift plots)."""
        by_fold: dict[int, list[float]] = {}
        for r in self.fold_results:
            by_fold.setdefault(r.fold_index, []).append(r.accuracy)
        return [
            (f, float(np.mean(accs))) for f, accs in sorted(by_fold.items())
        ]

    def to_dict(self) -> dict:
        return {
            "plan": self.plan_label,
            "model": self.model_label,
            "leaky": self.leaky,
            "accuracy_user_mean": self.accuracy_user_mean,
            "accuracy_weighted": self.accuracy_weighted,
            "bits_user_mean": self.bits_user_mean,
            "bits_weighted": self.bits_weighted,
            "n_predictions": self.n_predictions,
            "excluded_users": list(self.excluded_users),
            "fold_curve": [[f, a] for f, a in self.fold_curve()],
            "folds": [
                {
                    "user_id": r.user_id,
                    "fold": r.fold_index,
                    "train_lo": r.train_lo,
                    "train_hi": r.train_hi,
                    "test_lo": r.test_lo,
                    "test_hi": r.test_hi,
                    "n_correct": r.n_correct,
                    "n_predictions": r.n_predictions,
                    "accuracy": r.accuracy,
                    "bits_per_symbol": r.bits_per_symbol,
                    "leaky": r.leaky,
                }
                for r in self.fold_results
            ],
        }


def _context_need(spec: PredictorSpec, plan: ValidationPlan) -> int:
    if spec.kind == "external":
        return plan.external_context_window
    return max(spec.order, 0)


def _window(fold: Fold, n: int, need: int) -> tuple[np.ndarray, np.ndarray]:
    """(known, ends): the known positions a fold's test contexts read, and
    the index in `known` of each test position.

    The context of test position t is the last `need` known positions
    before t, known meaning in the train set or earlier in the test set.
    Test indices ascend in every scheme, so that context is a slice of
    the sorted union of both sets; only the part of the union from the
    first context to the last test position is kept.
    """
    is_known = np.zeros(n, dtype=bool)
    is_known[fold.train_idx] = is_known[fold.test_idx] = True
    known = is_known.nonzero()[0]
    ends = known.searchsorted(fold.test_idx)
    first = max(0, int(ends[0]) - need)
    return known[first : int(ends[-1]) + 1], ends - first


def _test_contexts(
    fold: Fold, symbols: np.ndarray, timestamps: np.ndarray, need: int
):
    """(truth, PREDICT block) per test position, in order.

    Each known position's "poi_id t" line is formatted once per fold, and
    a block joins the lines of its context.
    """
    known, ends = _window(fold, symbols.shape[0], need)
    syms = symbols[known].tolist()
    lines = request_lines(syms, timestamps[known].tolist())
    for e in ends.tolist():
        yield syms[e], request_block(b"PREDICT", lines[max(0, e - need) : e])


def _train_positions(fold: Fold, n: int) -> np.ndarray:
    """A fold's distinct train positions in time order: a bootstrap fold
    draws repeats, which as a stream would read as self-transitions."""
    in_train = np.zeros(n, dtype=bool)
    in_train[fold.train_idx] = True
    return in_train.nonzero()[0]


def _fold_result(user_id: str, fold: Fold, pos: np.ndarray, n_correct: int,
                 probs: list) -> FoldResult:
    """A fold's row from its hits and the probability of each true symbol
    (None from an argmax-only predictor)."""
    has_bits = None not in probs
    bits_terms = [-math.log2(p) for p in probs] if has_bits else []
    n_pred = int(fold.test_idx.shape[0])
    return FoldResult(
        user_id=user_id,
        fold_index=fold.index,
        train_lo=int(pos[0]),
        train_hi=int(pos[-1]) + 1,
        test_lo=int(fold.test_idx[0]),
        test_hi=int(fold.test_idx[-1]) + 1,
        n_correct=int(n_correct),
        n_predictions=n_pred,
        accuracy=n_correct / n_pred,
        bits_per_symbol=math.fsum(bits_terms) / n_pred if has_bits else None,
        leaky=fold.leaky,
    )


class _Conversation:
    """One fold's exchange with its child: its TRAIN block and first
    request, then one request per response until the last."""

    def __init__(self, user_id: str, fold: Fold, symbols: np.ndarray,
                 timestamps: np.ndarray, need: int):
        self.user_id, self.fold = user_id, fold
        self.pos = _train_positions(fold, symbols.shape[0])
        self.n_correct, self.probs = 0, []
        self.done = False
        self._requests = _test_contexts(fold, symbols, timestamps, need)
        self._truth, request = next(self._requests)
        self.opening = request_block(b"TRAIN", request_lines(
            symbols[self.pos].tolist(), timestamps[self.pos].tolist()
        )) + request

    def answer(self, pred: int, dist: Optional[list]) -> Optional[bytes]:
        """Score the response to the last request; the next request, or
        None after the last."""
        self.n_correct += pred == self._truth
        self.probs.append(None if dist is None else dist[self._truth])
        nxt = next(self._requests, None)
        if nxt is None:
            self.done = True
            return None
        self._truth, request = nxt
        return request

    def result(self) -> FoldResult:
        return _fold_result(self.user_id, self.fold, self.pos, self.n_correct,
                            self.probs)


def _eval_external(
    jobs: list[tuple[str, np.ndarray, np.ndarray, Fold]],
    spec: PredictorSpec,
    alphabet_size: int,
    need: int,
) -> list[FoldResult]:
    """Score each (user, symbols, timestamps, fold) job with a fresh child
    of the external predictor; the results in job order.

    One selectors loop (predictors.Pipes) holds up to MAX_CHILDREN folds
    in conversation, so the children's start-ups, round trips and exits
    overlap.  A child gets its TRAIN block and first PREDICT when it is
    spawned, and each later PREDICT only once its previous response has
    been read, so it never holds a test symbol before it has answered
    for it.  After its last response a child's stdin is closed, and once
    it has closed its stdout it is reaped; only then does the next job's
    child start.  On any error every child still alive is killed.
    """
    results: list[Optional[FoldResult]] = [None] * len(jobs)
    waiting = iter(enumerate(jobs))
    talks: dict[ExternalModel, tuple[int, _Conversation]] = {}
    pipes = Pipes()
    try:
        while True:
            while len(talks) < MAX_CHILDREN and (
                    job := next(waiting, None)) is not None:
                i, (user_id, symbols, timestamps, fold) = job
                talk = _Conversation(user_id, fold, symbols, timestamps, need)
                model = ExternalModel.start(spec, alphabet_size)
                model.label = f"user {user_id!r} fold {fold.index}"
                talks[model] = i, talk
                pipes.add(model)
                model.send(talk.opening)
            if not talks:
                return results
            for model in pipes.wait(talks):
                i, talk = talks[model]
                while not talk.done and (
                        answer := model.response(talk._truth)):
                    request = talk.answer(*answer)
                    if request is None:
                        model.end()
                    else:
                        model.send(request)
                if talk.done and model.exited():
                    model.close()
                    del talks[model]
                    results[i] = talk.result()
    except BaseException:
        # kill rather than close: a close that waits could raise an error
        # of its own and hide this one
        for model in talks:
            model.kill()
        raise
    finally:
        pipes.close()


def _eval_native(
    user_id: str,
    symbols: np.ndarray,
    spec: PredictorSpec,
    folds: list[Fold],
    alphabet_size: int,
    need: int,
) -> list[FoldResult]:
    n = symbols.shape[0]
    results = []
    # the last model and its training positions, extended with retrain
    # when they prefix the next fold's (expanding windows)
    prev_pos: Optional[np.ndarray] = None
    model = None
    for fold in folds:
        pos = _train_positions(fold, n)
        if (prev_pos is not None and prev_pos.size <= pos.size
                and np.array_equal(pos[: prev_pos.size], prev_pos)):
            model = retrain(model, symbols[pos[prev_pos.size :]])
        else:
            model = train(spec, symbols[pos], alphabet_size)
        prev_pos = pos
        # a native model scores every test position of the fold at once
        known, ends = _window(fold, n, need)
        seq = symbols[known]
        truth = seq[ends]
        pred, p = model.score(seq, ends, truth)
        results.append(_fold_result(
            user_id, fold, pos, int(np.count_nonzero(pred == truth)),
            p.tolist(),
        ))
    return results


def evaluate(
    ds: Dataset, spec: PredictorSpec, plan: ValidationPlan
) -> EvaluationResult:
    """Train/test a predictor under a plan; teacher-forced test contexts.

    A test position's context is made of the nearest preceding positions
    that are in the fold's train set or already-revealed test prefix; for
    time-ordered schemes that is exactly the window [train_lo, t).  Users
    the plan cannot split are excluded with a warning.
    """
    need = _context_need(spec, plan)
    # per kept user, their folds' results (external: their folds' jobs)
    kept: list[list] = []
    excluded: list[str] = []
    n_infeasible = 0
    for seq in ds.sequences:
        try:
            folds = make_folds(plan, len(seq))
            if spec.kind == "external":
                kept.append([(seq.user_id, seq.poi_ids, seq.timestamps, fold)
                             for fold in folds])
            else:
                kept.append(_eval_native(seq.user_id, seq.poi_ids, spec,
                                         folds, ds.alphabet.size, need))
        except (InfeasiblePlanError, DataError) as e:
            warnings.warn(f"excluding user {seq.user_id!r}: {e}",
                          stacklevel=2)
            excluded.append(seq.user_id)
            n_infeasible += isinstance(e, InfeasiblePlanError)
    if spec.kind == "external":
        # one queue across users: the next user's children start while
        # this user's last folds are scored
        scored = iter(_eval_external([job for jobs in kept for job in jobs],
                                     spec, ds.alphabet.size, need))
        kept = [[next(scored) for _ in jobs] for jobs in kept]
    all_results: list[FoldResult] = []
    per_user_acc: list[float] = []
    per_user_bits: list[float] = []
    for results in kept:
        all_results.extend(results)
        per_user_acc.append(float(np.mean([r.accuracy for r in results])))
        fold_bits = [r.bits_per_symbol for r in results]
        if all(b is not None for b in fold_bits):
            per_user_bits.append(float(np.mean(fold_bits)))
    total_pred = sum(r.n_predictions for r in all_results)
    if total_pred == 0:
        if n_infeasible == len(ds.sequences):
            raise InfeasiblePlanError(
                f"plan {plan.label} is infeasible for every stream "
                f"({', '.join(excluded)})"
            )
        raise DataError(
            "zero test predictions overall"
            + (f" (excluded users: {', '.join(excluded)})" if excluded else "")
        )
    total_correct = sum(r.n_correct for r in all_results)
    have_bits = len(per_user_bits) == len(per_user_acc)
    bits_weighted = None
    if have_bits:
        bits_weighted = (
            math.fsum(
                r.bits_per_symbol * r.n_predictions for r in all_results
            )
            / total_pred
        )
    return EvaluationResult(
        plan_label=plan.label,
        model_label=spec.label,
        fold_results=tuple(all_results),
        excluded_users=tuple(excluded),
        accuracy_user_mean=float(np.mean(per_user_acc)),
        accuracy_weighted=total_correct / total_pred,
        bits_user_mean=float(np.mean(per_user_bits)) if have_bits else None,
        bits_weighted=bits_weighted,
        n_predictions=total_pred,
        leaky=plan.leaky,
    )


@dataclass(frozen=True)
class SensitivityRow:
    scheme: str
    params: str
    accuracy_user_mean: float
    accuracy_weighted: float
    leaky: bool


def validation_sensitivity(
    ds: Dataset, spec: PredictorSpec, plans: Sequence[ValidationPlan]
) -> list[SensitivityRow]:
    """Aggregate accuracy per scheme cell, for the instability table."""
    if len(plans) < 2:
        raise ValueError("sensitivity needs at least 2 schemes to compare")
    rows = []
    for plan in plans:
        res = evaluate(ds, spec, plan)
        scheme, _, params = plan.label.partition(":")
        rows.append(SensitivityRow(scheme, params, res.accuracy_user_mean,
                                   res.accuracy_weighted, res.leaky))
    return rows


def default_sensitivity_plans(
    seed: int = 0, context_window: int = 64
) -> list[ValidationPlan]:
    """The conventional grid: holdout 80/70/60 and k-fold 3/5/10."""
    common = {"seed": seed, "external_context_window": context_window}
    plans = [ValidationPlan("holdout", split=s, **common)
             for s in (0.8, 0.7, 0.6)]
    plans += [ValidationPlan("kfold", k=k, shuffled=True, **common)
              for k in (3, 5, 10)]
    return plans
