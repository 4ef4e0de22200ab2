"""Next-POI predictors behind one interface: frequency baseline, order-k
Markov with backoff, mobility Markov chain with a collapsed state space,
and an adapter for external predictors speaking a line protocol.

Every native model exposes the full predictive distribution so bits per
symbol can be scored; fitted models are immutable and retraining returns
a new model whose count tables equal training on the concatenation.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import DataError


# How long an external predictor may take to exit after its stdin closes
# before it is killed.
CLOSE_TIMEOUT_S = 10.0


class ProtocolError(DataError):
    """External predictor violated the line protocol."""


@dataclass(frozen=True)
class PredictorSpec:
    """Which model to build and how to smooth it.

    kind: random_uniform | top_frequency | markov_k | mmc | external.
    k applies to markov_k (1..3); top_m to mmc; command to external.
    fallback governs unseen contexts: backoff_to_lower_order walks down
    through the stored lower-order tables, uniform jumps straight to the
    uniform distribution.
    """

    kind: str
    k: int = 1
    smoothing_alpha: float = 0.01
    fallback: str = "backoff_to_lower_order"
    top_m: int = 10
    command: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        kinds = ("random_uniform", "top_frequency", "markov_k", "mmc", "external")
        if self.kind not in kinds:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.kind == "markov_k" and not 1 <= self.k <= 3:
            raise ValueError(f"markov_k order must be in 1..3, got {self.k}")
        if self.smoothing_alpha < 0:
            raise ValueError("smoothing_alpha must be >= 0")
        if self.fallback not in ("backoff_to_lower_order", "uniform"):
            raise ValueError(f"unknown fallback {self.fallback!r}")
        if self.kind == "mmc" and self.top_m < 1:
            raise ValueError("top_m must be >= 1")
        if self.kind == "external" and not self.command:
            raise ValueError("external predictor needs a command")

    @property
    def label(self) -> str:
        if self.kind == "markov_k":
            return f"markov_{self.k}"
        if self.kind == "mmc":
            return f"mmc_{self.top_m}"
        return self.kind


def parse_model(text: str, command: Sequence[str] = ()) -> PredictorSpec:
    """markov:K | mmc[:M] | top_frequency | random_uniform | external.

    external runs the argv `command`.  Raises ValueError on an unknown or
    malformed model.
    """
    kind, _, arg = text.partition(":")
    try:
        if kind == "markov":
            return PredictorSpec(kind="markov_k", k=int(arg or 1))
        if kind == "mmc":
            return PredictorSpec(kind="mmc", top_m=int(arg or 10))
        if kind == "top_frequency":
            return PredictorSpec(kind="top_frequency")
        if kind == "random_uniform":
            return PredictorSpec(kind="random_uniform")
        if kind == "external":
            return PredictorSpec(kind="external", command=tuple(command))
    except ValueError as e:
        raise ValueError(f"bad model {text!r}: {e}") from None
    raise ValueError(f"unknown model {text!r}")


def _argmax_smallest(dist: np.ndarray) -> int:
    # np.argmax returns the first index among ties, i.e. the smallest id
    return int(np.argmax(dist))


def _smoothed(counts: dict[int, int], total: int, n: int, alpha: float) -> np.ndarray:
    dist = np.full(n, alpha, dtype=np.float64)
    for sym, c in counts.items():
        dist[sym] += c
    return dist / (total + alpha * n)


@dataclass(frozen=True)
class _TableModel:
    """Shared count-table machinery for markov_k and mmc.

    tables[j] maps a length-j context tuple to (counts dict, total); the
    order-0 table lives at key () of tables[0].  tail keeps the last
    max_order symbols so retraining can stitch transitions across the
    boundary exactly.
    """

    spec: PredictorSpec
    alphabet_size: int
    max_order: int
    tables: tuple[dict, ...]
    tail: tuple[int, ...]
    n_trained: int

    def _lookup(self, context: Sequence[int]) -> tuple[dict[int, int], int]:
        ctx = tuple(int(c) for c in context[-self.max_order:]) if self.max_order else ()
        orders = range(len(ctx), -1, -1)
        if self.spec.fallback == "uniform":
            hit = self.tables[len(ctx)].get(ctx) if len(ctx) == self.max_order else None
            if hit is not None and hit[1] > 0:
                return hit
            return {}, 0
        for j in orders:
            hit = self.tables[j].get(ctx[len(ctx) - j:])
            if hit is not None and hit[1] > 0:
                return hit
        return {}, 0

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        counts, total = self._lookup(context)
        if total == 0:
            return np.full(self.alphabet_size, 1.0 / self.alphabet_size)
        return _smoothed(counts, total, self.alphabet_size, self.spec.smoothing_alpha)

    def predict(self, context: Sequence[int]) -> tuple[int, np.ndarray]:
        dist = self.distribution(context)
        return _argmax_smallest(dist), dist


def _build_tables(
    prev: Optional[tuple[dict, ...]],
    tail: tuple[int, ...],
    new_symbols: Sequence[int],
    max_order: int,
) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    tables: list[dict] = (
        [dict((k, (dict(c), t)) for k, (c, t) in tbl.items()) for tbl in prev]
        if prev is not None
        else [{} for _ in range(max_order + 1)]
    )
    buf = list(tail) + [int(s) for s in new_symbols]
    off = len(tail)
    for idx in range(len(new_symbols)):
        pos = off + idx
        sym = buf[pos]
        for j in range(min(max_order, pos) + 1):
            ctx = tuple(buf[pos - j : pos])
            counts, total = tables[j].get(ctx, (None, 0))
            if counts is None:
                counts = {}
                tables[j][ctx] = (counts, 0)
            counts[sym] = counts.get(sym, 0) + 1
            tables[j][ctx] = (counts, total + 1)
    new_tail = tuple(buf[len(buf) - max_order :]) if max_order else ()
    return tuple(tables), new_tail


@dataclass(frozen=True)
class MarkovModel(_TableModel):
    pass


@dataclass(frozen=True)
class FrequencyModel:
    """Predicts the most frequent training symbol regardless of context."""

    spec: PredictorSpec
    alphabet_size: int
    counts: dict[int, int]
    total: int

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return _smoothed(self.counts, self.total, self.alphabet_size,
                         self.spec.smoothing_alpha)

    def predict(self, context: Sequence[int]) -> tuple[int, np.ndarray]:
        dist = self.distribution(context)
        return _argmax_smallest(dist), dist


@dataclass(frozen=True)
class UniformModel:
    spec: PredictorSpec
    alphabet_size: int

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return np.full(self.alphabet_size, 1.0 / self.alphabet_size)

    def predict(self, context: Sequence[int]) -> tuple[int, np.ndarray]:
        dist = self.distribution(context)
        return 0, dist


@dataclass(frozen=True)
class MmcModel:
    """First-order chain over the top-M training POIs plus an "other" state.

    States are dense: state i is top_states[i] (sorted poi ids) and the
    trailing state is "other", present only when the top set does not
    cover the alphabet; without it the model coincides with markov_1
    exactly, smoothing included.  Back in poi space, "other" probability
    mass is spread uniformly over the non-top symbols and an "other"
    argmax resolves to the most frequent non-top training POI.
    """

    spec: PredictorSpec
    alphabet_size: int
    inner: MarkovModel
    top_states: tuple[int, ...]
    has_other: bool
    other_resolution: Optional[int]
    train_symbols: tuple[int, ...]

    def _state_of(self, sym: int) -> int:
        try:
            return self.top_states.index(sym)
        except ValueError:
            return len(self.top_states)

    def _state_distribution(self, context: Sequence[int]) -> np.ndarray:
        mapped = [self._state_of(int(c)) for c in context]
        return self.inner.distribution(mapped)

    def _poi_distribution(self, state_dist: np.ndarray) -> np.ndarray:
        """State probabilities in poi space: each top state at its poi id,
        the "other" mass shared evenly by the non-top symbols."""
        n_top = len(self.top_states)
        if self.has_other:
            share = state_dist[n_top] / (self.alphabet_size - n_top)
            dist = np.full(self.alphabet_size, share)
        else:
            dist = np.zeros(self.alphabet_size)
        dist[list(self.top_states)] = state_dist[:n_top]
        return dist

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return self._poi_distribution(self._state_distribution(context))

    def predict(self, context: Sequence[int]) -> tuple[int, np.ndarray]:
        state_dist = self._state_distribution(context)
        dist = self._poi_distribution(state_dist)
        best = _argmax_smallest(state_dist)
        if self.has_other and best == len(self.top_states):
            return int(self.other_resolution), dist
        return int(self.top_states[best]), dist


def train(
    spec: PredictorSpec,
    symbols: Sequence[int],
    alphabet_size: int,
    timestamps: Optional[Sequence[int]] = None,
):
    """Fit a predictor on a training symbol stream.

    timestamps are accepted for interface symmetry (the external protocol
    transmits them); native models ignore them.
    """
    symbols = [int(s) for s in symbols]
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be >= 1")
    if any(not 0 <= s < alphabet_size for s in symbols):
        raise DataError("training symbol outside alphabet")
    if spec.kind == "random_uniform":
        return UniformModel(spec, alphabet_size)
    if spec.kind == "top_frequency":
        if not symbols:
            raise DataError("top_frequency needs at least 1 training symbol")
        counts: dict[int, int] = {}
        for s in symbols:
            counts[s] = counts.get(s, 0) + 1
        return FrequencyModel(spec, alphabet_size, counts, len(symbols))
    if spec.kind == "markov_k":
        if len(symbols) < spec.k + 1:
            raise DataError(
                f"markov_{spec.k} needs at least {spec.k + 1} training "
                f"symbols, got {len(symbols)}"
            )
        tables, tail = _build_tables(None, (), symbols, spec.k)
        return MarkovModel(spec, alphabet_size, spec.k, tables, tail,
                           len(symbols))
    if spec.kind == "mmc":
        return _train_mmc(spec, symbols, alphabet_size)
    if spec.kind == "external":
        return ExternalModel.start(spec, symbols, timestamps, alphabet_size)
    raise AssertionError(spec.kind)


def retrain(model, new_symbols: Sequence[int],
            timestamps: Optional[Sequence[int]] = None):
    """Extend a fitted model; equals train() on the concatenated stream."""
    new_symbols = [int(s) for s in new_symbols]
    if isinstance(model, UniformModel):
        return model
    if isinstance(model, FrequencyModel):
        counts = dict(model.counts)
        for s in new_symbols:
            if not 0 <= s < model.alphabet_size:
                raise DataError("training symbol outside alphabet")
            counts[s] = counts.get(s, 0) + 1
        return replace(model, counts=counts, total=model.total + len(new_symbols))
    if isinstance(model, MarkovModel):
        if any(not 0 <= s < model.alphabet_size for s in new_symbols):
            raise DataError("training symbol outside alphabet")
        tables, tail = _build_tables(model.tables, model.tail, new_symbols,
                                     model.max_order)
        return replace(model, tables=tables, tail=tail,
                       n_trained=model.n_trained + len(new_symbols))
    if isinstance(model, MmcModel):
        # the state space depends on whole-stream frequencies, so the
        # only faithful extension is retraining on the concatenation
        return _train_mmc(
            model.spec, list(model.train_symbols) + new_symbols,
            model.alphabet_size,
        )
    raise TypeError(f"cannot retrain {type(model).__name__}")


def _train_mmc(spec: PredictorSpec, symbols: list[int], alphabet_size: int):
    if len(symbols) < 2:
        raise DataError(f"mmc needs at least 2 training symbols, got {len(symbols)}")
    counts: dict[int, int] = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    by_freq = sorted(counts, key=lambda s: (-counts[s], s))
    if spec.top_m >= alphabet_size:
        top = tuple(range(alphabet_size))
        has_other = False
        other_resolution = None
    else:
        top = tuple(sorted(by_freq[: spec.top_m]))
        has_other = True
        top_set = set(top)
        non_top_seen = [s for s in by_freq if s not in top_set]
        if non_top_seen:
            other_resolution = non_top_seen[0]
        else:
            other_resolution = next(
                s for s in range(alphabet_size) if s not in top_set
            )
    state_of = {poi: i for i, poi in enumerate(top)}
    other_state = len(top)
    mapped = [state_of.get(s, other_state) for s in symbols]
    n_states = len(top) + (1 if has_other else 0)
    inner_spec = PredictorSpec(
        kind="markov_k", k=1, smoothing_alpha=spec.smoothing_alpha,
        fallback=spec.fallback,
    )
    tables, tail = _build_tables(None, (), mapped, 1)
    inner = MarkovModel(inner_spec, n_states, 1, tables, tail, len(mapped))
    return MmcModel(spec, alphabet_size, inner, top, has_other,
                    other_resolution, tuple(symbols))


def transition_counts(model) -> dict[tuple[int, ...], dict[int, int]]:
    """Raw highest-order context counts, for inspection and tests."""
    if isinstance(model, MmcModel):
        model = model.inner
    if not isinstance(model, MarkovModel):
        raise TypeError(f"{type(model).__name__} has no transition table")
    return {
        ctx: dict(counts)
        for ctx, (counts, _total) in model.tables[model.max_order].items()
    }


class ExternalModel:
    """Adapter around a subprocess speaking the line protocol.

    Harness -> predictor:
        TRAIN <n>        followed by n lines "poi_id t"
        PREDICT <m>      followed by m context lines "poi_id t"  (repeats)
    Predictor -> harness, one line per PREDICT:
        poi_id                      argmax only, or
        poi_id p0 p1 ... p(N-1)     argmax plus the full distribution.

    The alphabet size is the predictor's own business (argv, config); the
    adapter only validates what comes back.  Malformed output aborts the
    fold with the offending line number.

    One instance serves one fold: it reads that fold's TRAIN block and
    PREDICT requests, then end of input.  `validation.evaluate` starts the
    instance for fold i+1 while fold i is scored, so a predictor may have
    two instances alive at once.
    """

    def __init__(self, spec: PredictorSpec, proc: subprocess.Popen,
                 alphabet_size: int):
        self.spec = spec
        self.alphabet_size = alphabet_size
        self._proc = proc
        self._lines_read = 0

    @classmethod
    def start(
        cls,
        spec: PredictorSpec,
        symbols: Sequence[int],
        timestamps: Optional[Sequence[int]],
        alphabet_size: int,
    ) -> "ExternalModel":
        if timestamps is None:
            timestamps = list(range(len(symbols)))
        if len(timestamps) != len(symbols):
            raise ValueError("timestamps must align with symbols")
        try:
            proc = subprocess.Popen(
                list(spec.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        except OSError as e:
            raise ProtocolError(f"cannot start {spec.command}: {e}") from e
        model = cls(spec, proc, alphabet_size)
        try:
            model._send("TRAIN", symbols, timestamps)
        except ProtocolError:
            model.kill()
            raise
        return model

    def _send(self, verb: str, symbols: Sequence[int],
              timestamps: Sequence[int]) -> None:
        """One request block: "<verb> <n>" and n "poi_id t" lines, sent
        with one write and one flush."""
        lines = [f"{verb} {len(symbols)}"]
        lines += [f"{int(s)} {int(t)}" for s, t in zip(symbols, timestamps)]
        try:
            self._proc.stdin.write("\n".join(lines) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise ProtocolError(
                f"external predictor pipe closed before response line "
                f"{self._lines_read + 1}: {e}"
            ) from e

    def predict(self, context: Sequence[int],
                context_timestamps: Optional[Sequence[int]] = None
                ) -> tuple[int, Optional[np.ndarray]]:
        if context_timestamps is None:
            context_timestamps = range(len(context))
        self._send("PREDICT", context, context_timestamps)
        line = self._proc.stdout.readline()
        self._lines_read += 1
        if not line:
            raise ProtocolError(
                f"external predictor closed stdout at response line "
                f"{self._lines_read}"
            )
        parts = line.split()
        try:
            poi = int(parts[0])
        except (IndexError, ValueError):
            raise ProtocolError(
                f"response line {self._lines_read}: expected integer poi_id, "
                f"got {line.rstrip()!r}"
            ) from None
        if not 0 <= poi < self.alphabet_size:
            raise ProtocolError(
                f"response line {self._lines_read}: poi_id {poi} outside "
                f"alphabet of size {self.alphabet_size}"
            )
        if len(parts) == 1:
            return poi, None
        if len(parts) != 1 + self.alphabet_size:
            raise ProtocolError(
                f"response line {self._lines_read}: expected "
                f"{self.alphabet_size} probabilities, got {len(parts) - 1}"
            )
        try:
            dist = np.asarray([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ProtocolError(
                f"response line {self._lines_read}: non-numeric probability"
            ) from None
        if np.any(dist < 0) or not math.isclose(float(dist.sum()), 1.0,
                                                abs_tol=1e-6):
            raise ProtocolError(
                f"response line {self._lines_read}: probabilities must be "
                "nonnegative and sum to 1"
            )
        return poi, dist

    def close(self) -> None:
        if self._proc.stdin:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ProtocolError(
                f"external predictor {' '.join(self.spec.command)} did not "
                f"exit within {CLOSE_TIMEOUT_S:g} s of end of input; killed"
            ) from None
        finally:
            if self._proc.stdout:
                self._proc.stdout.close()

    def kill(self) -> None:
        """Kill and reap the child without the grace period of `close`,
        and without raising: on an error path the first error is the one
        to report."""
        self._proc.kill()
        self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            if pipe:
                try:
                    pipe.close()
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self.kill()
