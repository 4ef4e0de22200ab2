"""Next-POI predictors behind one interface: frequency baseline, order-k
Markov with backoff, mobility Markov chain with a collapsed state space,
and an adapter for external predictors speaking a line protocol.

Native models keep one array count table per order (see _Table), all
counted by _count from the stream the model reads: mmc's is its training
stream mapped to states.  All smooth by SMOOTHING_ALPHA and back off to
lower orders; `score` serves many positions of a stream at once.  Fitted
models are immutable.
"""

from __future__ import annotations

import math
import os
import selectors
import shlex
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import DataError


# How long an external predictor may take to exit after its stdin closes
# before it is killed.
CLOSE_TIMEOUT_S = 10.0

# How long an external predictor may go without progress, a byte written
# to its stdin or read from its stdout, before it is killed.  A child fits
# its model between its TRAIN block and its first response, so this is
# the longest a fold's training may take: five minutes.
REQUEST_TIMEOUT_S = 300.0

# Every native model's additive smoothing: (alpha + count) / (total +
# alpha * n) over an alphabet of n, so no symbol scores 0.
SMOOTHING_ALPHA = 0.01

_STDERR_LINES = 5  # the last lines of a child's stderr kept for its errors
_READ_SIZE = 1 << 16


class ProtocolError(DataError):
    """External predictor violated the line protocol."""


@dataclass(frozen=True)
class PredictorSpec:
    """Which model to build.

    kind: random_uniform | top_frequency | markov_k | mmc | external.
    k applies to markov_k (1..3); top_m to mmc; command to external.
    Native models all smooth by SMOOTHING_ALPHA and back off to lower
    orders (see MarkovModel.score).
    """

    kind: str
    k: int = 1
    top_m: int = 10
    command: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        kinds = ("random_uniform", "top_frequency", "markov_k", "mmc", "external")
        if self.kind not in kinds:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.kind == "markov_k" and not 1 <= self.k <= 3:
            raise ValueError(f"markov_k order must be in 1..3, got {self.k}")
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

    @property
    def order(self) -> int:
        """The highest context order a native model counts: -1 for
        random_uniform (no counts), 0 for top_frequency, 1 for mmc and k
        for markov_k.  Counting it takes order+1 training symbols, and a
        prediction reads at most `order` symbols of context."""
        if self.kind == "external":
            raise ValueError("an external predictor has no model order")
        return {"random_uniform": -1, "top_frequency": 0, "mmc": 1}.get(
            self.kind, self.k
        )


def parse_model(text: str, command: Sequence[str] = ()) -> PredictorSpec:
    """markov:K | mmc[:M] | top_frequency | random_uniform | external.

    external runs the argv `command`.  Raises ValueError on an unknown or
    malformed model, such as an argument to a kind that takes none or a
    colon with no argument after it.
    """
    kind, colon, arg = text.partition(":")
    try:
        if colon and kind in ("top_frequency", "random_uniform", "external"):
            raise ValueError(f"{kind} takes no argument")
        if kind == "markov":
            return PredictorSpec(kind="markov_k", k=int(arg) if colon else 1)
        if kind == "mmc":
            return PredictorSpec(kind="mmc", top_m=int(arg) if colon else 10)
        if kind == "top_frequency":
            return PredictorSpec(kind="top_frequency")
        if kind == "random_uniform":
            return PredictorSpec(kind="random_uniform")
        if kind == "external":
            return PredictorSpec(kind="external", command=tuple(command))
    except ValueError as e:
        raise ValueError(f"bad model {text!r}: {e}") from None
    raise ValueError(f"unknown model {text!r}")


def _find(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Index of each wanted key in the sorted, non-empty `keys`, or -1."""
    at = keys.searchsorted(want)
    at[keys.take(at, mode="clip") != want] = -1
    return at


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in `a`."""
    start = np.empty(a.size, dtype=bool)
    start[:1] = True
    np.not_equal(a[1:], a[:-1], out=start[1:])
    return start


class _Table(NamedTuple):
    """The order-j counts of a stream over n symbols.

    keys holds each (context, next symbol) cell seen in training as
    context code * n + next symbol, ascending; counts aligns with it.
    The empty context has code 0, and a longer one the index of its cell
    in the order j-1 table (all but its last symbol, then its last), so
    codes stay below the number of training symbols at any alphabet
    size.  By context code, totals holds the context's count and best its
    most frequent next symbol (smallest id on ties); totals ends in a 0
    for the code -1 of a context never seen.
    """

    keys: np.ndarray
    counts: np.ndarray
    totals: np.ndarray
    best: np.ndarray


def _table(keys: np.ndarray, counts: np.ndarray, n: int,
           n_contexts: int) -> _Table:
    context = keys // n
    # stable, so equal counts stay in ascending next-symbol order
    first = np.lexsort((-counts, context))[_run_starts(context)]
    best = np.zeros(n_contexts, dtype=np.int64)
    best[context[first]] = keys[first] % n
    totals = np.bincount(context, counts, n_contexts + 1)
    return _Table(keys, counts, totals, best)


def _count(symbols: np.ndarray, n: int, k: int) -> tuple[_Table, ...]:
    """The count tables of orders 0..k of a stream over n symbols."""
    # the order-j context code of each position
    context = np.zeros(symbols.size, dtype=np.int64)
    out: list[_Table] = []
    for j in range(k + 1):
        codes = context[j:] * n + symbols[j:]
        ordered = np.sort(codes)
        keys = ordered[_run_starts(ordered)]
        where = keys.searchsorted(codes)
        counts = np.bincount(where, None, keys.size)
        # the window ending at position i is the order j+1 context of i+1
        context[j + 1 :] = where[:-1]
        out.append(_table(keys, counts, n, out[-1].keys.size if out else 1))
    return tuple(out)


@dataclass(frozen=True)
class MarkovModel:
    """Counts of orders 0..k with backoff: markov_k, top_frequency (order 0
    alone), random_uniform (no order, so every prediction is uniform) and
    an mmc whose top set covers the alphabet (order 1, so markov_1).

    tables[j] holds the order-j counts (see _Table).
    """

    spec: PredictorSpec
    alphabet_size: int
    tables: tuple[_Table, ...]

    def score(self, seq: np.ndarray, ends: np.ndarray, truth: np.ndarray):
        """(argmax, probability of truth[i]) after the context seq[:e] of
        each end e = ends[i].  The highest order whose context was seen
        serves it, smoothed by SMOOTHING_ALPHA; an end that no order
        serves gets the uniform distribution."""
        n, k = self.alphabet_size, len(self.tables) - 1
        alpha = SMOOTHING_ALPHA
        pred = np.zeros(ends.size, dtype=np.int64)
        p = np.full(ends.size, 1.0 / n)
        # no window through a symbol outside the alphabet was seen
        outside = (seq < 0) | (seq >= n)
        context = np.zeros(seq.size + 1, dtype=np.int64)  # order-j code
        for j, table in enumerate(self.tables):
            code = context[ends]
            seen = table.totals[code] > 0
            code = code[seen]
            cell = _find(table.keys, code * n + truth[seen])
            count = table.counts[cell]
            count[cell < 0] = 0
            pred[seen] = table.best[code]
            p[seen] = (alpha + count) / (table.totals[code] + alpha * n)
            if j < k:
                # order j+1 contexts: the order-j windows ending one earlier
                cell = _find(table.keys, context[:-1] * n + seq)
                cell[outside] = -1
                context = np.concatenate(([-1], cell))
        return pred, p


def _states(top: tuple[int, ...], symbols) -> np.ndarray:
    """Each symbol's state: its index in the sorted top set, else "other"."""
    at = _find(np.asarray(top), np.asarray(symbols, dtype=np.int64))
    return np.where(at < 0, len(top), at)


@dataclass(frozen=True)
class MmcModel:
    """First-order chain over the top-M training POIs plus an "other" state.

    States are dense: state i is top_states[i] (sorted poi ids) and the
    trailing state is "other".  Back in poi space, "other" probability
    mass is spread uniformly over the non-top symbols and an "other"
    argmax resolves to other_resolution, the most frequent non-top
    training POI.  _mmc takes the top set and other_resolution from the
    training stream's POI counts, and inner counts that stream mapped to
    states.  A top set that covers the alphabet leaves no "other" POI:
    that mmc is markov_1 exactly, smoothing included, and `train` fits
    it as such.
    """

    spec: PredictorSpec
    alphabet_size: int
    inner: MarkovModel
    top_states: tuple[int, ...]
    other_resolution: int

    def score(self, seq: np.ndarray, ends: np.ndarray, truth: np.ndarray):
        truth = _states(self.top_states, truth)
        best, p = self.inner.score(_states(self.top_states, seq), ends, truth)
        n_top = len(self.top_states)
        p[truth == n_top] /= self.alphabet_size - n_top
        return np.asarray(self.top_states + (self.other_resolution,))[best], p


def _mmc(spec: PredictorSpec, symbols: np.ndarray, n: int) -> MmcModel:
    """The mmc of a training stream over n > top_m symbols: its top set
    and "other" resolution by POI frequency, and its state chain counted
    on the stream mapped to states."""
    seen, counts = np.unique(symbols, return_counts=True)
    # seen POIs by descending count, then ascending id
    by_freq = seen[np.argsort(-counts, kind="stable")]
    top = tuple(sorted(by_freq[: spec.top_m].tolist()))
    if by_freq.size > spec.top_m:
        other = int(by_freq[spec.top_m])
    else:
        # the smallest id missing from the sorted top set
        other = next(i for i, s in enumerate(top + (n,)) if s != i)
    n_states = len(top) + 1
    inner = MarkovModel(replace(spec, kind="markov_k", k=1), n_states,
                        _count(_states(top, symbols), n_states, 1))
    return MmcModel(spec, n, inner, top, other)


def _in_alphabet(symbols: Sequence[int], n: int) -> np.ndarray:
    symbols = np.asarray(symbols)  # ids past int64 compare as objects
    if symbols.size and (symbols.min() < 0 or symbols.max() >= n):
        raise DataError("training symbol outside alphabet")
    return symbols.astype(np.int64, copy=False)


def train(spec: PredictorSpec, symbols: Sequence[int], alphabet_size: int):
    """Fit a native model on a training symbol stream.  An external
    predictor is a child process, started and sent its TRAIN block
    through ExternalModel; its spec has no order, so train refuses it
    with ValueError."""
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be >= 1")
    k = spec.order
    symbols = _in_alphabet(symbols, alphabet_size)
    if symbols.size < k + 1:
        raise DataError(
            f"{spec.label} needs at least {k + 1} training "
            f"symbol{'s' if k else ''}, got {symbols.size}"
        )
    if spec.kind == "mmc" and spec.top_m < alphabet_size:
        return _mmc(spec, symbols, alphabet_size)
    return MarkovModel(spec, alphabet_size, _count(symbols, alphabet_size, k))


def _read(pipe) -> Optional[bytes]:
    """What a non-blocking pipe holds, b"" at its end, None when empty."""
    try:
        return os.read(pipe.fileno(), _READ_SIZE)
    except BlockingIOError:
        return None


def request_lines(symbols: Sequence[int],
                  timestamps: Sequence[int]) -> list[bytes]:
    """The "poi_id t" line of each position, as the protocol sends it."""
    return [b"%d %d\n" % st for st in zip(symbols, timestamps)]


def request_block(verb: bytes, lines: list[bytes]) -> bytes:
    """A request block: "<verb> <n>" and its n lines (request_lines)."""
    return b"%s %d\n" % (verb, len(lines)) + b"".join(lines)


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
    fold with the offending line number, and so does a distribution that
    gives the observed symbol probability 0 (see `response`).

    One instance serves one fold: it reads that fold's TRAIN block and
    PREDICT requests, then end of input.  `start` spawns the child,
    `send` queues its TRAIN block, `predict` is one round trip and
    `close` ends the input and reaps the child; that is the one way to
    use a single child.  The child's three pipes are non-blocking and
    served by one selectors loop (Pipes): `predict` is its one-request
    case, and `validation.evaluate` holds the children of several folds
    in it at once, reading their answers with `response`.  A child's
    stderr is forwarded to ours line by line, and its last lines end
    every ProtocolError of the instance.  A child that makes no progress
    for REQUEST_TIMEOUT_S, or has not exited CLOSE_TIMEOUT_S after its
    end of input, is killed.
    """

    def __init__(self, spec: PredictorSpec, proc: subprocess.Popen,
                 alphabet_size: int, label: str = ""):
        self.spec = spec
        self.alphabet_size = alphabet_size
        self.label = label  # names the instance in its errors, e.g. its fold
        self._proc = proc
        self._unsent = memoryview(b"")
        self._out = bytearray()  # stdout not yet taken as a response
        self._err = bytearray()  # stderr of a line not yet ended
        self._err_tail: deque[bytes] = deque(maxlen=_STDERR_LINES)
        self._out_eof = self._err_eof = False
        self._lines_read = 0
        self._last_progress = time.monotonic()
        # monotonic time by which the child must exit, set by end()
        self._exit_by: Optional[float] = None

    @classmethod
    def start(cls, spec: PredictorSpec, alphabet_size: int,
              label: str = "") -> "ExternalModel":
        """Spawn the child, named `label` in its errors; it reads nothing
        until a block is sent."""
        try:
            proc = subprocess.Popen(
                list(spec.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as e:
            message = f"cannot start {shlex.join(spec.command)}: {e}"
            raise ProtocolError(
                f"{label}: {message}" if label else message) from e
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            os.set_blocking(pipe.fileno(), False)
        return cls(spec, proc, alphabet_size, label)

    def send(self, block: bytes) -> None:
        """Queue a request block and write what the pipe takes now; the
        rest goes out as the child reads (Pipes.wait)."""
        self._unsent = memoryview(bytes(self._unsent) + block
                                  if self._unsent else block)
        self._write()

    def predict(self, context: Sequence[int],
                context_timestamps: Optional[Sequence[int]] = None
                ) -> tuple[int, Optional[list[float]]]:
        """(argmax, distribution or None) after one PREDICT round trip."""
        if context_timestamps is None:
            context_timestamps = range(len(context))
        self.send(request_block(b"PREDICT", request_lines(
            [int(s) for s in context], [int(t) for t in context_timestamps])))
        with Pipes((self,)) as pipes:
            while (answer := self.response()) is None:
                pipes.wait((self,))
        return answer

    def response(self, truth: Optional[int] = None
                 ) -> Optional[tuple[int, Optional[list[float]]]]:
        """The next response line, parsed and checked, or None while it
        has not arrived whole.  truth is the symbol observed after the
        request's context, when the caller knows it: a distribution that
        gives it probability 0 would make bits/symbol infinite."""
        end = self._out.find(b"\n")
        if end < 0:
            if self._out_eof:
                raise self._error(
                    f"external predictor closed stdout at response line "
                    f"{self._lines_read + 1}"
                )
            return None
        line = bytes(self._out[:end])
        del self._out[: end + 1]
        self._lines_read += 1
        parts = line.split()
        try:
            poi = int(parts[0])
        except (IndexError, ValueError):
            raise self._error(
                f"response line {self._lines_read}: expected integer poi_id, "
                f"got {line.decode(errors='replace').rstrip()!r}"
            ) from None
        if not 0 <= poi < self.alphabet_size:
            raise self._error(
                f"response line {self._lines_read}: poi_id {poi} outside "
                f"alphabet of size {self.alphabet_size}"
            )
        if len(parts) == 1:
            return poi, None
        if len(parts) != 1 + self.alphabet_size:
            raise self._error(
                f"response line {self._lines_read}: expected "
                f"{self.alphabet_size} probabilities, got {len(parts) - 1}"
            )
        try:
            dist = [float(x) for x in parts[1:]]
        except ValueError:
            raise self._error(
                f"response line {self._lines_read}: non-numeric probability"
            ) from None
        if min(dist) < 0 or not math.isclose(sum(dist), 1.0, abs_tol=1e-6):
            raise self._error(
                f"response line {self._lines_read}: probabilities must be "
                "nonnegative and sum to 1"
            )
        if truth is not None and dist[truth] == 0.0:
            raise self._error(
                f"response line {self._lines_read}: probability 0 for the "
                f"observed poi_id {truth}, so bits/symbol would be infinite; "
                "an argmax-only answer (the poi_id alone) avoids it"
            )
        return poi, dist

    def end(self) -> None:
        """Close the child's stdin, its end of input, once all is sent; the
        child then has CLOSE_TIMEOUT_S to exit."""
        if self._exit_by is None:
            self._exit_by = time.monotonic() + CLOSE_TIMEOUT_S
            self._proc.stdin.close()

    def exited(self) -> bool:
        """Whether the child, its input ended, has closed stdout and
        stderr.  Output past its last response is a ProtocolError."""
        if self._out:
            raise self._error(
                f"external predictor wrote past its last response line "
                f"{self._lines_read}: {bytes(self._out[:80])!r}"
            )
        return self._out_eof and self._err_eof

    def close(self) -> None:
        """End input if `end` has not, read the child's output to its end
        and reap it within what is left of its CLOSE_TIMEOUT_S; a child
        that overruns it or writes past its last response is killed."""
        try:
            self.end()
            with Pipes((self,)) as pipes:
                while not self.exited():
                    pipes.wait((self,))
            try:
                self._proc.wait(timeout=max(0.0,
                                            self._exit_by - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise self._timeout() from None
        except BaseException:
            self.kill()
            raise
        self._close_pipes()

    def kill(self) -> None:
        """Kill and reap the child without the grace period of `close`,
        and without raising: on an error path the first error is the one
        to report."""
        self._proc.kill()
        self._proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self._proc.stdin, self._proc.stdout, self._proc.stderr):
            try:
                pipe.close()
            except OSError:
                pass

    def _deadline(self) -> float:
        if self._exit_by is not None:
            return self._exit_by
        return self._last_progress + REQUEST_TIMEOUT_S

    def _timeout(self) -> ProtocolError:
        command = shlex.join(self.spec.command)
        if self._exit_by is not None:
            return self._error(
                f"external predictor {command} did not exit within "
                f"{CLOSE_TIMEOUT_S:g} s of end of input; killed"
            )
        unread = (f", {len(self._unsent)} bytes of its input unread"
                  if self._unsent else "")
        return self._error(
            f"external predictor {command} made no progress for "
            f"{REQUEST_TIMEOUT_S:g} s waiting for response line "
            f"{self._lines_read + 1}{unread}; killed"
        )

    def _error(self, message: str) -> ProtocolError:
        """ProtocolError(message) after the instance's label and before
        the child's last stderr lines."""
        # what a failing child wrote to stderr before it failed is in the
        # pipe by now; a child that floods it is not read to its end
        for _ in range(16):
            data = None if self._err_eof else _read(self._proc.stderr)
            if data is None:
                break
            self._forward_stderr(data)
        tail = [*self._err_tail, *([bytes(self._err)] if self._err else [])]
        return ProtocolError(
            (f"{self.label}: {message}" if self.label else message)
            + "".join(f"\n  stderr: {line.decode(errors='replace')}"
                      for line in tail[-_STDERR_LINES:])
        )

    def _write(self) -> None:
        """Write what the child's stdin takes of the unsent bytes."""
        if not self._unsent:
            return
        try:
            n = os.write(self._proc.stdin.fileno(), self._unsent)
        except BlockingIOError:
            return
        except OSError as e:
            raise self._error(
                f"external predictor pipe closed before response line "
                f"{self._lines_read + 1}: {e}"
            ) from e
        self._unsent = self._unsent[n:]
        self._last_progress = time.monotonic()

    def _read_stdout(self) -> bool:
        """Read what stdout holds; False at its end."""
        data = _read(self._proc.stdout)
        if data is not None:
            self._out += data
            self._out_eof = not data
            self._last_progress = time.monotonic()
        return not self._out_eof

    def _read_stderr(self) -> bool:
        """Read what stderr holds; False at its end."""
        data = _read(self._proc.stderr)
        if data is not None:
            self._forward_stderr(data)
        return not self._err_eof

    def _forward_stderr(self, data: bytes) -> None:
        """Forward the lines `data` ends to our stderr and keep the last
        ones; b"" ends the last line."""
        self._err += data
        self._err_eof = not data
        cut = len(self._err) if self._err_eof else self._err.rfind(b"\n") + 1
        if cut:
            lines = bytes(self._err[:cut])
            del self._err[:cut]
            sys.stderr.write(lines.decode(errors="replace"))
            sys.stderr.flush()
            self._err_tail.extend(lines.splitlines()[-_STDERR_LINES:])

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:
            self.kill()


class Pipes:
    """One selectors loop over the pipes of external predictor children.

    `add` registers a child's stdout and stderr until each reaches its
    end; each `wait` writes what the children's stdins take, reads their
    stdout and stderr, and raises the ProtocolError of the first child
    whose deadline has passed.
    """

    def __init__(self, models=()):
        self._sel = selectors.DefaultSelector()
        for model in models:
            self.add(model)

    def add(self, model: ExternalModel) -> None:
        for pipe, read, eof in (
            (model._proc.stdout, model._read_stdout, model._out_eof),
            (model._proc.stderr, model._read_stderr, model._err_eof),
        ):
            if not eof:
                self._sel.register(pipe, selectors.EVENT_READ, (model, read))

    def wait(self, models) -> set[ExternalModel]:
        """Wait, at most until the earliest deadline of `models`, for their
        pipes to be ready and serve them; the models served."""
        first = min(models, key=ExternalModel._deadline)
        timeout = first._deadline() - time.monotonic()
        if timeout <= 0:
            raise first._timeout()
        # a stdin is watched only while it has bytes to take
        writing = [model for model in models if model._unsent]
        for model in writing:
            self._sel.register(model._proc.stdin, selectors.EVENT_WRITE,
                               (model, None))
        try:
            events = self._sel.select(timeout)
        finally:
            for model in writing:
                self._sel.unregister(model._proc.stdin)
        served = set()
        for key, _ in events:
            model, read = key.data
            if read is None:
                model._write()
            elif not read():
                self._sel.unregister(key.fileobj)
            served.add(model)
        return served

    def close(self) -> None:
        self._sel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
