"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (quadratic scans, dict counting,
direct formula transcription) so agreement with the library is evidence,
not tautology.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
from collections import Counter
from typing import Sequence

import numpy as np

from mobmeta.core import DataError, InfeasiblePlanError
from mobmeta.poi import Staypoint, haversine_m
from mobmeta.predictors import SMOOTHING_ALPHA, MarkovModel, MmcModel, train
from mobmeta.validation import make_folds


class ScalarSplitMix64:
    """SplitMix64 one output at a time, in Python integers, exactly as the
    published recurrence reads; mobmeta.rng draws in uint64 blocks and
    must agree with every draw here, and leave the same state."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / 9007199254740992.0  # 2^53

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        return min(int(self.uniform() * n), n - 1)

    def choice(self, probs) -> int:
        """Index drawn by a linear scan of the running sum."""
        u = self.uniform()
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                return i
        return len(probs) - 1

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def scalar_raw_stream(spec, rng: ScalarSplitMix64) -> list[int]:
    """synth.raw_stream drawn one scalar at a time, as each source's
    definition reads."""

    def stream(spec, n):
        if spec.kind == "iid":
            return [rng.choice(spec.dist) for _ in range(n)]
        if spec.kind == "periodic":
            return [spec.pattern[i % len(spec.pattern)] for i in range(n)]
        if spec.kind == "markov_order_k":
            t = spec.transition
            k = t.ndim - 1
            out = [rng.randint(t.shape[-1]) for _ in range(min(k, n))]
            while len(out) < n:
                out.append(rng.choice(t[tuple(out[-k:])]))
            return out
        bits = []
        for i in range(n):
            if i >= spec.gap and rng.uniform() >= spec.eps:
                bits.append(bits[i - spec.gap])
            else:
                bits.append(rng.randint(2))
        return [2 * b + (i % 2) for i, b in enumerate(bits)]

    if spec.kind != "regime_switch":
        return stream(spec, spec.n_symbols)
    n_a = int(spec.switch_fraction * spec.n_symbols)
    return (stream(spec.spec_a, n_a)
            + stream(spec.spec_b, spec.n_symbols - n_a))


def pairs_at_distance(seq, d, separator=None):
    """All (x, y) position pairs with y exactly d after x, skipping any
    pair whose window touches the separator."""
    out = []
    for i in range(len(seq) - d):
        window = seq[i : i + d + 1]
        if separator is not None and separator in window:
            continue
        out.append((seq[i], seq[i + d]))
    return out


def entropy_of_counts(counts: Counter, n: int) -> float:
    return -math.fsum(
        (c / n) * math.log2(c / n) for _, c in sorted(counts.items())
    )


def mi_by_pair_enumeration(seq, d, separator=None) -> float:
    """Plug-in I(d) as H(X) + H(Y) - H(X,Y) over enumerated pairs."""
    pairs = pairs_at_distance(seq, d, separator)
    n = len(pairs)
    if n == 0:
        raise ValueError("no pairs")
    joint = Counter(pairs)
    left = Counter(x for x, _ in pairs)
    right = Counter(y for _, y in pairs)
    return (
        entropy_of_counts(left, n)
        + entropy_of_counts(right, n)
        - entropy_of_counts(joint, n)
    )


def mi_by_cell_sum(seq, d, separator=None) -> float:
    """Plug-in I(d) as the direct sum over joint cells."""
    pairs = pairs_at_distance(seq, d, separator)
    n = len(pairs)
    joint = Counter(pairs)
    left = Counter(x for x, _ in pairs)
    right = Counter(y for _, y in pairs)
    return math.fsum(
        (c / n) * math.log2((c / n) / ((left[x] / n) * (right[y] / n)))
        for (x, y), c in sorted(joint.items())
    )


def mi_by_count_terms(seq, d, separator=None) -> float:
    """Plug-in I(d) in count form: with f(c) = c * log2(c), the fsum of
    +f per joint cell, -f per left and per right symbol, and +f(N),
    divided by N."""
    pairs = pairs_at_distance(seq, d, separator)
    n = len(pairs)

    def f(c):
        return c * math.log2(c)

    joint = Counter(pairs)
    left = Counter(x for x, _ in pairs)
    right = Counter(y for _, y in pairs)
    terms = [f(c) for c in joint.values()]
    terms += [-f(c) for c in left.values()]
    terms += [-f(c) for c in right.values()]
    terms.append(f(n))
    return math.fsum(terms) / n


def top_pmi_by_counting(seq, d, top_k, separator=None):
    """((a, b, d), pmi) for the top_k occurring pairs, sorted by
    (-pmi, a, b), from Counters over the enumerated pairs."""
    pairs = pairs_at_distance(seq, d, separator)
    n = len(pairs)
    joint = Counter(pairs)
    left = Counter(x for x, _ in pairs)
    right = Counter(y for _, y in pairs)
    scored = [
        ((a, b, d), math.log2((n * c) / (left[a] * right[b])))
        for (a, b), c in joint.items()
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:top_k]


def _smoothed(counts: dict[int, int], total: int, n: int, alpha: float) -> np.ndarray:
    dist = np.full(n, alpha, dtype=np.float64)
    for sym, c in counts.items():
        dist[sym] += c
    return dist / (total + alpha * n)


def _build_tables(symbols: Sequence[int], max_order: int) -> tuple[dict, ...]:
    tables: list[dict] = [{} for _ in range(max_order + 1)]
    for pos, sym in enumerate(symbols):
        for j in range(min(max_order, pos) + 1):
            ctx = tuple(symbols[pos - j : pos])
            counts, total = tables[j].get(ctx, (None, 0))
            if counts is None:
                counts = {}
                tables[j][ctx] = (counts, 0)
            counts[sym] = counts.get(sym, 0) + 1
            tables[j][ctx] = (counts, total + 1)
    return tuple(tables)


class DictModel:
    """markov_k, top_frequency and mmc as dict count tables: tables[j]
    maps a length-j context tuple to (counts dict, total), built by the
    per-symbol loop _build_tables and read by a walk down the orders.
    mmc fits its top set on whole-stream frequencies and runs a markov_1
    table over the mapped states."""

    def __init__(self, spec, symbols, alphabet_size):
        symbols = [int(s) for s in symbols]
        self.spec, self.n = spec, alphabet_size
        self.k = {"markov_k": spec.k, "mmc": 1}.get(spec.kind, 0)
        n_states = alphabet_size
        if spec.kind == "mmc":
            counts = Counter(symbols)
            by_freq = sorted(counts, key=lambda s: (-counts[s], s))
            if spec.top_m >= alphabet_size:
                self.top, self.other = tuple(range(alphabet_size)), None
            else:
                self.top = tuple(sorted(by_freq[: spec.top_m]))
                rest = [s for s in by_freq if s not in self.top]
                rest += [s for s in range(alphabet_size) if s not in self.top]
                self.other = rest[0]
            n_states = len(self.top) + (self.other is not None)
            symbols = [self._state(s) for s in symbols]
        self.n_states = n_states
        self.tables = _build_tables(symbols, self.k)

    def _state(self, sym):
        return self.top.index(sym) if sym in self.top else len(self.top)

    def _lookup(self, ctx):
        ctx = tuple(int(c) for c in ctx[-self.k:]) if self.k else ()
        for j in range(len(ctx), -1, -1):
            hit = self.tables[j].get(ctx[len(ctx) - j:])
            if hit is not None and hit[1] > 0:
                return hit
        return {}, 0

    def predict(self, context):
        """(argmax, distribution) after `context`."""
        if self.spec.kind == "mmc":
            context = [self._state(int(c)) for c in context]
        counts, total = self._lookup(list(context))
        if total == 0:
            dist = np.full(self.n_states, 1.0 / self.n_states)
        else:
            dist = _smoothed(counts, total, self.n_states, SMOOTHING_ALPHA)
        best = int(np.argmax(dist))
        if self.spec.kind != "mmc":
            return best, dist
        n_top = len(self.top)
        if self.other is not None:
            out = np.full(self.n, dist[n_top] / (self.n - n_top))
        else:
            out = np.zeros(self.n)
        out[list(self.top)] = dist[:n_top]
        return (self.other if best == n_top else self.top[best]), out

    def transition_counts(self):
        return {ctx: dict(c) for ctx, (c, _) in self.tables[self.k].items()}


def native_predict(model, context) -> tuple[int, np.ndarray]:
    """(argmax, distribution) of a native model after one context: its
    score of every symbol after the last spec.order symbols."""
    seq = np.asarray(context, dtype=np.int64)
    seq = seq[max(seq.size - model.spec.order, 0) :]  # last k
    n = model.alphabet_size
    best, dist = model.score(seq, np.full(n, seq.size), np.arange(n))
    return int(best[0]), dist


def transition_counts(model) -> dict[tuple[int, ...], dict[int, int]]:
    """A native model's highest-order counts as {context: {next: count}},
    rebuilt from its array tables (mmc: its state chain's) to compare with
    DictModel.transition_counts."""
    if isinstance(model, MmcModel):
        model = model.inner
    if not isinstance(model, MarkovModel) or len(model.tables) < 2:
        raise TypeError(f"{model.spec.label} has no transition table")
    # the order j+1 contexts by code are the order-j cells, so the cells
    # of the top order come out as whole windows
    cells = [()]
    for table in model.tables:
        code, sym = np.divmod(table.keys, model.alphabet_size)
        cells = [cells[c] + (s,) for c, s in zip(code.tolist(), sym.tolist())]
    out: dict[tuple[int, ...], dict[int, int]] = {}
    for cell, count in zip(cells, model.tables[-1].counts.tolist()):
        out.setdefault(cell[:-1], {})[cell[-1]] = count
    return out


def contexts_by_walk(train_idx, test_idx, symbols, timestamps, need):
    """(truth, context, context timestamps) per test position: walk back
    from each test position over the train positions and the test
    positions already revealed, collecting at most `need` of them."""
    known = set(train_idx)
    out = []
    for t in test_idx:
        ctx, ctx_ts = [], []
        j = t - 1
        while j >= 0 and len(ctx) < need:
            if j in known:
                ctx.append(symbols[j])
                ctx_ts.append(timestamps[j])
            j -= 1
        out.append((symbols[t], ctx[::-1], ctx_ts[::-1]))
        known.add(t)
    return out


def _block(verb: str, symbols, timestamps) -> str:
    return f"{verb} {len(symbols)}\n" + "".join(
        f"{s} {t}\n" for s, t in zip(symbols, timestamps)
    )


def external_answers(command, train_symbols, train_timestamps, walk):
    """(argmax, distribution or None) per (truth, context, context
    timestamps) of `walk`, from one run of the external predictor
    `command` given its TRAIN block and every PREDICT block at once."""
    text = _block("TRAIN", train_symbols, train_timestamps) + "".join(
        _block("PREDICT", ctx, ctx_ts) for _, ctx, ctx_ts in walk
    )
    out = subprocess.run(command, input=text.encode(), capture_output=True,
                         check=True, timeout=60).stdout
    answers = []
    for line in out.decode().splitlines():
        poi, *probs = line.split()
        answers.append((int(poi), [float(p) for p in probs] or None))
    assert len(answers) == len(walk)
    return answers


def evaluate_per_position(ds, spec, plan) -> dict:
    """evaluate(ds, spec, plan).to_dict() by the per-position loop: every
    fold trains a fresh model on its distinct train positions in time
    order, and every test position is predicted from its own context, as
    found by contexts_by_walk.  A native model answers each context by
    native_predict; an external predictor runs once per fold on its
    whole input (external_answers).  Raises what evaluate raises."""
    need = {"markov_k": spec.k, "mmc": 1,
            "external": plan.external_context_window}.get(spec.kind, 0)
    streams = [
        (s.user_id, s.poi_ids.tolist(), s.timestamps.tolist())
        for s in ds.sequences
    ]
    rows, per_user_acc, per_user_bits, excluded = [], [], [], []
    n_infeasible = 0
    for user_id, symbols, timestamps in streams:
        user_rows = []
        try:
            for fold in make_folds(plan, len(symbols)):
                train_pos = sorted(set(fold.train_idx.tolist()))
                train_syms = [symbols[i] for i in train_pos]
                test_idx = fold.test_idx.tolist()
                walk = contexts_by_walk(train_pos, test_idx, symbols,
                                        timestamps, need)
                if spec.kind == "external":
                    answers = external_answers(
                        spec.command, train_syms,
                        [timestamps[i] for i in train_pos], walk,
                    )
                else:
                    model = train(spec, train_syms, ds.alphabet.size)
                    answers = [native_predict(model, ctx)
                               for _, ctx, _ in walk]
                n_correct, bits_terms, has_bits = 0, [], True
                for (truth, _, _), (pred, dist) in zip(walk, answers):
                    n_correct += pred == truth
                    if dist is None:
                        has_bits = False
                    else:
                        p = float(dist[truth])
                        bits_terms.append(
                            -math.log2(p) if p > 0.0 else math.inf
                        )
                n_pred = len(test_idx)
                user_rows.append({
                    "user_id": user_id,
                    "fold": fold.index,
                    "train_lo": train_pos[0],
                    "train_hi": train_pos[-1] + 1,
                    "test_lo": test_idx[0],
                    "test_hi": test_idx[-1] + 1,
                    "n_correct": int(n_correct),
                    "n_predictions": n_pred,
                    "accuracy": n_correct / n_pred,
                    "bits_per_symbol": (
                        math.fsum(bits_terms) / n_pred if has_bits else None
                    ),
                    "leaky": fold.leaky,
                })
        except (InfeasiblePlanError, DataError) as e:
            excluded.append(user_id)
            n_infeasible += isinstance(e, InfeasiblePlanError)
            continue
        rows += user_rows
        per_user_acc.append(float(np.mean([r["accuracy"] for r in user_rows])))
        fold_bits = [r["bits_per_symbol"] for r in user_rows]
        if None not in fold_bits:
            per_user_bits.append(float(np.mean(fold_bits)))
    total_pred = sum(r["n_predictions"] for r in rows)
    if total_pred == 0:
        if n_infeasible == len(streams):
            raise InfeasiblePlanError(
                f"plan {plan.label} is infeasible for every stream "
                f"({', '.join(excluded)})"
            )
        raise DataError(
            "zero test predictions overall"
            + (f" (excluded users: {', '.join(excluded)})" if excluded else "")
        )
    have_bits = len(per_user_bits) == len(per_user_acc)
    by_fold = {}
    for r in rows:
        by_fold.setdefault(r["fold"], []).append(r["accuracy"])
    return {
        "plan": plan.label,
        "model": spec.label,
        "leaky": plan.leaky,
        "accuracy_user_mean": float(np.mean(per_user_acc)),
        "accuracy_weighted": sum(r["n_correct"] for r in rows) / total_pred,
        "bits_user_mean": (
            float(np.mean(per_user_bits)) if have_bits else None
        ),
        "bits_weighted": (
            math.fsum(r["bits_per_symbol"] * r["n_predictions"] for r in rows)
            / total_pred
            if have_bits
            else None
        ),
        "n_predictions": total_pred,
        "excluded_users": excluded,
        "fold_curve": [
            [f, float(np.mean(accs))] for f, accs in sorted(by_fold.items())
        ],
        "folds": rows,
    }


def write_csv_cell_by_cell(path, header, rows) -> None:
    """The bytes of report's CSV writers, formatting one cell at a time."""

    def fmt(v) -> str:
        if v is None:
            return "n/a"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(fmt(c) for c in row) + "\n")
    path.write_text(buf.getvalue(), encoding="utf-8")


def columns_by_value(rows, fields) -> list[list]:
    """One list per (name, type code) field of a JSON line's rows, each
    value checked on its own in row order.

    Rows must be a list of lists of len(fields) values.  A "q" value must
    be an int or a float with no fraction, and is read with int(); a "d"
    value an int or a float, read with float().  bool is neither.  The
    first value refused is a ValueError naming its field.  Once every
    value has passed, the first field, in field order, holding a "q"
    beyond int64 or a "d" beyond float is an OverflowError whose text is
    the field's name.
    """
    width = len(fields)
    if type(rows) is not list or any(
        type(row) is not list or len(row) != width for row in rows
    ):
        raise ValueError(f"expected rows of {width} values")
    for row in rows:
        for (name, code), value in zip(fields, row):
            if code == "q" and not (
                type(value) is int
                or (type(value) is float and math.isfinite(value)
                    and value == int(value))
            ):
                raise ValueError(
                    f"{name} {json.dumps(value)} is not an integer")
            if code == "d" and type(value) not in (int, float):
                raise ValueError(f"{name} {json.dumps(value)} is not a number")
    columns = []
    for i, (name, code) in enumerate(fields):
        try:
            column = [int(row[i]) if code == "q" else float(row[i])
                      for row in rows]
        except OverflowError:  # float() of an int beyond float
            raise OverflowError(name) from None
        if code == "q" and any(not -2**63 <= v < 2**63 for v in column):
            raise OverflowError(name)
        columns.append(column)
    return columns


def brute_match_lengths(seq) -> list[int]:
    """Lambda_i = 1 + longest prefix of seq[i:] appearing in seq[:i]."""
    n = len(seq)
    out = []
    for i in range(n):
        best = 0
        for length in range(1, n - i + 1):
            gram = seq[i : i + length]
            found = any(
                seq[j : j + length] == gram for j in range(i - length + 1)
            )
            if found:
                best = length
            else:
                break
        out.append(best + 1)
    return out


def brute_entropy_rate(seq) -> float:
    lams = brute_match_lengths(seq)
    n = len(seq)
    return n * math.log2(n) / sum(lams)


def brute_match_structure(seq, match_lengths=(1, 2, 4, 8), separator=None):
    """(pos, L, smallest delta) triples by direct quadratic scanning."""
    n = len(seq)
    out = []
    for L in match_lengths:
        for i in range(n - L + 1):
            gram = seq[i : i + L]
            if separator is not None and separator in gram:
                continue
            for delta in range(1, i + 1):
                past = seq[i - delta : i - delta + L]
                if separator is not None and separator in past:
                    continue
                if past == gram:
                    out.append((i, L, delta))
                    break
    out.sort()
    return out


def pearson_by_hand(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def fano_residual(pi: float, s: float, n: int) -> float:
    """H_b(pi) + (1-pi) log2(N-1) - S; zero at the Fano solution."""
    return binary_entropy(pi) + (1 - pi) * math.log2(n - 1) - s


def collapse_self_transitions(symbols: Sequence[int]) -> list[int]:
    """Drop repeats of the immediately preceding symbol (keep the first)."""
    out: list[int] = []
    for s in symbols:
        if not out or out[-1] != s:
            out.append(s)
    return out


def unwrap_lon(lon: float, ref: float) -> float:
    """lon moved by 360 degrees to within 180 of ref, when it is not."""
    if lon - ref > 180.0:
        return lon - 360.0
    if ref - lon > 180.0:
        return lon + 360.0
    return lon


def wrap_lon(lon: float) -> float:
    """A mean of unwrapped longitudes back in [-180, 180]."""
    return unwrap_lon(lon, 0.0)


def staypoints_by_full_recheck(traj, p):
    """detect_staypoints as it was before the drift bound: every candidate
    centroid re-measures every fix of the window (quadratic in dwell
    length), so the fast scan must return exactly this.  Longitudes are
    unwrapped around the window's first fix, as the scan does."""
    lat, raw_lon, t = traj.lat.tolist(), traj.lon.tolist(), traj.t.tolist()
    n = len(t)
    out = []
    i = 0
    while i < n:
        lon = [unwrap_lon(x, raw_lon[i]) for x in raw_lon]
        lat_sum, lon_sum = lat[i], lon[i]
        j = i
        while j + 1 < n:
            cand_lat = (lat_sum + lat[j + 1]) / (j + 2 - i)
            cand_lon = (lon_sum + lon[j + 1]) / (j + 2 - i)
            if all(
                haversine_m(lat[m], lon[m], cand_lat, cand_lon)
                <= p.stay_radius_m
                for m in range(i, j + 2)
            ):
                lat_sum += lat[j + 1]
                lon_sum += lon[j + 1]
                j += 1
            else:
                break
        if t[j] - t[i] >= p.stay_min_duration_s:
            out.append(
                Staypoint(
                    traj.user_id,
                    lat_sum / (j + 1 - i),
                    wrap_lon(lon_sum / (j + 1 - i)),
                    t[i],
                    t[j],
                )
            )
            i = j + 1
        else:
            i += 1
    return out


def naive_staypoints(traj, p):
    """Independent greedy reimplementation recomputing every window's
    centroid and maximum distance from scratch, longitudes unwrapped
    around the window's first fix; (lat, lon, arrival, departure) per
    staypoint."""
    points = list(zip(traj.lat.tolist(), traj.lon.tolist(), traj.t.tolist()))

    def centroid(window):
        return (
            sum(q[0] for q in window) / len(window),
            sum(unwrap_lon(q[1], window[0][1]) for q in window) / len(window),
        )

    out = []
    i = 0
    while i < len(points):
        j = i
        while j + 1 < len(points):
            window = points[i : j + 2]
            clat, clon = centroid(window)
            if max(
                haversine_m(q[0], q[1], clat, clon) for q in window
            ) <= p.stay_radius_m:
                j += 1
            else:
                break
        if points[j][2] - points[i][2] >= p.stay_min_duration_s:
            clat, clon = centroid(points[i : j + 1])
            out.append((clat, wrap_lon(clon), points[i][2], points[j][2]))
            i = j + 1
        else:
            i += 1
    return out
