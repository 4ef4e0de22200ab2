"""Synthetic POI-sequence sources with known statistics.

These are the oracle bed for the metrics and the validation-sensitivity
demonstration: every source records its analytic ground truth (entropy
rate, designed MI, regime boundary) alongside the generated data.

Self-transitions are collapsed after generation, like every other
Dataset.  That collapse changes the statistics of sources whose raw
output can repeat symbols (iid, markov with nonzero diagonal), so the
ground truth carries a ``collapse_is_noop`` flag; tests that need the
raw-source statistics use :func:`raw_stream` directly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DataError, Dataset, PoiAlphabet, PoiSequence
from .entropy import binary_entropy
from .rng import SplitMix64, below


# the fields each kind reads besides n_symbols, n_users and seed
KIND_FIELDS = {
    "iid": ("dist",),
    "periodic": ("pattern",),
    "markov_order_k": ("transition",),
    "copy_with_gap": ("gap", "eps"),
    "regime_switch": ("spec_a", "spec_b", "switch_fraction"),
}
_COMMON_FIELDS = ("n_symbols", "n_users", "seed")


class FieldError(ValueError):
    """A value of one SourceSpec field that the spec refuses."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of one synthetic source.

    kind-specific fields:
      iid            dist: symbol probabilities
      periodic       pattern: symbol ids cycled verbatim
      markov_order_k transition: array of shape (N,)*k + (N,), rows normalized
      copy_with_gap  gap k and noise eps (see _copy_with_gap for the layout)
      regime_switch  spec_a / spec_b (no nesting) and switch_fraction;
                     generation reads only the kind fields of spec_a and
                     spec_b, and their JSON form holds nothing else
    """

    kind: str
    n_symbols: int
    n_users: int = 1
    seed: int = 0
    dist: Optional[tuple[float, ...]] = None
    pattern: Optional[tuple[int, ...]] = None
    transition: Optional[np.ndarray] = None
    gap: int = 1
    eps: float = 0.0
    spec_a: Optional["SourceSpec"] = None
    spec_b: Optional["SourceSpec"] = None
    switch_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.n_symbols < 2:
            raise FieldError("n_symbols", "n_symbols must be >= 2")
        if self.n_users < 1:
            raise FieldError("n_users", "n_users must be >= 1")
        if self.kind == "iid":
            if not self.dist:
                raise FieldError("dist", "iid needs dist")
            if any(p < 0 for p in self.dist) or abs(sum(self.dist) - 1.0) > 1e-9:
                raise FieldError("dist",
                                 "dist must be a normalized distribution")
        if self.kind == "periodic":
            if not self.pattern or len(self.pattern) < 1:
                raise FieldError("pattern", "periodic needs a pattern")
            if any(p < 0 for p in self.pattern):
                raise FieldError("pattern", "pattern symbols must be >= 0")
        if self.kind == "markov_order_k":
            t = self.transition
            if t is None:
                raise FieldError("transition",
                                 "markov_order_k needs transition tables")
            t = np.asarray(t, dtype=np.float64)
            if t.ndim < 2 or len(set(t.shape)) != 1:
                raise ValueError(
                    "transition must have shape (N,)*k + (N,) with one N"
                )
            if np.any(t < 0) or np.any(np.abs(t.sum(axis=-1) - 1.0) > 1e-9):
                raise ValueError("transition rows must be normalized")
            object.__setattr__(self, "transition", t)
        if self.kind == "copy_with_gap":
            if self.gap < 1:
                raise FieldError("gap", "gap must be >= 1")
            if not 0.0 <= self.eps < 1.0:
                raise FieldError("eps", "eps must be in [0, 1)")
        if self.kind == "regime_switch":
            for name in ("spec_a", "spec_b"):
                if getattr(self, name) is None:
                    raise FieldError(name,
                                     "regime_switch needs spec_a and spec_b")
            if self.spec_a.kind == "regime_switch" or \
               self.spec_b.kind == "regime_switch":
                raise ValueError("regime specs cannot nest")
            if not 0.0 < self.switch_fraction < 1.0:
                raise FieldError("switch_fraction",
                                 "switch_fraction must be in (0, 1)")

    @property
    def alphabet_size(self) -> int:
        if self.kind == "iid":
            return len(self.dist)
        if self.kind == "periodic":
            return max(self.pattern) + 1
        if self.kind == "markov_order_k":
            return self.transition.shape[-1]
        if self.kind == "copy_with_gap":
            return 4
        return max(self.spec_a.alphabet_size, self.spec_b.alphabet_size)


def _iid_stream(spec: SourceSpec, rng: SplitMix64, n: int) -> list[int]:
    return rng.choice(spec.dist, n).tolist()


def _periodic_stream(spec: SourceSpec, n: int) -> list[int]:
    pat = spec.pattern
    return [pat[i % len(pat)] for i in range(n)]


def _markov_stream(spec: SourceSpec, rng: SplitMix64, n: int) -> list[int]:
    """k uniform draws open the stream; each later symbol bisects the CDF
    row of its context with one uniform, as rng.choice would."""
    t = spec.transition
    k = t.ndim - 1
    n_sym = t.shape[-1]
    out = rng.randint(n_sym, min(k, n)).tolist()
    cdf = np.cumsum(t, axis=-1).reshape(-1, n_sym).tolist()
    # the row of the last k symbols, read as base-n_sym digits
    n_rows = len(cdf)
    row = 0
    for s in out:
        row = row * n_sym + s
    for u in rng.uniform(n - len(out)).tolist():
        s = min(bisect.bisect_right(cdf[row], u), n_sym - 1)
        out.append(s)
        row = (row * n_sym + s) % n_rows
    return out


def _copy_with_gap(spec: SourceSpec, rng: SplitMix64, n: int) -> list[int]:
    """4-symbol source with a designed dependence at distance ``gap``.

    Emits s_i = 2*b_i + (i mod 2): a hidden bit plus an alternating phase
    bit.  b_i copies b_{i-gap} with probability 1-eps and is fresh uniform
    otherwise (fresh for i < gap).  The phase guarantees s_i != s_{i+1},
    so self-transition collapse never fires and the designed dependence
    survives; the bit channel alone carries 1 - H_b(eps/2) bits at
    distance gap, on top of the deterministic 1 phase bit present at
    every distance.

    A symbol past the gap draws one uniform, and a fresh bit one more;
    the draws are taken in one block ahead and the RNG skips what was used.
    """
    bits = rng.randint(2, min(spec.gap, n)).tolist()
    u = rng.peek(2 * (n - len(bits)))
    fresh = below(u, 2).tolist()
    u = u.tolist()
    j = 0
    for i in range(len(bits), n):
        if u[j] >= spec.eps:
            bits.append(bits[i - spec.gap])
            j += 1
        else:
            bits.append(fresh[j + 1])
            j += 2
    rng.skip(j)
    return [2 * b + (i % 2) for i, b in enumerate(bits)]


def _dispatch(spec: SourceSpec, rng: SplitMix64, n: int) -> list[int]:
    if spec.kind == "iid":
        return _iid_stream(spec, rng, n)
    if spec.kind == "periodic":
        return _periodic_stream(spec, n)
    if spec.kind == "markov_order_k":
        return _markov_stream(spec, rng, n)
    if spec.kind == "copy_with_gap":
        return _copy_with_gap(spec, rng, n)
    raise AssertionError(spec.kind)


def raw_stream(spec: SourceSpec, rng: SplitMix64) -> list[int]:
    """One user's pre-collapse stream; consumes the given RNG stream.

    For regime_switch the segment lengths come from the parent spec; the
    nested specs contribute only their dynamics.
    """
    n = spec.n_symbols
    if spec.kind != "regime_switch":
        return _dispatch(spec, rng, n)
    n_a = int(spec.switch_fraction * n)
    return _dispatch(spec.spec_a, rng, n_a) + _dispatch(spec.spec_b, rng, n - n_a)


def _markov_entropy_rate(t: np.ndarray) -> Optional[float]:
    """Analytic rate for order-1 chains: sum_x pi(x) H(row x)."""
    if t.ndim != 2:
        return None
    n = t.shape[0]
    a = np.vstack([t.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    rate = 0.0
    for x in range(n):
        row = t[x]
        h = -sum(p * math.log2(p) for p in row if p > 0)
        rate += pi[x] * h
    return float(rate)


def _ground_truth(spec: SourceSpec) -> dict:
    gt: dict = {"kind": spec.kind, "alphabet_size": spec.alphabet_size}
    if spec.kind == "iid":
        gt["entropy_rate_bits"] = -sum(
            p * math.log2(p) for p in spec.dist if p > 0
        )
        gt["collapse_is_noop"] = False
        gt["mi_note"] = (
            "raw source has I(d) = 0 for all d; collapse introduces "
            "I(1) = log2(N/(N-1)) on the emitted sequence"
        )
    elif spec.kind == "periodic":
        gt["entropy_rate_bits"] = 0.0
        gt["period"] = len(spec.pattern)
        pat = spec.pattern
        gt["collapse_is_noop"] = all(
            pat[i] != pat[(i + 1) % len(pat)] for i in range(len(pat))
        )
    elif spec.kind == "markov_order_k":
        t = spec.transition
        gt["order"] = t.ndim - 1
        rate = _markov_entropy_rate(t)
        if rate is not None:
            gt["entropy_rate_bits"] = rate
        gt["collapse_is_noop"] = bool(
            np.all(np.diagonal(t, axis1=-2, axis2=-1) == 0.0)
        )
    elif spec.kind == "copy_with_gap":
        gt["designed_gap"] = spec.gap
        gt["bit_channel_mi_at_gap_bits"] = 1.0 - binary_entropy(spec.eps / 2.0)
        gt["phase_mi_every_distance_bits"] = 1.0
        gt["entropy_rate_bits"] = binary_entropy(spec.eps / 2.0)
        gt["collapse_is_noop"] = True
    else:
        gt["switch_fraction"] = spec.switch_fraction
        gt["switch_index"] = int(spec.switch_fraction * spec.n_symbols)
        gt["regime_a"] = _ground_truth(spec.spec_a)
        gt["regime_b"] = _ground_truth(spec.spec_b)
        gt["collapse_is_noop"] = bool(
            gt["regime_a"].get("collapse_is_noop")
            and gt["regime_b"].get("collapse_is_noop")
        )
    return gt


def generate(spec: SourceSpec) -> tuple[Dataset, dict]:
    """Deterministic dataset plus its analytic ground truth.

    A single sequential RNG stream seeded by spec.seed drives all users
    in order, so identical specs are bit-identical.
    """
    rng = SplitMix64(spec.seed)
    n_pois = spec.alphabet_size
    sequences = []
    for u in range(spec.n_users):
        raw = raw_stream(spec, rng)
        seq = PoiSequence.from_visits(f"u{u:04d}", raw, range(len(raw)))
        if len(seq) < 2:
            raise DataError(
                f"source collapses to a constant sequence for user u{u:04d}"
            )
        sequences.append(seq)
    ds = Dataset(
        name=f"synth_{spec.kind}",
        alphabet=PoiAlphabet.synthetic(n_pois),
        sequences=tuple(sequences),
        provenance={
            "source": "synth",
            "kind": spec.kind,
            "seed": spec.seed,
            "n_symbols": spec.n_symbols,
            "n_users": spec.n_users,
        },
    )
    return ds, _ground_truth(spec)


def _json_value(value):
    if isinstance(value, SourceSpec):
        # a regime's nested spec_a / spec_b: generation takes n_symbols,
        # n_users and seed from the regime_switch spec
        return {"kind": value.kind,
                **{name: _json_value(getattr(value, name))
                   for name in KIND_FIELDS[value.kind]}}
    if isinstance(value, (tuple, np.ndarray)):
        return np.asarray(value).tolist()
    return value


def spec_to_dict(spec: SourceSpec) -> dict:
    """JSON-safe form of a SourceSpec (CLI spec files, provenance): the
    common fields, then those of KIND_FIELDS[kind].  A regime's nested
    spec_a and spec_b hold their kind's fields only."""
    fields = ("kind",) + _COMMON_FIELDS + KIND_FIELDS[spec.kind]
    return {name: _json_value(getattr(spec, name)) for name in fields}


# how spec_from_dict reads each field from its JSON value
_READERS = {
    "n_symbols": int, "n_users": int, "seed": int, "gap": int, "eps": float,
    "switch_fraction": float, "dist": lambda v: tuple(map(float, v)),
    "pattern": lambda v: tuple(map(int, v)),
    "transition": lambda v: np.asarray(v, dtype=np.float64),
}


def _read_spec(obj: dict, outer: Optional[dict] = None) -> SourceSpec:
    """The SourceSpec of obj.  A regime's nested spec reads only its kind's
    fields and takes the common ones, `outer`, from the regime_switch spec."""
    fields = ((_COMMON_FIELDS if outer is None else ())
              + KIND_FIELDS.get(obj["kind"], ()))
    values = dict(outer or {})
    for name in fields:
        if name not in obj:
            continue
        if name in ("spec_a", "spec_b"):
            values[name] = _read_spec(obj[name], {
                k: values[k] for k in _COMMON_FIELDS if k in values})
        else:
            try:
                values[name] = _READERS[name](obj[name])
            except (TypeError, ValueError) as e:
                raise FieldError(name, str(e)) from e
    spec = SourceSpec(kind=obj["kind"], **values)
    unread = sorted(set(obj) - {"kind", *fields})
    if unread:
        raise ValueError(f"kind {spec.kind} does not read "
                         f"{', '.join(map(repr, unread))}; it reads: "
                         f"{', '.join(fields)}")
    return spec


def spec_from_dict(obj: dict) -> SourceSpec:
    """The SourceSpec of spec_to_dict's form.  A field left out takes its
    SourceSpec default; a key that the kind does not read is refused, and
    a regime's nested spec reads only its kind's fields.  A refused value
    of one field raises DataError from a FieldError that names it."""
    try:
        return _read_spec(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed source spec: {e}") from e
