"""Deterministic 64-bit mixing PRNG used everywhere randomness is needed.

The recurrence is SplitMix64 (Steele, Lea & Flood 2014), fully specified
so datasets and fold shuffles are bit-reproducible across implementations
and languages:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

The k-th output after a state s depends only on s + k * 0x9E3779B97F4A7C15,
so draws are made in blocks: the next `count` outputs are computed at once
in wrapping uint64 array arithmetic, and equal the scalar recurrence above
output for output.  After every call the state is the scalar loop's,
seed + consumed * 0x9E3779B97F4A7C15 mod 2^64, so the next caller's
stream does not depend on how earlier draws were blocked.

uniform() maps the top 53 bits to [0, 1); integer draws use
floor(uniform * n), whose modulo bias is O(n / 2^53) and irrelevant at
the alphabet sizes involved; choice() returns the first index whose
running sum of probabilities exceeds the uniform, or the last index when
rounding leaves the sum at or below it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Every operand of the block arithmetic is uint64: numpy 1.x promotes
# uint64 with int64 (and with Python ints, in scalar operations) to float64.
_U_GAMMA = np.uint64(_GAMMA)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _outputs(state: int, count: int) -> np.ndarray:
    """The `count` outputs that follow `state`, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64) * _U_GAMMA + np.uint64(state)
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _unit(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of each output as a float in [0, 1)."""
    return (z >> _S11).astype(np.float64) / 9007199254740992.0  # 2^53


def below(u: np.ndarray, n) -> np.ndarray:
    """floor(u * n) clipped to n - 1: integers in [0, n) from uniforms.

    n is an int or an int64 array of bounds, one per uniform.
    """
    n = np.asarray(n, dtype=np.int64)
    return np.minimum((u * n.astype(np.float64)).astype(np.int64), n - 1)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def skip(self, count: int) -> None:
        """Advance past `count` outputs without computing them."""
        self.state = (self.state + count * _GAMMA) & _MASK

    def u64(self, count: int) -> np.ndarray:
        """The next `count` outputs as one uint64 array."""
        z = _outputs(self.state, count)
        self.skip(count)
        return z

    def peek(self, count: int) -> np.ndarray:
        """The next `count` uniforms, without consuming them: a caller that
        uses a data-dependent number of draws takes a block ahead, then
        skips what it used."""
        return _unit(_outputs(self.state, count))

    def uniform(self, count: int) -> np.ndarray:
        """`count` floats in [0, 1)."""
        return _unit(self.u64(count))

    def randint(self, n: int, count: int) -> np.ndarray:
        """`count` integers in [0, n), as int64."""
        if not 1 <= n <= 1 << 53:
            raise ValueError(f"n must be in [1, 2^53], got {n}")
        return below(self.uniform(count), n)

    def choice(self, probs: Sequence[float], count: int) -> np.ndarray:
        """`count` indices drawn from a nonnegative, normalized distribution:
        the first index whose running sum exceeds the uniform."""
        if len(probs) == 0:
            raise ValueError("choice needs at least one probability")
        # np.cumsum adds in index order, as a running scan would
        cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
        idx = cdf.searchsorted(self.uniform(count), "right")
        return np.minimum(idx, len(probs) - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending: position i swaps with a draw
        below i + 1, for i = n - 1 down to 1."""
        n = len(items)
        if n < 2:
            return
        swaps = below(self.uniform(n - 1), np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]
