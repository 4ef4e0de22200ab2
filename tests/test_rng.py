import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobmeta import rng as rng_module
from mobmeta.rng import SplitMix64
from oracles import ScalarSplitMix64

# first outputs of the reference implementation for seed 0, as published
# with the original algorithm
SEED0_OUTPUTS = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)

GAMMA = 0x9E3779B97F4A7C15
EDGE_SEEDS = (0, 1, 2**64 - 1)
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1)
counts = st.sampled_from((0, 1, 2)) | st.integers(0, 300)


def state_after(seed: int, consumed: int) -> int:
    return (seed + consumed * GAMMA) % 2**64


def test_published_vectors_seed_zero():
    assert tuple(SplitMix64(0).u64(4).tolist()) == SEED0_OUTPUTS
    oracle = ScalarSplitMix64(0)
    assert tuple(oracle.next_u64() for _ in range(4)) == SEED0_OUTPUTS


def test_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).u64(1)[0] == SplitMix64(0).u64(1)[0]


def test_uniform_in_unit_interval():
    draws = SplitMix64(42).uniform(10_000)
    assert draws.dtype == np.float64
    assert np.all((0.0 <= draws) & (draws < 1.0))
    assert 0.45 < draws.mean() < 0.55


def test_randint_bounds_and_coverage():
    rng = SplitMix64(7)
    draws = rng.randint(5, 2_000)
    assert draws.dtype == np.int64
    assert set(draws.tolist()) == {0, 1, 2, 3, 4}
    for n in (0, -1, 2**53 + 1):
        with pytest.raises(ValueError):
            rng.randint(n, 1)


def test_choice_respects_distribution():
    draws = SplitMix64(3).choice((0.1, 0.0, 0.9), 5_000).tolist()
    assert draws.count(1) == 0
    assert draws.count(2) / len(draws) == pytest.approx(0.9, abs=0.02)


def test_choice_degenerate():
    assert SplitMix64(1).choice((1.0,), 3).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        SplitMix64(1).choice((), 1)


def test_shuffle_deterministic_permutation():
    a = list(range(20))
    b = list(range(20))
    SplitMix64(99).shuffle(a)
    SplitMix64(99).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
    c = list(range(20))
    SplitMix64(100).shuffle(c)
    assert c != a


# ---- block draws against the scalar recurrence (tests/oracles.py) ----


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=counts)
def test_u64_and_uniform_blocks_equal_scalar_loop(seed, count):
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert rng.u64(count).tolist() == [oracle.next_u64() for _ in range(count)]
    assert rng.uniform(count).tolist() == [oracle.uniform()
                                           for _ in range(count)]
    assert rng.state == oracle.state == state_after(seed, 2 * count)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_long_block_equals_scalar_loop(seed):
    count = 10**5
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    block = rng.u64(count)
    assert block.dtype == np.uint64
    assert block.tolist() == [oracle.next_u64() for _ in range(count)]
    assert rng.state == oracle.state == state_after(seed, count)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=counts,
       n=st.sampled_from((1, 2, 3, 2**53 - 1)) | st.integers(1, 2**53 - 1))
@example(seed=2**64 - 1, count=2, n=2**53)
def test_randint_block_equals_scalar_loop(seed, count, n):
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert rng.randint(n, count).tolist() == [oracle.randint(n)
                                              for _ in range(count)]
    assert rng.state == oracle.state


probs = st.lists(
    st.sampled_from((0.0, 0.1, 1e-300)) | st.floats(0.0, 1.0),
    min_size=1, max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, count=counts, p=probs)
@example(seed=0, count=50, p=[0.0, 0.5, 0.0, 0.5, 0.0])
@example(seed=1, count=50, p=[0.1] * 10)
@example(seed=2, count=50, p=[0.2, 0.0, 0.3])
def test_choice_block_equals_scalar_loop(seed, count, p):
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert rng.choice(p, count).tolist() == [oracle.choice(p)
                                             for _ in range(count)]
    assert rng.state == oracle.state


def test_choice_last_index_fallback():
    # a running sum that ends below 1 leaves uniforms above it: those draw
    # the last index, zero-probability or not
    p = (0.2, 0.3, 0.0)
    u = SplitMix64(4).uniform(200)
    assert np.any(u >= 0.5)
    oracle = ScalarSplitMix64(4)
    draws = SplitMix64(4).choice(p, 200)
    assert draws.tolist() == [oracle.choice(p) for _ in range(200)]
    np.testing.assert_array_equal(draws == 2, u >= 0.5)
    # (0.1,) * 10 sums to 1 - 2^-53: the fallback is the last index
    ten = [0.1] * 10
    assert np.cumsum(ten)[-1] < 1.0
    assert sum(ten) == np.cumsum(ten)[-1]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.sampled_from((0, 1, 2)) | st.integers(0, 400))
def test_shuffle_equals_scalar_loop(seed, n):
    a, b = list(range(n)), list(range(n))
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    rng.shuffle(a)
    oracle.shuffle(b)
    assert a == b
    assert rng.state == oracle.state == state_after(seed, max(n - 1, 0))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, a=counts, b=counts)
def test_blocks_continue_one_stream(seed, a, b):
    split = SplitMix64(seed)
    first, second = split.u64(a), split.u64(b)
    whole = SplitMix64(seed).u64(a + b)
    assert first.tolist() + second.tolist() == whole.tolist()
    assert split.state == state_after(seed, a + b)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, ahead=counts, used=counts)
def test_peek_consumes_nothing_and_skip_advances(seed, ahead, used):
    rng = SplitMix64(seed)
    peeked = rng.peek(ahead)
    assert rng.state == seed % 2**64
    rng.skip(used)
    assert rng.state == state_after(seed, used)
    drawn = SplitMix64(seed).uniform(max(ahead, used))
    assert peeked.tolist() == drawn[:ahead].tolist()


# ---- every operand of the block arithmetic stays uint64 ----


class _Recorder(np.ndarray):
    """An array that logs every ufunc applied to it: name, the dtype (or
    Python type) of each operand, and the dtype of the result."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        raw = [x.view(np.ndarray) if isinstance(x, _Recorder) else x
               for x in inputs]
        out = getattr(ufunc, method)(*raw, **kwargs)
        _Recorder.log.append((ufunc.__name__, [_kind(x) for x in raw],
                              _kind(out)))
        return out.view(_Recorder) if isinstance(out, np.ndarray) else out


def _kind(x) -> str:
    if isinstance(x, (np.ndarray, np.generic)):
        return str(x.dtype)
    return type(x).__name__


class _RecordingNumpy:
    """numpy, except that arange hands out recording arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def arange(*args, **kwargs):
        return np.arange(*args, **kwargs).view(_Recorder)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_block_arithmetic_is_uint64_until_the_float_conversion(
        monkeypatch, seed):
    # numpy 1.x turns uint64 mixed with int64, or with a Python int in a
    # scalar operation, into float64, and the outputs would silently
    # change; so no operand may be anything but uint64
    monkeypatch.setattr(rng_module, "np", _RecordingNumpy())
    _Recorder.log = []
    u = SplitMix64(seed).uniform(64)
    log = _Recorder.log
    first_float = next(i for i, (_, ins, out) in enumerate(log)
                       if out == "float64")
    integer_ops = log[:first_float]
    assert len(integer_ops) >= 11  # the whole mix and the 53-bit shift
    for name, ins, out in integer_ops:
        assert ins == ["uint64"] * len(ins) and out == "uint64", name
    monkeypatch.undo()
    assert np.asarray(u).tolist() == SplitMix64(seed).uniform(64).tolist()
