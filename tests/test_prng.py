"""Tests for the portable random source.

The golden vectors were produced by the canonical public-domain C
implementation of SplitMix64 (compiled separately); they pin the stream
bit-for-bit so any port can be checked against the same numbers.  They pin
both the scalar generator of ``oracles`` and the package's own draws, the
lockstep kernels'.
"""

import math

import numpy as np
import pytest

import oracles
from oracles import SplitMix64
from ruinfair import _kernels
from ruinfair.prng import substream_seed

GOLDEN_U64 = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
}

GOLDEN_UNIFORMS_42 = [
    0.74156487877182331,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
]


@pytest.mark.parametrize("seed", sorted(GOLDEN_U64))
def test_u64_stream_matches_reference(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(5)] == GOLDEN_U64[seed]
    states = np.uint64(seed) + np.arange(1, 6, dtype=np.uint64) * _kernels._GAMMA
    assert _kernels._mix64(states).tolist() == GOLDEN_U64[seed]


def test_uniform_matches_reference():
    rng = SplitMix64(42)
    for expected in GOLDEN_UNIFORMS_42:
        assert rng.uniform() == expected
    assert list(_kernels.uniforms(42, 0, 4)) == GOLDEN_UNIFORMS_42


def test_uniform_range_and_determinism():
    rng = SplitMix64(987654321)
    values = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    rng2 = SplitMix64(987654321)
    assert values == [rng2.uniform() for _ in range(10_000)]


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()
    # negative seeds take their two's-complement image
    assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()
    for seed, masked in ((2**64 + 5, 5), (-1, 2**64 - 1)):
        assert list(_kernels.uniforms(seed, 3, 4)) == list(_kernels.uniforms(masked, 3, 4))


def test_exponential_is_inverse_cdf_of_stream():
    rng_u = SplitMix64(7)
    rng_e = SplitMix64(7)
    for _ in range(100):
        u = rng_u.uniform()
        assert rng_e.exponential(2.5) == -math.log(1.0 - u) / 2.5


def test_exponential_rejects_bad_rate():
    rng = SplitMix64(0)
    for rate in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rng.exponential(rate)


# The Poisson sampler that ships is the lockstep kernel's _poisson_counts;
# oracles.poisson is the scalar recipe it follows.


def test_poisson_zero_mean_is_always_zero():
    counts = _kernels._poisson_counts(_kernels._substreams(3, 0, 100), (0.0,))[0]
    assert counts.tolist() == [0] * 100


def test_poisson_mean_and_variance():
    n = 100_000
    lam = 2.0
    draws = _kernels._poisson_counts(_kernels._substreams(11, 0, n), (lam,))[0].tolist()
    mean = sum(draws) / n
    assert abs(mean - lam) <= 3.0 * math.sqrt(lam / n)
    var = sum((d - mean) ** 2 for d in draws) / (n - 1)
    assert abs(var - lam) <= 0.1


def test_poisson_rejects_out_of_range_mean():
    states = _kernels._substreams(0, 0, 10)
    for lam in (-0.5, 501.0, math.nan):
        with pytest.raises(ValueError) as scalar:
            oracles.poisson(SplitMix64(0), lam)
        with pytest.raises(ValueError) as shipped:
            _kernels._poisson_counts(states, (lam,))
        assert str(shipped.value) == str(scalar.value)


def test_substream_seed_equals_stream_outputs():
    master = 55
    rng = SplitMix64(master)
    outputs = [rng.next_u64() for _ in range(8)]
    assert [substream_seed(master, i) for i in range(8)] == outputs


def test_substream_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        substream_seed(1, -1)


def test_substreams_do_not_collide():
    seeds = {substream_seed(99, i) for i in range(10_000)}
    assert len(seeds) == 10_000
