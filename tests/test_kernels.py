"""Kernel equivalence: the lockstep kernels must agree bit-for-bit with ``_pure``.

The counts are decided with ``np.log`` and replayed with libm where unsure,
so they are checked with the filter as shipped, with every trial replayed
and with none.
"""

import math

import numpy as np
import pytest

from ruinfair import _kernels
from ruinfair._kernels import _lockstep, _pure
from ruinfair.prng import SplitMix64, substream_seed
from ruinfair.sim import sample_collisions

LOCKSTEP = pytest.param(_lockstep, id="lockstep")
PURE = pytest.param(_pure, id="pure")

SEEDS = [0, 1, 42, 2**63 + 5, -17, 987654321]


@pytest.mark.parametrize("impl", [LOCKSTEP])
@pytest.mark.parametrize("seed", SEEDS)
def test_ruin_count_bit_identical(seed, impl):
    args = (0.3, 0.8, 1.5, 12, 3000)
    assert _pure.ruin_mc_count(*args, seed) == impl.ruin_mc_count(*args, seed)


@pytest.mark.parametrize("impl", [LOCKSTEP])
@pytest.mark.parametrize("seed", SEEDS)
def test_chance_count_bit_identical(seed, impl):
    args = (0.004, 0.009, 1.5, 400.0, 3000)
    assert _pure.chance_mc_count(*args, seed) == impl.chance_mc_count(*args, seed)


def test_selected_backend_exposes_kernel_surface():
    assert _kernels.BACKEND == "lockstep"
    assert callable(_kernels.ruin_mc_count)
    assert callable(_kernels.surplus_path_values)
    assert callable(_kernels.chance_mc_count)


@pytest.mark.parametrize("impl", [PURE, LOCKSTEP])
def test_ruin_count_matches_per_trial_paths(impl):
    """The batched count is exactly the sum over per-trial path simulations."""
    u, c, rate, n, trials, seed = 0.4, 0.9, 1.3, 8, 400, 77
    expected = 0
    for t in range(trials):
        values = impl.surplus_path_values(u, c, rate, n, substream_seed(seed, t))
        expected += any(v < 0.0 for v in values[1:])
    assert impl.ruin_mc_count(u, c, rate, n, trials, seed) == expected


@pytest.mark.parametrize("impl", [PURE, LOCKSTEP])
def test_chance_count_matches_manual_loop(impl):
    """The kernel replays the documented draw recipe: Poisson count, then durations."""
    alpha, threshold, lam, mu, trials, seed = 0.003, 0.009, 1.2, 350.0, 500, 5
    expected = 0
    for t in range(trials):
        rng = SplitMix64(substream_seed(seed, t))
        total = 0.0  # left to right: sum() compensates on Python >= 3.12
        for _ in range(rng.poisson(lam)):
            total += rng.exponential(mu)
        expected += total + alpha <= threshold
    assert impl.chance_mc_count(alpha, threshold, lam, mu, trials, seed) == expected


@pytest.mark.parametrize("impl", [PURE])
def test_path_values_follow_premium_and_claims(impl):
    """values[s] = u + s*c - (sum of the first s exponential draws)."""
    u, c, rate, n, seed = 2.0, 0.5, 0.8, 10, 31
    values = impl.surplus_path_values(u, c, rate, n, seed)
    rng = SplitMix64(seed)
    claims = 0.0
    assert values[0] == u
    for s in range(1, n + 1):
        claims += rng.exponential(rate)
        assert values[s] == u + s * c - claims


@pytest.mark.parametrize(
    "args",
    [
        (0.3, 0.8, 1.5, 0, 50),  # no periods: nothing to draw
        (0.3, 0.8, 1.5, 12, 1),  # a single trial
        (0.0, 1e-300, 0.0, 0, 5),  # no draw, so the rate goes unchecked
    ],
    ids=["n0", "one-trial", "n0-bad-rate"],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_edges_match_scalar(args, seed):
    assert _lockstep.ruin_mc_count(*args, seed) == _pure.ruin_mc_count(*args, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_all_paths_ruin_in_period_one(seed):
    """The working arrays empty long before the horizon."""
    args = (0.0, 1e-300, 1.0, 5, 200)
    assert _lockstep.ruin_mc_count(*args, seed) == _pure.ruin_mc_count(*args, seed) == 200


def test_lockstep_draws_match_scalar_streams():
    """Every lockstep draw equals the scalar stream's, bit for bit.

    A last-bit difference in the logarithm (``np.log`` in place of libm's)
    seldom flips a ruin count, but it shows up here.
    """
    trials, periods, rate, seed = 4096, 5, 1.5, 42
    state = _lockstep._substreams(seed, 0, trials)
    rngs = [SplitMix64(substream_seed(seed, t)) for t in range(trials)]
    for _ in range(periods):
        drawn = _lockstep._exponential(state, rate).tolist()
        assert drawn == [rng.exponential(rate) for rng in rngs]


def test_lockstep_chunks_match_scalar(monkeypatch):
    """Trials split across several working chunks count as one batch."""
    monkeypatch.setattr(_lockstep, "_CHUNK", 7)
    args = (0.4, 0.9, 1.3, 8, 100, 77)
    assert _lockstep.ruin_mc_count(*args) == _pure.ruin_mc_count(*args)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("impl", [PURE, LOCKSTEP])
def test_ruin_count_rejects_bad_rate(impl, rate):
    with pytest.raises(ValueError, match="exponential rate"):
        impl.ruin_mc_count(0.3, 0.8, rate, 1, 10, 42)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 0.009, 1e-9, 450.0, 50),  # almost never a collision
        (0.0, 0.5, 500.0, 450.0, 40),  # the Poisson cap
        (0.001, 0.02, 12.0, 450.0, 1),  # a single trial
        (0.001, 0.02, 0.0, 450.0, 30),  # lam = 0: no draw beyond the first
    ],
    ids=["tiny-lam", "lam-cap", "one-trial", "lam0"],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_chance_edges_match_scalar(args, seed):
    assert _lockstep.chance_mc_count(*args, seed) == _pure.chance_mc_count(*args, seed)


def test_lockstep_chance_chunks_match_scalar(monkeypatch):
    """Trials split across several chunks, the last one short, count as one batch."""
    monkeypatch.setattr(_lockstep, "_CHUNK", 7)
    args = (0.002, 0.009, 3.0, 450.0, 100, 77)
    assert _lockstep.chance_mc_count(*args) == _pure.chance_mc_count(*args)


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("lam", [0.7, 40.0, 500.0])
def test_compound_blocks_carry_over(monkeypatch, block, lam):
    """Products and totals carried across many narrow blocks keep every bit."""
    monkeypatch.setattr(_lockstep, "_BLOCK", block)
    seeds = [substream_seed(11, t) for t in range(24)]
    states = np.array(seeds, dtype=np.uint64)
    totals = _lockstep.compound_poisson_totals(states, lam, 450.0, math.inf)
    assert totals.tolist() == [sample_collisions(lam, 450.0, s).total for s in seeds]
    args = (0.0, 0.5, lam, 450.0, 24, 11)
    assert _lockstep.chance_mc_count(*args) == _pure.chance_mc_count(*args)


@pytest.mark.parametrize("lam,streams", [(1e-9, 100), (1.0, 4096), (150.0, 100), (500.0, 100)])
def test_compound_totals_match_scalar_streams(lam, streams):
    """Every lockstep total equals the scalar collision draw's, bit for bit.

    A last-bit difference in the logarithm (``np.log`` in place of libm's)
    is lost in a sum of hundreds of durations, but not in the one-duration
    totals that are common at ``lam = 1``.
    """
    seeds = [substream_seed(2024, t) for t in range(streams)]
    states = _lockstep.substream_states([2024], range(streams))[0]
    assert states.tolist() == seeds
    totals = _lockstep.compound_poisson_totals(states, lam, 450.0, math.inf)
    assert totals.tolist() == [sample_collisions(lam, 450.0, s).total for s in seeds]


@pytest.mark.parametrize(
    "lam,mu,cap",
    [
        (2.0, 1e308, 1e301),  # cap * mu overflows to inf
        (500.0, 1e10, 1e300),  # overflows too, with hundreds of durations
        (0.0, 450.0, 0.01),  # no collision: no duration is drawn
    ],
)
def test_capped_totals_are_clipped_uncapped_ones(lam, mu, cap):
    states = _lockstep.substream_states([8], range(64))[0]
    uncapped = _lockstep.compound_poisson_totals(states, lam, mu, math.inf)
    capped = _lockstep.compound_poisson_totals(states, lam, mu, cap)
    assert capped.tolist() == np.minimum(uncapped, cap).tolist()


def test_compound_totals_of_no_streams():
    """No stream draws anything, so even a bad rate goes unchecked."""
    no_streams = np.array([], dtype=np.uint64)
    assert _lockstep.compound_poisson_totals(no_streams, 2.0, 450.0, 0.01).shape == (0,)
    assert _lockstep.compound_poisson_totals(no_streams, math.nan, 0.0, 0.01).shape == (0,)


def _outcome(impl, args):
    try:
        return ("count", impl.chance_mc_count(*args))
    except ValueError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize(
    "lam,mu,trials",
    [
        *[(lam, 450.0, 10) for lam in (-1.0, 500.5, math.nan, math.inf)],
        *[(lam, 450.0, 0) for lam in (-1.0, math.nan)],  # no trial, no draw
        *[(2.0, mu, 10) for mu in (0.0, -1.0, math.nan, math.inf)],
        *[(0.0, mu, 10) for mu in (0.0, math.nan)],  # no collision, no duration
        (1e-9, 0.0, 10),  # no trial draws a collision either
        (2.0, 0.0, 0),
    ],
)
def test_lockstep_chance_errors_match_scalar(lam, mu, trials):
    """The same ValueError as the scalar draws, or the same count."""
    args = (0.001, 0.009, lam, mu, trials, 42)
    assert _outcome(_lockstep, args) == _outcome(_pure, args)


RUIN_ARGS = [
    (0.3, 0.8, 1.5, 12, 3000),
    (0.0, 1e-300, 1.0, 5, 200),  # every path ruins in period 1
    (5.0, 2.0, 0.5, 20, 500),  # few ruins, long paths
]
CHANCE_ARGS = [
    (0.004, 0.009, 1.5, 400.0, 3000),
    (0.0, 0.5, 500.0, 450.0, 40),
    (0.001, 0.02, 0.0, 450.0, 30),
]


def _count_replays(monkeypatch):
    """Count the trials that the filter replays with libm's logarithm."""
    replayed = {"ruin": 0, "chance": 0}
    ruins, totals = _lockstep._ruins, _lockstep._duration_totals

    def counted_ruins(state, *args):
        replayed["ruin"] += len(state)
        return ruins(state, *args)

    def counted_totals(states, counts, mu, **log):
        if not log:
            replayed["chance"] += len(states)
        return totals(states, counts, mu, **log)

    monkeypatch.setattr(_lockstep, "_ruins", counted_ruins)
    monkeypatch.setattr(_lockstep, "_duration_totals", counted_totals)
    return replayed


@pytest.mark.parametrize("k,replay_all", [(1e300, True), (0, False)], ids=["all", "none"])
def test_filter_replays_all_or_none(monkeypatch, k, replay_all):
    """Counts equal ``_pure`` whether every trial is replayed with libm or none is."""
    monkeypatch.setattr(_lockstep, "_K", k)
    replayed = _count_replays(monkeypatch)
    for args in RUIN_ARGS:
        assert _lockstep.ruin_mc_count(*args, 42) == _pure.ruin_mc_count(*args, 42)
    for args in CHANCE_ARGS:
        assert _lockstep.chance_mc_count(*args, 42) == _pure.chance_mc_count(*args, 42)
    if replay_all:
        assert replayed == {
            "ruin": sum(args[-1] for args in RUIN_ARGS),
            "chance": sum(args[-1] for args in CHANCE_ARGS),
        }
    else:
        assert replayed == {"ruin": 0, "chance": 0}


NONFINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("x", NONFINITE, ids=["inf", "-inf", "nan"])
def test_ruin_count_nonfinite_arguments(x):
    for args in ((x, 0.8, 1.5, 6, 50), (0.3, x, 1.5, 6, 50), (x, -x, 1.5, 6, 50)):
        assert _lockstep.ruin_mc_count(*args, 9) == _pure.ruin_mc_count(*args, 9)


@pytest.mark.parametrize("x", NONFINITE, ids=["inf", "-inf", "nan"])
def test_chance_count_nonfinite_arguments(x):
    for args in ((0.001, x, 2.0, 450.0, 50), (x, 0.009, 2.0, 450.0, 50), (x, x, 2.0, 450.0, 50)):
        assert _lockstep.chance_mc_count(*args, 9) == _pure.chance_mc_count(*args, 9)


def test_np_log_stays_within_the_filter_premise():
    """``np.log`` and libm's ``log`` differ by far fewer ulps than ``_K`` allows.

    The filter's error bound assumes a few ulps; ``_K = 64`` leaves the
    margin.  Checked on the arguments the kernels take, ``1 - u``.
    """
    one_minus_u = 1.0 - _lockstep._to_uniform(_lockstep._substreams(3, 0, 1_000_000))
    exact = _lockstep._libm_log(one_minus_u)
    gap = np.abs(np.log(one_minus_u) - exact) / np.spacing(np.abs(exact))
    assert float(np.max(gap)) * 16 <= _lockstep._K


def _first_flip(exact, fast):
    """Index of the first value that ``np.log`` puts above libm's."""
    above = np.flatnonzero(fast > exact)
    if not len(above):
        pytest.skip("np.log agrees with libm on these draws")
    return int(above[0])


def test_filter_catches_np_log_flips(monkeypatch):
    """A decision that ``np.log`` flips is replayed; without the filter it is wrong.

    Trial ``t`` is the first whose claim (or collision total) comes out
    above libm's with ``np.log``; the capital (or threshold) is set to
    libm's value, a tie that ``_pure`` decides as "not ruined" (or "fits").
    """
    rate, seed = 450.0, 5
    states = _lockstep._substreams(seed, 0, 4096)
    fast = -np.log(1.0 - _lockstep._to_uniform(states + _lockstep._GAMMA)) / rate
    exact = _lockstep._exponential(states.copy(), rate)
    t = _first_flip(exact, fast)
    ruin = (float(exact[t]), 0.0, rate, 1, t + 1, seed)

    counts = _lockstep._poisson_counts(states, 2.0)
    exact = _lockstep._duration_totals(states, counts, rate)
    fast = _lockstep._duration_totals(states, counts, rate, log=np.log)
    t = _first_flip(exact, fast)
    chance = (0.0, float(exact[t]), 2.0, rate, t + 1, seed)

    expected = _pure.ruin_mc_count(*ruin), _pure.chance_mc_count(*chance)
    assert (_lockstep.ruin_mc_count(*ruin), _lockstep.chance_mc_count(*chance)) == expected
    monkeypatch.setattr(_lockstep, "_K", 0)
    flipped = _lockstep.ruin_mc_count(*ruin), _lockstep.chance_mc_count(*chance)
    assert flipped[0] != expected[0] and flipped[1] != expected[1]
