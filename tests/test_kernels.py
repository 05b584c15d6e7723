"""Kernel equivalence: the lockstep kernels must agree bit-for-bit with the
scalar references of ``oracles``.

The ruin count is decided with ``np.log`` and replayed exactly where
unsure, so it is checked with the filter as shipped, with every path
replayed and with none.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import SplitMix64, sample_collisions
from ruinfair import _kernels
from ruinfair.prng import substream_seed

KERNELS = pytest.param(_kernels, id=_kernels.BACKEND)
PURE = pytest.param(oracles, id="pure")

SEEDS = [0, 1, 42, 2**63 + 5, -17, 987654321]
# Seed ids that name the backend too, as the manifest's versions.backend does.
BACKEND_IDS = [f"{seed}-{_kernels.BACKEND}" for seed in SEEDS]


@pytest.fixture(autouse=True)
def fresh_chance_draws():
    """Each test draws its chance trials afresh, so one that patches
    ``_BLOCK``, ``_CHUNK`` or ``_libm_log`` reads no draws another test
    left in the memo."""
    _kernels._chance_draws.cache_clear()
    yield
    _kernels._chance_draws.cache_clear()


@pytest.mark.parametrize("seed", SEEDS, ids=BACKEND_IDS)
def test_ruin_count_bit_identical(seed):
    args = (0.3, 0.8, 1.5, 12, 3000)
    assert oracles.ruin_mc_count(*args, seed) == _kernels.ruin_mc_count(*args, seed)


@pytest.mark.parametrize("seed", SEEDS, ids=BACKEND_IDS)
def test_chance_count_bit_identical(seed):
    args = (0.004, 0.009, 1.5, 400.0, 3000)
    assert oracles.chance_mc_count(*args, seed) == _kernels.chance_mc_count(*args, seed)


@pytest.mark.parametrize("per", [1, 3, _kernels._CHUNK + 1])
@pytest.mark.parametrize("n", [0, 1, _kernels._CHUNK, _kernels._CHUNK + 1])
def test_blocks_partition_range_in_order(n, per):
    """The work blocks cover range(n) once and in order, each of
    max(1, _CHUNK // per) items but the last, which may be shorter."""
    parts = list(_kernels.blocks(n, per))
    assert [i for part in parts for i in range(n)[part]] == list(range(n))
    size = max(1, _kernels._CHUNK // per)
    lengths = [len(range(n)[part]) for part in parts]
    assert all(length == size for length in lengths[:-1])
    assert all(0 < length <= size for length in lengths)


def test_selected_backend_exposes_kernel_surface():
    assert _kernels.BACKEND == "lockstep"
    assert callable(_kernels.ruin_mc_count)
    assert callable(_kernels.chance_mc_count)


@pytest.mark.parametrize("impl", [PURE, KERNELS])
def test_ruin_count_matches_per_trial_paths(impl):
    """The batched count is exactly the sum over per-trial path simulations."""
    u, c, rate, n, trials, seed = 0.4, 0.9, 1.3, 8, 2000, 77
    expected = 0
    for t in range(trials):
        values = oracles.surplus_path_values(u, c, rate, n, substream_seed(seed, t))
        expected += any(v < 0.0 for v in values[1:])
    assert impl.ruin_mc_count(u, c, rate, n, trials, seed) == expected


@pytest.mark.parametrize("impl", [PURE, KERNELS])
def test_chance_count_matches_manual_loop(impl):
    """The kernel replays the documented draw recipe: Poisson count, then durations."""
    alpha, threshold, lam, mu, trials, seed = 0.003, 0.009, 1.2, 350.0, 500, 5
    expected = 0
    for t in range(trials):
        rng = SplitMix64(substream_seed(seed, t))
        total = 0.0  # left to right: sum() compensates on Python >= 3.12
        for _ in range(oracles.poisson(rng, lam)):
            total += rng.exponential(mu)
        expected += total + alpha <= threshold
    assert impl.chance_mc_count(alpha, threshold, lam, mu, trials, seed) == expected


def test_path_values_follow_premium_and_claims():
    """The oracle's values[s] = u + s*c - (sum of the first s exponential
    draws), on 2,000 substreams."""
    u, c, rate, n = 2.0, 0.5, 0.8, 10
    for t in range(2000):
        seed = substream_seed(31, t)
        values = oracles.surplus_path_values(u, c, rate, n, seed)
        rng = SplitMix64(seed)
        claims = 0.0
        assert values[0] == u
        for s in range(1, n + 1):
            claims += rng.exponential(rate)
            assert values[s] == u + s * c - claims


def test_path_ruins_follow_path_values():
    """The kernel's exact replay ruins a path by period h exactly when one of
    the oracle's values[1..h] is negative: one replay of 2,000 substreams
    per horizon, compared path by path."""
    u, c, rate, n = 2.0, 0.5, 0.8, 10
    seeds = [substream_seed(31, t) for t in range(2000)]
    paths = [oracles.surplus_path_values(u, c, rate, n, seed) for seed in seeds]
    states = np.array(seeds, dtype=np.uint64)
    for h in range(n + 1):
        ruined = _kernels._path_ruins(u, c, rate, h, states)
        assert ruined.tolist() == [any(v < 0.0 for v in values[1 : h + 1]) for values in paths]


@pytest.mark.parametrize(
    "args",
    [
        (0.3, 0.8, 1.5, 0, 50),  # no periods: nothing to draw
        (0.3, 0.8, 1.5, 12, 1),  # a single trial
        (0.0, 1e-300, 0.0, 0, 5),  # no draw, so the rate goes unchecked
        (1.0, 1.0, 5e-324, 3, 10),  # claims overflow to inf, without a warning
        (1.0, 1.0, 1e-310, 3, 10),
        (1e308, 1.0, 1e-308, 3, 50),  # marked paths' claims overflow to NaN
    ],
    ids=["n0", "one-trial", "n0-bad-rate", "rate-min-subnormal", "rate-subnormal", "marked-nan"],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_edges_match_scalar(args, seed):
    assert _kernels.ruin_mc_count(*args, seed) == oracles.ruin_mc_count(*args, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_all_paths_ruin_in_period_one(monkeypatch, seed):
    """Drawn one period per block, the working arrays empty long before the
    horizon."""
    monkeypatch.setattr(_kernels, "_BLOCK", 200)
    args = (0.0, 1e-300, 1.0, 5, 200)
    assert _kernels.ruin_mc_count(*args, seed) == oracles.ruin_mc_count(*args, seed) == 200


def test_lockstep_draws_match_scalar_streams():
    """Every lockstep draw equals the scalar stream's, bit for bit.

    A last-bit difference in the logarithm (``np.log`` in place of libm's)
    seldom flips a ruin count, but it shows up here.
    """
    trials, periods, rate, seed = 4096, 5, 1.5, 42
    states = _kernels._substreams(seed, 0, trials)
    rngs = [SplitMix64(substream_seed(seed, t)) for t in range(trials)]
    for j in range(periods):
        one_minus_u = 1.0 - _kernels._uniforms(states, j, 1)[0]
        drawn = (-_kernels._libm_log(one_minus_u) / rate).tolist()
        assert drawn == [rng.exponential(rate) for rng in rngs]


def test_lockstep_chunks_match_scalar(monkeypatch):
    """Trials split across several working chunks count as one batch, with
    the 7-path chunks' periods drawn 1, 2 or all at a time.  Claims carry
    from block to block, and with a wide filter (``_K = 1e14``) paths turn
    unsure in later blocks and are replayed from their start states."""
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    for block, k in itertools.product([7, 14, 1 << 14], [_kernels._K, 1e14]):
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        monkeypatch.setattr(_kernels, "_K", k)
        for args in [(0.4, 0.9, 1.3, 8, 100, 77), (5.0, 2.0, 0.5, 20, 100, 42)]:
            assert _kernels.ruin_mc_count(*args) == oracles.ruin_mc_count(*args), (block, k)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("impl", [PURE, KERNELS])
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
    assert _kernels.chance_mc_count(*args, seed) == oracles.chance_mc_count(*args, seed)


def test_lockstep_chance_chunks_match_scalar(monkeypatch):
    """Trials split across several chunks, the last one short, count as one batch."""
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    args = (0.002, 0.009, 3.0, 450.0, 100, 77)
    assert _kernels.chance_mc_count(*args) == oracles.chance_mc_count(*args)


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("lam", [0.7, 40.0, 500.0])
def test_compound_blocks_carry_over(monkeypatch, block, lam):
    """Products and totals carried across many narrow blocks keep every bit."""
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    seeds = [substream_seed(11, t) for t in range(24)]
    states = np.array(seeds, dtype=np.uint64)
    totals = _kernels.compound_poisson_totals(states, (lam,), 450.0, math.inf)[0]
    assert totals.tolist() == [sample_collisions(lam, 450.0, s).total for s in seeds]
    args = (0.0, 0.5, lam, 450.0, 24, 11)
    assert _kernels.chance_mc_count(*args) == oracles.chance_mc_count(*args)


@pytest.mark.parametrize("lam,streams", [(1e-9, 100), (1.0, 4096), (150.0, 100), (500.0, 100)])
def test_compound_totals_match_scalar_streams(lam, streams):
    """Every lockstep total equals the scalar collision draw's, bit for bit.

    A last-bit difference in the logarithm (``np.log`` in place of libm's)
    is lost in a sum of hundreds of durations, but not in the one-duration
    totals that are common at ``lam = 1``.
    """
    seeds = [substream_seed(2024, t) for t in range(streams)]
    states = _kernels._substreams(2024, 0, streams)
    assert states.tolist() == seeds
    totals = _kernels.compound_poisson_totals(states, (lam,), 450.0, math.inf)[0]
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
    states = _kernels._substreams(8, 0, 64)
    uncapped = _kernels.compound_poisson_totals(states, (lam,), mu, math.inf)
    capped = _kernels.compound_poisson_totals(states, (lam,), mu, cap)
    assert capped.tolist() == np.minimum(uncapped, cap).tolist()


def test_compound_totals_of_no_streams():
    """No stream draws anything, so even a bad rate goes unchecked."""
    no_streams = np.array([], dtype=np.uint64)
    assert _kernels.compound_poisson_totals(no_streams, (2.0,), 450.0, 0.01).shape == (1, 0)
    assert _kernels.compound_poisson_totals(no_streams, (math.nan,), 0.0, 0.01).shape == (1, 0)


MIXED_RATES = [0.0, 1e-9, 2.0, 100.0, 500.0]


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("cap", [0.0, 0.01, math.inf])
def test_mixed_rates_equal_one_call_per_rate(monkeypatch, block, cap):
    """One call at several rates gives each row the bits of the call at its
    rate alone, whatever the other rates need of the shared products."""
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    states = _kernels._substreams(13, 0, 12)
    expected = [
        _kernels.compound_poisson_totals(states, (lam,), 450.0, cap)[0] for lam in MIXED_RATES
    ]
    mixed = _kernels.compound_poisson_totals(states, MIXED_RATES, 450.0, cap)
    assert mixed.tolist() == np.stack(expected).tolist()
    # Reversed, so that the largest mean, which every stream is drawn to,
    # comes first.
    reversed_rates = _kernels.compound_poisson_totals(states, MIXED_RATES[::-1], 450.0, cap)
    assert reversed_rates.tolist() == np.stack(expected[::-1]).tolist()


GRID_RATES = [500.0, 0.0, 2.0, 2.0, 1e-9, 100.0]


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("cap", [0.0, 0.01, math.inf])
@pytest.mark.parametrize("mu", [450.0, 5e-324], ids=["mu450", "subnormal"])
def test_grid_equals_clipped_scalar_draws(monkeypatch, block, cap, mu):
    """Unsorted rates with a duplicate: entry ``[r, i]`` is the scalar draw
    of stream ``i`` at rate ``r``, clipped at the cap.  ``sample_collisions``
    takes positive rates only; a mean of 0 draws no collision."""
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    seeds = [substream_seed(31, t) for t in range(10)]
    states = np.array(seeds, dtype=np.uint64)
    totals = _kernels.compound_poisson_totals(states, GRID_RATES, mu, cap)
    assert totals.tolist() == [
        [min(sample_collisions(rate, mu, seed).total, cap) if rate else 0.0 for seed in seeds]
        for rate in GRID_RATES
    ]


@pytest.mark.parametrize("bad", [-1.0, 500.5, math.nan, math.inf])
@pytest.mark.parametrize("where", [0, 3, -1, slice(None)], ids=["first", "middle", "last", "all"])
def test_mixed_rates_reject_what_the_scalar_draw_rejects(bad, where):
    with pytest.raises(ValueError) as scalar:
        oracles.poisson(SplitMix64(0), bad)
    lam = np.array(MIXED_RATES * 2)
    lam[where] = bad
    with pytest.raises(ValueError) as mixed:
        _kernels.compound_poisson_totals(_kernels._substreams(1, 0, 3), lam, 450.0, 0.01)
    assert str(mixed.value) == str(scalar.value)


def test_draws_follow_what_streams_still_need(monkeypatch):
    """Rates 100 to 500 on 60 streams, clipped at 10 ms with durations of
    mean 2.2 ms: the uniforms drawn stay within 1.2 times those the streams
    consume (one sequence of products per stream, its count of k at rate
    500 taking k + 1, then the durations up to the cap at each rate), and
    the logarithms, libm's and the faster one together, within 1.6 times
    the durations up to the cap.  Products drawn again for each rate took
    3.3 times those uniforms.  Every count here is at least twice the 4.5
    durations of mean that reach the cap, so every stream is certified at
    the cap with the faster logarithm and none takes libm's."""
    drawn = {"uniforms": 0, "libm": 0, "fast": 0}
    uniforms, libm_log, fast_log = _kernels._uniforms, _kernels._libm_log, _kernels._fast_log

    def counted_uniforms(states, start, width):
        drawn["uniforms"] += len(states) * width
        return uniforms(states, start, width)

    def counted_libm_log(x):
        drawn["libm"] += len(x)
        return libm_log(x)

    def counted_fast_log(x):
        drawn["fast"] += len(x)
        return fast_log(x)

    monkeypatch.setattr(_kernels, "_uniforms", counted_uniforms)
    monkeypatch.setattr(_kernels, "_libm_log", counted_libm_log)
    monkeypatch.setattr(_kernels, "_fast_log", counted_fast_log)
    rates, streams, mu, cap = [100.0, 200.0, 300.0, 400.0, 500.0], 60, 450.0, 0.01
    seeds = [substream_seed(2025, t) for t in range(streams)]
    states = np.array(seeds, dtype=np.uint64)
    totals = _kernels.compound_poisson_totals(states, rates, mu, cap)
    expected, durations_used = [], 0
    uniforms_used = sum(sample_collisions(max(rates), mu, seed).count + 1 for seed in seeds)
    for lam in rates:
        row = []
        for seed in seeds:
            draw = sample_collisions(lam, mu, seed)
            assert draw.count >= 2 * cap * mu
            row.append(min(draw.total, cap))
            total, used = 0.0, 0
            for duration in draw.durations:
                total += duration
                used += 1
                if total >= cap:
                    break
            durations_used += used
        expected.append(row)
    uniforms_used += durations_used
    assert totals.tolist() == expected
    assert uniforms_used <= drawn["uniforms"] <= 1.2 * uniforms_used
    assert durations_used <= drawn["libm"] + drawn["fast"] <= 1.6 * durations_used
    assert drawn["libm"] == 0


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
    assert _outcome(_kernels, args) == _outcome(oracles, args)


RUIN_ARGS = [
    (0.3, 0.8, 1.5, 12, 3000),
    (0.0, 1e-300, 1.0, 5, 200),  # every path ruins in period 1
    (5.0, 2.0, 0.5, 20, 500),  # few ruins, long paths
]


def _count_replays(monkeypatch):
    """The start states of the surplus paths that the filter replays exactly
    with ``_kernels._path_ruins``, one list of states per call."""
    replayed = []
    path_ruins = _kernels._path_ruins

    def counted_path_ruins(u, c, mu_prime, n, states):
        replayed.append(states.tolist())
        return path_ruins(u, c, mu_prime, n, states)

    monkeypatch.setattr(_kernels, "_path_ruins", counted_path_ruins)
    return replayed


@pytest.mark.parametrize("k,replay_all", [(1e300, True), (0, False)], ids=["all", "none"])
def test_filter_replays_all_or_none(monkeypatch, k, replay_all):
    """Counts equal the oracle's whether every path is replayed exactly or
    none is; with none, ``_path_ruins`` is not called at all."""
    monkeypatch.setattr(_kernels, "_K", k)
    replayed = _count_replays(monkeypatch)
    for args in RUIN_ARGS:
        assert _kernels.ruin_mc_count(*args, 42) == oracles.ruin_mc_count(*args, 42)
    expected = sum(args[-1] for args in RUIN_ARGS) if replay_all else 0
    assert sum(map(len, replayed)) == expected
    assert replay_all or not replayed


@pytest.mark.parametrize("k", [0, _kernels._K], ids=["unfiltered", "filtered"])
def test_infinite_claims_are_replayed(monkeypatch, k):
    """A claim that overflows to ``inf`` goes to the exact replay, with any
    slack: the libm claims may be finite.  Checked with subnormal rates, and
    with a faster logarithm that overflows every claim."""
    monkeypatch.setattr(_kernels, "_K", k)
    for rate in [5e-324, 1e-310, 1e-308]:
        for args in [(1.0, 1.0, rate, 3, 100), (1e308, 1.0, rate, 3, 100)]:
            assert _kernels.ruin_mc_count(*args, 9) == oracles.ruin_mc_count(*args, 9)
    monkeypatch.setattr(_kernels, "_fast_log", lambda x: np.full(x.shape, -math.inf))
    args = (0.3, 0.8, 1.5, 12, 300)
    assert _kernels.ruin_mc_count(*args, 9) == oracles.ruin_mc_count(*args, 9)


THRESHOLD_LEVELS = [0.0, 5e-324, 1.0, 1e300, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("s", [1, 20, 2**46, 2**50])
@pytest.mark.parametrize("level", THRESHOLD_LEVELS, ids=str)
def test_thresholds_decide_as_the_scalar_test(level, s):
    """A path the thresholds keep live, or count as ruined, at claims ``x``
    is decided so by the scalar test ``level - x' < 0.0`` for every ``x'``
    within ``(s + 4) * eps * x + s * tiny`` of ``x``: the gap between the
    ``np.log`` and libm claims that ``_K`` covers.  Checked exactly, with
    fractions, at claims ``level * (1 +- k*eps)`` for ``k <= 200``, at 0,
    ``inf`` and NaN; the ``-inf`` marker never leaves."""
    eps, tiny = Fraction(2) ** -52, Fraction(math.ulp(0.0))
    lo, hi = _kernels._thresholds(level, s)
    steps = [level * (1.0 + k * float(eps)) for k in range(-200, 201)]
    decided = set()
    for x in [*steps, 0.0, math.inf, math.nan, -math.inf]:
        if x == -math.inf:
            assert not x >= lo
        if not x >= lo:
            decided.add("live")
            if math.isfinite(level) and math.isfinite(x):
                assert Fraction(x) + (s + 4) * eps * abs(Fraction(x)) + s * tiny <= Fraction(level)
            else:
                assert not level - x < 0.0
        elif hi < x < math.inf:
            decided.add("ruined")
            assert Fraction(x) - (s + 4) * eps * Fraction(x) - s * tiny > Fraction(level)
        else:
            decided.add("unsure")
    if math.isnan(level) or level == math.inf:
        assert decided == {"live"}
    if s == 1 and 1.0 <= level < math.inf:
        assert decided == {"live", "ruined", "unsure"}


def test_lazy_compaction_across_chunks(monkeypatch):
    """Chunks of 8 paths, drawn one period per block: the arrays are
    compacted once half the rows have left, which happens in some chunks
    and not in others, and the count is the oracle's either way."""
    monkeypatch.setattr(_kernels, "_CHUNK", 8)
    monkeypatch.setattr(_kernels, "_BLOCK", 8)
    replayed = _count_replays(monkeypatch)
    args, trials, seed = (0.3, 0.8, 1.5, 12), 64, 42
    assert _kernels.ruin_mc_count(*args, trials, seed) == oracles.ruin_mc_count(
        *args, trials, seed
    )
    # With nothing replayed, the paths that leave a chunk are its ruined ones.
    assert not replayed
    ruined = np.diff([oracles.ruin_mc_count(*args, stop, seed) for stop in range(0, trials + 1, 8)])
    assert (2 * ruined >= 8).any() and (2 * ruined < 8).any()


NONFINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("x", NONFINITE, ids=["inf", "-inf", "nan"])
def test_ruin_count_nonfinite_arguments(x):
    for args in ((x, 0.8, 1.5, 6, 50), (0.3, x, 1.5, 6, 50), (x, -x, 1.5, 6, 50)):
        assert _kernels.ruin_mc_count(*args, 9) == oracles.ruin_mc_count(*args, 9)


@pytest.mark.parametrize("x", NONFINITE, ids=["inf", "-inf", "nan"])
def test_chance_count_nonfinite_arguments(x):
    for args in ((0.001, x, 2.0, 450.0, 50), (x, 0.009, 2.0, 450.0, 50), (x, x, 2.0, 450.0, 50)):
        assert _kernels.chance_mc_count(*args, 9) == oracles.chance_mc_count(*args, 9)


def test_np_log_stays_within_the_filter_premise():
    """``np.log`` and libm's ``log`` differ by far fewer ulps than ``_K`` allows.

    The filter's error bound assumes a few ulps; ``_K = 64`` leaves the
    margin.  Checked on the arguments the kernels take, ``1 - u``.
    """
    one_minus_u = 1.0 - _kernels._uniforms(_kernels._substreams(3, 0, 1_000_000), 0, 1)[0]
    exact = _kernels._libm_log(one_minus_u)
    gap = np.abs(_kernels._fast_log(one_minus_u) - exact) / np.spacing(np.abs(exact))
    assert float(np.max(gap)) * 16 <= _kernels._K


def _first_flip(exact, fast):
    """Index of the first value that the faster logarithm puts above libm's."""
    above = np.flatnonzero(fast > exact)
    assert len(above), "the off-by-one-ulp logarithm flips none of these draws"
    return int(above[0])


def _log_one_ulp_off(x, libm_log=_kernels._libm_log):
    """libm's logarithm moved one ulp away from zero (``1 - u <= 1``, so the
    claim ``-log(1 - u) / rate`` can only grow): a stand-in for a faster
    logarithm that differs from libm's on some inputs, on every host."""
    return np.nextafter(libm_log(x), -np.inf)


def _flip_args(monkeypatch):
    """Ruin and chance arguments whose last trial the one-ulp-off logarithm
    decides wrongly.

    Trial ``t`` is the first whose claim (or collision total) comes out
    above libm's with :func:`_log_one_ulp_off`; the capital (or threshold)
    is set to libm's value, a tie that the oracle decides as "not ruined"
    (or "fits").  The ruin kernel's faster logarithm (``_fast_log``) is
    patched with it for the rest of the test.
    """
    rate, seed = 450.0, 5
    states = _kernels._substreams(seed, 0, 4096)
    one_minus_u = 1.0 - _kernels._uniforms(states, 0, 1)[0]
    fast = -_log_one_ulp_off(one_minus_u) / rate
    exact = -_kernels._libm_log(one_minus_u) / rate
    t = _first_flip(exact, fast)
    ruin = (float(exact[t]), 0.0, rate, 1, t + 1, seed)
    monkeypatch.setattr(_kernels, "_fast_log", _log_one_ulp_off)

    exact = _kernels.compound_poisson_totals(states, (2.0,), rate, math.inf)[0]
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_libm_log", _log_one_ulp_off)
        fast = _kernels.compound_poisson_totals(states, (2.0,), rate, math.inf)[0]
    t = _first_flip(exact, fast)
    chance = (0.0, float(exact[t]), 2.0, rate, t + 1, seed)
    return ruin, chance


def test_filter_catches_np_log_flips(monkeypatch):
    """A ruin decision that a faster logarithm flips is replayed; without the
    filter it is wrong."""
    ruin, _ = _flip_args(monkeypatch)
    expected = oracles.ruin_mc_count(*ruin)
    assert _kernels.ruin_mc_count(*ruin) == expected
    monkeypatch.setattr(_kernels, "_K", 0)
    assert _kernels.ruin_mc_count(*ruin) != expected


@pytest.mark.parametrize("k", [0, 1e300], ids=["none", "all"])
def test_chance_count_needs_no_filter(monkeypatch, k):
    """A chance decision that a faster logarithm would flip is counted as
    the oracle counts it, whatever ``_K`` is: the totals take libm's
    logarithm."""
    _, chance = _flip_args(monkeypatch)
    monkeypatch.setattr(_kernels, "_K", k)
    assert _kernels.chance_mc_count(*chance) == oracles.chance_mc_count(*chance)


def test_cap_certificate_catches_fast_log_flips(monkeypatch):
    """A fast stream whose faster total reaches the cap while libm's stays
    below it is drawn again, so its total is the oracle's; without the
    certificate's slack (``_K = 0``) it would be the cap."""
    rate, lam = 450.0, 2.0
    states = _kernels._substreams(5, 0, 4096)
    exact = _kernels.compound_poisson_totals(states, (lam,), rate, math.inf)[0]
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_libm_log", _log_one_ulp_off)
        fast = _kernels.compound_poisson_totals(states, (lam,), rate, math.inf)[0]
    counts = _kernels._poisson_counts(states, (lam,))[0]
    # Fast at a cap of its own fast total: at least 2 * cap * mu durations.
    t = _first_flip(exact, np.where(counts >= 2.0 * fast * rate, fast, -math.inf))
    cap, stream = float(fast[t]), states[t : t + 1]
    expected = min(sample_collisions(lam, rate, int(states[t])).total, cap)
    assert expected < cap
    monkeypatch.setattr(_kernels, "_fast_log", _log_one_ulp_off)
    assert _kernels.compound_poisson_totals(stream, (lam,), rate, cap).tolist() == [[expected]]
    monkeypatch.setattr(_kernels, "_K", 0)
    assert _kernels.compound_poisson_totals(stream, (lam,), rate, cap).tolist() == [[cap]]


def _logged(monkeypatch):
    """The arguments each logarithm of ``_kernels`` takes from now on."""
    taken = {"_libm_log": [], "_fast_log": []}

    def logged(name):
        log = getattr(_kernels, name)

        def logged_log(x):
            taken[name] += x.tolist()
            return log(x)

        return logged_log

    for name in taken:
        monkeypatch.setattr(_kernels, name, logged(name))
    return taken


def test_certificate_refused_everywhere_keeps_totals(monkeypatch):
    """With ``_K`` huge no fast total is certified: every fast stream is
    drawn again with libm's logarithm, in the same pass as the streams that
    were never fast (rate 2), and the totals keep their bits."""
    rates, cap = [2.0, 100.0, 300.0, 500.0], 0.01
    seeds = _kernels._substreams(21, 0, 40)
    taken = _logged(monkeypatch)
    _kernels.compound_poisson_totals(seeds, rates[:1], 450.0, cap)
    exact = len(taken["_libm_log"])
    shipped = _kernels.compound_poisson_totals(seeds, rates, 450.0, cap)
    # Only the rate-2 streams take libm's logarithm.
    assert exact and len(taken["_libm_log"]) == 2 * exact and taken["_fast_log"]
    monkeypatch.setattr(_kernels, "_K", 1e300)
    refused = _kernels.compound_poisson_totals(seeds, rates, 450.0, cap)
    assert refused.tolist() == shipped.tolist()
    # Each of the 120 fast streams takes at least one more.
    assert len(taken["_libm_log"]) >= 3 * exact + 120
    assert shipped.tolist() == [
        [min(sample_collisions(r, 450.0, s).total, cap) for s in seeds.tolist()] for r in rates
    ]


@pytest.mark.parametrize("mu", [450.0, 5e-324], ids=["mu450", "subnormal"])
@pytest.mark.parametrize("cap", [0.0, 0.01, math.inf])
def test_mixed_rates_equal_clipped_scalar_draws(monkeypatch, mu, cap):
    """Fast and exact streams side by side, every rate in every block, each
    total the scalar draw's clipped at the cap.  A stream's first duration
    takes the faster logarithm exactly when its count is at least ``2 * cap
    * mu``.  A subnormal ``mu`` makes every duration infinite, which
    certifies nothing."""
    rates = [2.0, 100.0, 500.0]
    states = _kernels._substreams(17, 0, 30)
    taken = _logged(monkeypatch)
    totals = _kernels.compound_poisson_totals(states, rates, mu, cap)
    assert totals.tolist() == [
        [min(sample_collisions(r, mu, s).total, cap) for s in states.tolist()] for r in rates
    ]
    fast_args = set(taken["_fast_log"])
    for r, s in itertools.product(rates, states.tolist()):
        rng = SplitMix64(s)
        count = oracles.poisson(rng, r)
        if count:
            assert ((1.0 - rng.uniform()) in fast_args) == (count >= 2.0 * cap * mu)


def test_uncapped_call_takes_no_fast_log(monkeypatch):
    """An infinite cap, as in the chance audit, makes no stream fast."""

    def refuse(x):
        raise AssertionError("an uncapped draw took the faster logarithm")

    monkeypatch.setattr(_kernels, "_fast_log", refuse)
    states = _kernels._substreams(4, 0, 50)
    totals = _kernels.compound_poisson_totals(states, (500.0,), 450.0, math.inf)[0]
    assert totals.tolist() == [sample_collisions(500.0, 450.0, s).total for s in states.tolist()]


def test_chance_draws_once_per_key(monkeypatch):
    """Eleven airtimes at one seed, then at a second seed, draw each seed's
    collision times once, and every count is the oracle's."""
    drawn = []
    poisson_counts = _kernels._poisson_counts

    def counted(states, lams):
        drawn.append((len(states), tuple(lams)))
        return poisson_counts(states, lams)

    monkeypatch.setattr(_kernels, "_poisson_counts", counted)
    threshold, lam, mu, trials = 0.009, 2.0, 450.0, 400
    for seed in (1337, 1338):
        for alpha in [0.0009 * i for i in range(11)]:
            args = (alpha, threshold, lam, mu, trials, seed)
            assert _kernels.chance_mc_count(*args) == oracles.chance_mc_count(*args)
    assert drawn == [(trials, (lam,))] * 2


def test_chance_draws_are_read_only():
    _kernels.chance_mc_count(0.004, 0.009, 2.0, 450.0, 100, 3)
    totals = _kernels._chance_draws(3, 0, 100, 2.0, 450.0)
    assert not totals.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        totals[0] = 0
