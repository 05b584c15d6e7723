"""NumPy lockstep Monte Carlo kernels: the one backend of :mod:`ruinfair._kernels`.

The kernels advance the SplitMix64 streams of all trials at once instead of
one trial at a time.  Substreams are counter-based (the seed of trial ``t``
is ``mix64(seed + (t+1)*gamma)``, and draw ``j`` of a stream seeded with
``s`` comes from the state ``s + j*gamma``, see :mod:`ruinfair.prng`), so
every stream can be derived and stepped in one ``uint64`` array whose
wrap-around is exactly the ``& MASK64`` of the scalar code.  Each step
repeats the scalar recipe of ``_pure.py`` with the same IEEE-754 double
operations, in the same order:

* uniform ``(z >> 11) * 2**-53`` (exact: ``z >> 11`` fits in 53 bits);
* exponential ``-log(1 - u) / rate``;
* ``ruin_mc_count``: claims accumulated as ``claims += claim``, ruin test
  ``u + s*c - claims < 0.0``;
* :func:`compound_poisson_totals` (the sweep's collision draws) and
  ``chance_mc_count``: Knuth's Poisson count ``p = u1; p *= u2; ...``
  while ``p > exp(-lam)``, then the durations added left to right from
  ``0.0``.  Both run as ``np.multiply.accumulate`` / ``np.add.accumulate``
  along a block of draws, each element one multiply or add of the previous
  one, with the running product or total carried from block to block.

Streams that finish (ruined paths, completed Poisson counts and duration
sums, and capped duration sums that reach their cap) are dropped from the
working arrays as they go, so the cost of a step is proportional to the
streams still live.

**Which logarithm.**  NumPy's ``np.log`` has its own SIMD implementation,
which differs from glibc's in the last bit on some inputs; libm's is taken
element by element through ``math.log`` (:func:`_libm_log`), about 17x
slower.  Values that are returned need libm's bits, so the sweep's
collision totals (:func:`compound_poisson_totals`) take libm's logarithm
of every duration they draw.  They draw only up to the frame length: the
sweep clips collision time at its WiFi window, never longer than the frame,
so a total is wanted only as ``min(total, T)``.  The durations are
non-negative, so the left-to-right partial sums never decrease and a stream
whose running total reaches ``T`` already has its clipped value; the
durations after it are not drawn.  On a congested channel (hundreds of
collisions of about 2 ms against a 10 ms frame) that skips most of the
logarithms.
A count needs only the sign of each decision, so ``ruin_mc_count`` and
``chance_mc_count`` decide with ``np.log`` and use libm only to replay the
few trials whose decision the faster logarithm could have flipped: a
floating-point filter with an exact fallback (Shewchuk, "Adaptive
precision floating-point arithmetic and fast robust geometric
predicates", Discrete Comput. Geom. 18, 1997).

**The error bound.**  Let ``eps = 2**-52``.  A term ``-log(1 - u) / rate``
taken with ``np.log`` is off from the libm term by at most a few ulps,
i.e. by a few ``eps`` times the term: the two logarithms of the same
argument differ by at most a few ulps (``tests/test_kernels.py`` checks
that the largest gap over 10**6 uniforms stays far below ``_K``), and the
division adds half an ulp.  All the terms are positive, so after ``s``
left-to-right additions each sum is within ``(s - 1) * eps / 2`` times
itself of the exact sum of its own terms, and the two sums differ by at
most about ``(s + m) * eps * claims`` for an ``m``-ulp logarithm.  The
decision takes the sign of ``fl(a - b)``, which is the sign of ``a - b``
(round-to-nearest subtraction is exact in sign, and zero only when
``a == b``), so a decision taken with ``np.log`` is the libm one whenever
``|a - b|`` exceeds the gap between the two sums.  A trial is therefore
*unsure*, and replayed with libm, when

    |u + s*c - claims|               <= _K * s * (eps * (claims + |u + s*c|) + tiny)
    |threshold - (total + alpha)|    <= _K * (k + 1) * (eps * (total + |alpha| + |threshold|) + tiny)

for period ``s`` of a surplus path, or for a chance trial whose total sums
``k`` durations.  The ``eps`` terms bound the relative error above and the
rounding of ``total + alpha``; ``tiny = 2**-1074`` bounds the absolute
error of an operation whose result is subnormal, where relative bounds fail
(claims of a rate near the largest double).  ``_K = 64`` leaves a wide
margin over the few ulps needed.  An infinite bound (an infinite or
overflowing argument) marks the trial unsure and a NaN margin decides
"no" on both paths, so non-finite arguments count as in ``_pure`` too.

The counts are bit-identical to ``_pure`` for every argument, and the
totals to ``min(sim.sample_collisions(...).total, cap)``; ``tests/test_kernels.py``
pins that, also with every trial replayed (``_K`` huge) and with none
(``_K = 0``).  ``surplus_path_values`` is not on a hot path and is
re-exported from ``_pure`` unchanged.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .. import prng
from ._pure import surplus_path_values

BACKEND = "lockstep"

__all__ = [
    "BACKEND",
    "ruin_mc_count",
    "surplus_path_values",
    "chance_mc_count",
    "compound_poisson_totals",
    "substream_states",
]

# Trials advanced together; bounds the working memory of one call.
_CHUNK = 1 << 16

# Draws per block of compound_poisson_totals: a block is n_live x width with
# width at most max(1, _BLOCK // n_live).  Wider blocks cost peak memory: a
# 10,000-trial chance audit at lam = 2 adds about 3.6 MB with 2**16 and
# 1.7 MB with 2**14.
_BLOCK = 1 << 14

# Error bound of the np.log filter, in ulps per summed term (see the module
# docstring); 0 replays no trial, a huge value replays every one.
_K = 64
_EPS = 2.0**-52
_TINY = math.ulp(0.0)

_GAMMA = np.uint64(prng._GOLDEN)
_MIX1 = np.uint64(prng._MIX1)
_MIX2 = np.uint64(prng._MIX2)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix64(z: np.ndarray) -> np.ndarray:
    """``prng._mix64`` on a uint64 array (multiplication wraps mod 2**64)."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def substream_states(seeds, index) -> np.ndarray:
    """``prng.substream_seed(seed, i)`` for every seed (rows) and index ``i``
    (columns), as a uint64 array of shape ``(len(seeds), len(index))``."""
    seeds = np.array([s & prng._MASK64 for s in seeds], dtype=np.uint64)
    return _mix64(seeds[:, None] + (np.asarray(index, dtype=np.uint64) + 1) * _GAMMA)


def _substreams(seed: int, start: int, stop: int) -> np.ndarray:
    """States of trials ``start .. stop-1``: ``substream_seed(seed, t)`` each."""
    return substream_states([seed], np.arange(start, stop, dtype=np.uint64))[0]


def _to_uniform(z: np.ndarray) -> np.ndarray:
    """``SplitMix64.uniform`` from the advanced states ``z``."""
    return (_mix64(z) >> _S11).astype(np.float64) * prng._INV_2_53


def _uniforms(states: np.ndarray, start: int, width: int) -> np.ndarray:
    """Uniforms ``start+1 .. start+width`` of each stream, one row per stream."""
    steps = np.arange(start + 1, start + width + 1, dtype=np.uint64) * _GAMMA
    return _to_uniform(states[:, None] + steps)


def _libm_log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of every element of a 1-D array."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, len(x))


def _exponential(state: np.ndarray, rate: float) -> np.ndarray:
    """One ``SplitMix64.exponential(rate)`` draw per stream; advances ``state``
    in place.  The rate is not checked here."""
    state += _GAMMA
    return -_libm_log(1.0 - _to_uniform(state)) / rate


def _ruins(state: np.ndarray, u, c, mu_prime, n: int) -> int:
    """Ruined paths among the streams ``state``, with libm's logarithm.

    Steps ``state`` in place."""
    claims = np.zeros(len(state))
    ruined = 0
    for s in range(1, n + 1):
        claims += _exponential(state, mu_prime)
        down = u + s * c - claims < 0.0
        hits = int(np.count_nonzero(down))
        if hits:
            ruined += hits
            alive = ~down
            state = state[alive]
            claims = claims[alive]
            if not len(state):
                break
    return ruined


def _chunk_ruins(u, c, mu_prime, n: int, seed: int, start: int, stop: int) -> int:
    """Ruined paths among trials ``start .. stop-1``.

    Steps every path with ``np.log``; a path leaves at its ruin or at the
    first period where it is unsure, and the unsure ones are replayed from
    their start states by :func:`_ruins`.
    """
    starts = _substreams(seed, start, stop)
    state = starts.copy()
    paths = np.arange(len(state))
    claims = np.zeros(len(state))
    unsure = []
    ruined = 0
    for s in range(1, n + 1):
        state += _GAMMA
        claims += -np.log(1.0 - _to_uniform(state)) / mu_prime
        level = u + s * c
        margin = level - claims
        bound = claims * (_K * s * _EPS) + _K * s * (abs(level) * _EPS + _TINY)
        # margin <= bound: ruined (margin < 0) or unsure (|margin| <= bound).
        leave = margin <= bound
        if leave.any():
            close = np.abs(margin[leave]) <= bound[leave]
            ruined += len(close) - int(np.count_nonzero(close))
            unsure.append(paths[leave][close])
            stay = ~leave
            state = state[stay]
            claims = claims[stay]
            paths = paths[stay]
            if not len(state):
                break
    if unsure:
        ruined += _ruins(starts[np.concatenate(unsure)], u, c, mu_prime, n)
    return ruined


def ruin_mc_count(
    u: float, c: float, mu_prime: float, n: int, trials: int, seed: int
) -> int:
    """Number of surplus paths (out of ``trials``) that go negative by period n.

    Raises:
        ValueError: If a draw is needed (``n >= 1`` and ``trials >= 1``) and
            ``mu_prime`` is not a positive finite rate, as
            ``SplitMix64.exponential`` does; checked once per call.
    """
    if n < 1 or trials < 1:
        return 0
    if not (math.isfinite(mu_prime) and mu_prime > 0.0):
        raise ValueError(f"exponential rate must be positive and finite, got {mu_prime}")
    seed = operator.index(seed)
    return sum(
        _chunk_ruins(u, c, mu_prime, n, seed, start, min(start + _CHUNK, trials))
        for start in range(0, trials, _CHUNK)
    )


def _poisson_counts(states: np.ndarray, lam: float) -> np.ndarray:
    """``SplitMix64(s).poisson(lam)`` for every state ``s``.

    The running products only shrink (each uniform is below 1), so a
    stream's count is the number of products above ``exp(-lam)``; it is
    complete at the first block where some product is not.  A count of k
    takes k + 1 uniforms; blocks are no wider than the mean plus three
    standard deviations of that, so few draws are wasted.

    Raises:
        ValueError: As ``SplitMix64.poisson`` does, if ``lam`` is not in
            ``[0, prng._POISSON_LAM_MAX]``.
    """
    if not 0.0 <= lam <= prng._POISSON_LAM_MAX:
        raise ValueError(
            f"poisson mean must be in [0, {prng._POISSON_LAM_MAX}], got {lam}"
        )
    limit = math.exp(-lam)
    typical = math.ceil(lam + 3.0 * math.sqrt(lam)) + 1
    counts = np.zeros(len(states), dtype=np.int64)
    product = np.ones(len(states))
    live = np.arange(len(states))
    drawn = 0
    while len(live):
        width = max(1, min(_BLOCK // len(live), typical))
        block = _uniforms(states[live], drawn, width)
        block[:, 0] *= product[live]
        block = np.multiply.accumulate(block, axis=1)
        above = np.count_nonzero(block > limit, axis=1)
        counts[live] += above
        product[live] = block[:, -1]
        live = live[above == width]
        drawn += width
    return counts


def _duration_totals(
    states: np.ndarray, counts: np.ndarray, mu: float, log=None, cap: float = math.inf
) -> np.ndarray:
    """Sum of the ``counts[i]`` exponential(``mu``) draws that follow the
    Poisson draws of stream ``i``, added left to right from ``0.0``, each
    ``-log(1 - u) / mu`` (``log`` is :func:`_libm_log` unless given), and
    clipped to ``cap``: ``min(total, cap)``.

    A stream stops drawing once its running total reaches ``cap``.  That is
    exact: the durations are non-negative, so the partial sums never
    decrease and ``min(partial, cap) == min(total, cap)`` from then on.
    """
    log = _libm_log if log is None else log
    totals = np.zeros(len(states))
    live = np.flatnonzero(counts)
    if not len(live):
        return np.minimum(totals, cap)
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"exponential rate must be positive and finite, got {mu}")
    # About cap*mu + 1 durations reach the cap; blocks are no wider than that
    # plus three standard deviations.  cap*mu is inf for an uncapped sum, or
    # when a huge cap and rate overflow, so it is clamped before rounding.
    reach = min(cap * mu, float(_BLOCK))
    typical = math.ceil(reach + 3.0 * math.sqrt(reach)) + 1 if reach > 0.0 else 1
    # A count of k took k + 1 uniforms; the durations start after them.
    after = states + (counts.astype(np.uint64) + 1) * _GAMMA
    drawn = 0
    while len(live):
        left = counts[live] - drawn
        width = max(1, min(_BLOCK // len(live), int(left.max()), typical))
        one_minus_u = 1.0 - _uniforms(after[live], drawn, width)
        wanted = np.arange(width) < left[:, None]
        # Padding past a stream's last duration adds 0.0, which leaves the
        # total's bits unchanged (it starts at 0.0, so it is never -0.0).
        durations = np.zeros(one_minus_u.shape)
        durations[wanted] = -log(one_minus_u[wanted]) / mu
        durations[:, 0] += totals[live]
        reached = np.add.accumulate(durations, axis=1)[:, -1]
        totals[live] = reached
        live = live[(left > width) & (reached < cap)]
        drawn += width
    return np.minimum(totals, cap)


def compound_poisson_totals(
    states: np.ndarray, lam: float, mu: float, cap: float
) -> np.ndarray:
    """Compound-Poisson total of every stream, drawn in lockstep and clipped
    to ``cap``.

    Stream ``i`` replays ``SplitMix64(states[i])``: a Poisson(``lam``) count
    by Knuth's method, then that many exponential(``mu``) durations, added
    left to right.  Each result equals ``min(sim.sample_collisions(lam, mu,
    states[i]).total, cap)`` bit for bit (``cap = math.inf`` leaves the
    totals whole).  A stream stops drawing durations
    once its running total reaches ``cap``, which leaves the clipped total
    unchanged (the partial sums never decrease).  Draws are made in blocks
    of at most ``max(_BLOCK, len(states))`` elements.

    Raises:
        ValueError: As ``SplitMix64.poisson`` does, if there is a stream and
            ``lam`` is not in ``[0, prng._POISSON_LAM_MAX]``; as
            ``SplitMix64.exponential`` does, if some count is positive and
            ``mu`` is not a positive finite rate.  Each is checked once per
            call.
    """
    if not len(states):
        return np.zeros(0)
    return _duration_totals(states, _poisson_counts(states, lam), mu, cap=cap)


def chance_mc_count(
    alpha_total: float,
    threshold: float,
    lam: float,
    mu: float,
    trials: int,
    seed: int,
) -> int:
    """Trials in which total collision time + ``alpha_total`` fits under ``threshold``.

    Trial ``t`` draws its compound-Poisson collision time from the substream
    ``substream_seed(seed, t)``, as ``_pure.chance_mc_count`` does.  The
    durations are summed with ``np.log``; the trials whose decision that
    could flip are summed again with libm's logarithm.

    Raises:
        ValueError: As :func:`compound_poisson_totals` does.
    """
    seed = operator.index(seed)
    ok = 0
    for start in range(0, trials, _CHUNK):
        states = _substreams(seed, start, min(start + _CHUNK, trials))
        counts = _poisson_counts(states, lam)
        totals = _duration_totals(states, counts, mu, log=np.log)
        # Equal infinite arguments make the margin inf - inf = NaN, which
        # decides "no" on both paths (see the module docstring).
        with np.errstate(invalid="ignore"):
            margin = threshold - (totals + alpha_total)
            scale = totals + (abs(alpha_total) + abs(threshold))
            unsure = np.abs(margin) <= (counts + 1) * (_K * (scale * _EPS + _TINY))
        if unsure.any():
            totals[unsure] = _duration_totals(states[unsure], counts[unsure], mu)
        ok += int(np.count_nonzero(totals + alpha_total <= threshold))
    return ok
