"""Every random draw of the package, in NumPy lockstep, and the work-block rule.

The kernels advance the SplitMix64 streams of all trials at once instead of
one trial at a time, and so do the UE drops (:func:`uniforms`) and the
exact replay; an int seed is taken mod 2**64 here.  Substreams are
counter-based (the seed of trial ``t`` is ``mix64(seed + (t+1)*gamma)``,
and draw ``j`` of a stream seeded with ``s`` comes from the state ``s +
j*gamma``, see :mod:`ruinfair.prng`), so every stream can be derived and
stepped in one ``uint64`` array whose wrap-around is exactly the ``&
MASK64`` of the scalar code.  Each step repeats the scalar recipe of
:mod:`ruinfair.prng` with the same IEEE-754 double operations, in the same
order:

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

**Work blocks.**  Both kernels take their trials, and the sweep's loops in
``sim`` and ``experiment`` their items, one :func:`blocks` slice at a time.

**Draw blocks.**  Every loop draws through :func:`_uniforms`: a block is
``width`` draws of each of the ``n_live`` streams still live, one row per
draw and one column per stream, with ``width`` at most ``max(1, _BLOCK //
n_live)``.  Each row is one whole-array operation, and the carried claims,
product or total set the bits, block boundaries do not, so each loop sizes
its blocks to what its live streams still need:

* ``ruin_mc_count`` draws periods up to the horizon, takes ``_fast_log``
  of a whole block in one call, then steps its rows one period at a
  time, where every row compares the claims with the period's two
  thresholds (see "The thresholds"): one comparison, ``claims >= lo``,
  finds the paths that leave, ruined or unsure.  A path that leaves is
  marked with ``claims = -inf``, which never leaves again: ``lo`` is
  clamped at the most negative double, above ``-inf``, and a marked row
  whose next claim overflows reads NaN, which compares false.  The arrays
  drop the marked rows between blocks, once at least half of them are
  marked, so a block starts with at most twice the live paths and most
  blocks copy nothing.
* The Poisson blocks add up to the largest mean plus three standard
  deviations (``typical - drawn``), then go one standard deviation at a
  time.
* The duration blocks add up to ``cap*mu + 1`` (about the durations a
  capped total takes to reach its cap), then go ``sqrt(cap*mu) + 1`` at a
  time.

A stream never draws a whole ``typical`` again once it has drawn that
many, so draws past a stream's count or cap are few, and few of them take
a logarithm.  Streams that finish (completed Poisson counts and duration
sums, and capped duration sums that reach their cap) are dropped after
each block, so the cost of a block is proportional to the streams still
live.

**Shared products.**  Knuth's running product ``p_j = u_1 * ... * u_j``
of a stream does not depend on the Poisson mean; only the limit
``exp(-lam)`` does, and the count at ``lam`` is the number of ``j`` with
``p_j > exp(-lam)``.  So :func:`compound_poisson_totals` takes a sequence
of means that every stream shares, draws each stream's products once, up
to the largest mean, and reads every mean's count off them, comparing a
block's products with all the limits in one ``count_nonzero``: the
products are carried bit for bit, so each count is that of a draw at its
mean alone.  The sweep's collision keys reuse the same streams at every
rate, so a sweep draws the products of a cell once, not once a key.  The
durations are then drawn per (mean, stream) pair, each pair a stream of
its own in what follows; the duration rate and the cap are shared.  Each
distinct mean is checked once, in first-seen order, and its limit is
``math.exp(-lam)``, the scalar recipe's bits (``np.exp`` may differ in the
last bit).

**Which logarithm.**  NumPy's ``np.log`` has its own SIMD implementation,
which differs from glibc's in the last bit on some inputs; libm's is taken
element by element through ``math.log`` (:func:`_libm_log`), about 17x
slower.  :func:`compound_poisson_totals` takes libm's logarithm of every
duration whose bits can reach a total, so its totals are the scalar draws'
bit for bit; the sweep's collision draws and ``chance_mc_count`` both count
on them.  The sweep clips collision time at its WiFi window, never longer
than the frame ``T``, so it draws each total only up to ``T`` (exact, see
:func:`compound_poisson_totals`); on a congested channel (hundreds of
collisions of about 2 ms against a 10 ms frame) that skips most of the
logarithms.  A stream of at least ``2 * cap * mu`` durations expects at
least twice the cap, so it is summed in a first pass with ``_fast_log``,
and its clipped total is the cap whenever the fast sum certifies it (see
"The cap certificate").  A second pass sums every other stream, and each
fast one whose sum does not certify, with libm's logarithm.  A call with
no fast stream runs the libm pass alone; so does the chance audit, which
draws whole totals (``cap = inf``).
``ruin_mc_count`` takes a logarithm every period of every path, and a
count needs only the sign of each decision, so it decides with ``np.log``
(read through the one name ``_fast_log``) and replays exactly only the few
paths whose decision the faster logarithm could have flipped: a
floating-point filter with an exact fallback (Shewchuk, "Adaptive
predicates", Discrete Comput. Geom. 18, 1997).  The unsure paths of a
chunk are replayed together from their start states by :func:`_path_ruins`,
with libm's logarithm and the scalar test at every period.

**The error bound.**  Let ``eps = 2**-52`` and ``tiny = 2**-1074``.  A
term ``-log(1 - u) / rate`` taken with ``np.log`` is off from the libm term
by at most a few ulps, i.e. by a few ``eps`` times the term: the two
logarithms of the same argument differ by at most a few ulps
(``tests/test_kernels.py`` checks that the largest gap over 10**6 uniforms
is at most ``_K / 16`` ulps), and the division adds half an ulp.  All the
terms are positive, so after ``s`` left-to-right additions each sum is
within ``(s - 1) * eps / 2`` times itself of the exact sum of its own
terms, and the claims ``F`` taken with ``np.log`` and ``C`` taken with
libm's differ by at most

    g = (s + m) * eps * F + s * tiny

for an ``m``-ulp logarithm; ``tiny`` bounds the absolute error of an
operation whose result is subnormal, where relative bounds fail (claims of
a rate near the largest double).  The scalar recipe ruins a path at period
``s`` when ``L - C < 0.0``, with the level ``L = u + s*c``, and that is
``C > L`` exactly (round-to-nearest subtraction is exact in sign, and zero
only when ``L == C``).  So a decision taken with ``F`` is libm's whenever
every number within ``g`` of ``F`` lies on the same side of ``L``.  The
kernel calls a path *unsure*, and replays it exactly, when

    |L - F|  <=  _K * s * (eps * (F + |L|) + tiny)

holds in real numbers at period ``s``: live below that band, ruined above
it.  ``_K = 64`` leaves a wide margin over the ``s + m`` needed.

**The thresholds.**  Solved for ``F``, with ``A = _K*s*eps`` and ``B =
_K*s*(|L|*eps + tiny)``, the band is ``lo <= F <= hi`` for

    lo = (L - B) / (1 + A)        hi = (L + B) / (1 - A),

and :func:`_thresholds` computes both once per period as floats ``a``,
``b``, ``lo`` and ``hi``, so a period costs one comparison of the claims,
``claims >= lo``; of the paths that leave, those with ``hi < F < inf`` are
ruined and the rest unsure.  Each threshold is three roundings (the sum,
the denominator and the quotient) off its formula in ``a`` and ``b``, and
``a >= A * (1 - eps/2)`` and ``b >= (1 - 2*eps) * _K*s*(|L|*eps + tiny/2)``
(``|L|*eps`` may underflow by ``tiny/2``).  A rounding is within ``eps/2``
of its result, or within ``tiny/2`` for a subnormal quotient (a subnormal
sum or difference is exact).  The slack covers them, for ``F >= 0``:

* *Live.*  ``F < lo`` makes ``lo > 0``, so ``L > b``, and ``lo <= (1 +
  2*eps) * (L - b) / (1 + a) + tiny/2``.  Hence ``L - F > a*F - 2*eps*(1
  + a)*F + b - (1 + a)*tiny/2``, which is at least ``g`` for ``_K >= m +
  4`` (the ``F`` terms need ``_K*s*(1 - 3*eps) >= s + m + 2``, the
  ``tiny`` terms ``_K*s*(1 - 3*eps) >= 2*s + 1``).  So every number
  within ``g`` of ``F`` is at most ``L``: not ruined.
* *Ruined.*  With ``a < 1`` and ``L + b >= 0``, ``hi >= (1 - 2*eps) * (L
  + b) / (1 - a) - tiny/2``, and ``F > hi`` gives ``F - L > a*F + (1 -
  2*eps)*b - 2*eps*|L| - tiny/2``, which exceeds ``g`` for ``_K >= m +
  1`` and ``_K >= 3``.  With ``L + b < 0`` every ``F >= 0`` exceeds
  ``hi``, and rightly: ``L < -b < -s*tiny``, while ``F - g >= -s*tiny``
  as ``(s + m)*eps < 1`` when ``a < 1``.  So every number within ``g`` of
  ``F`` is above ``L``: ruined.
* *Overflow.*  ``fl(L - b) = -inf`` makes ``lo = -inf``, clamped, so every
  path leaves; ``hi`` overflows to ``+inf``, which rules no path ruined,
  or to ``-inf`` only when ``L + b < 0``, covered above.  ``lo`` itself
  cannot overflow, as ``1 + a >= 1``.

``a >= 1`` (``_K*s*eps >= 1``) makes ``B >= |L|``, so the band reaches
every ``F >= 0`` upwards and no path is surely ruined: ``hi = inf`` then,
and every path that leaves is replayed (a ``_K`` of ``1e300`` replays them
all).  Non-finite operands decide as the scalar recipe does:

* ``L = +inf`` or NaN makes ``lo`` NaN (``inf - inf``), so no path leaves,
  and the scalar test ``L - C < 0.0`` is false for every ``C``;
* ``L = -inf`` makes ``lo = -inf``, clamped, and ``hi`` NaN, so every path
  leaves unsure and the replay ruins it, as the scalar test does;
* claims that overflow to ``inf`` leave unsure, since libm's may be finite
  (at ``_K = 0`` too, which replays only those and exact ties);
* the ``-inf`` marker, and a marked row gone NaN, never reach ``lo``; the
  clamp is there for it, since ``lo = -inf`` would let it leave again.

**The cap certificate.**  Let ``F`` be a fast stream's total after ``j``
durations taken with ``_fast_log``, and ``S`` the scalar recipe's partial
sum of the same ``j`` durations, taken with libm's.  Term by term the two
differ only in the logarithm of the same argument, so as in "The error
bound" ``|F - S|`` is at most about ``(j + m) * eps * F + j * tiny``.
The kernel keeps the fast total when

    F - _K * n * (eps * F + tiny)  >=  cap

holds in floating point, where ``n >= j`` is the stream's Poisson count
(the test is made once the stream stops, so ``n`` stands in for the
durations it summed and only widens the bound).  Then ``S >= cap``:

* *Rounding of the slack.*  ``eps * F`` is exact (or within ``tiny`` when
  it underflows), and the addition, the product and the subtraction each
  round to nearest, so the computed slack is at least ``(_K - 1) * n *
  (eps * F + tiny / 2)``, and a difference that rounds to ``cap`` or above is
  at least ``cap - eps * F / 2`` (the slack is not negative, so ``cap <=
  F``).  Hence ``S >= F - |F - S| >= cap + ((_K - 1) * n - j - m - 1/2) *
  eps * F + ((_K - 1) * n / 2 - j) * tiny``, which is at least ``cap`` for
  ``n >= j >= 1`` and any ``m <= _K - 2``; the gap test keeps ``m`` below
  ``_K / 16``.
* *Monotone partial sums.*  Every later duration is ``>= 0`` (or ``-0.0``)
  and rounding is monotone, so each further addition leaves the scalar
  sum at least ``S``: the scalar total is at least ``cap``, and its clipped
  total is ``cap`` bit for bit.  So is ``min(F, cap)``, as ``F`` is at
  least the rounded difference.
* *Non-finite sums.*  A duration overflows to ``inf`` only for a subnormal
  ``mu``; then ``F = inf``, the slack is ``inf`` and ``inf - inf`` is NaN,
  and ``NaN >= cap`` is false, so the stream is not certified.  ``F`` is
  never NaN otherwise (its terms are not negative), and ``cap = inf`` makes
  ``2 * cap * mu`` infinite, so no stream is fast.

A fast stream that is not certified (its count ran out below the cap, or
its total stopped within the slack above it) is reset to ``0.0`` and drawn
again from its first duration in the libm pass, like every other stream,
so every total is the scalar one clipped at the cap.  A total is carried
from block to block by its own stream alone, so which streams share a
pass or a block moves no bit.

**Reuse.**  A chance trial's collision total does not depend on
``alpha_total`` or the threshold, only on ``(seed, trial, lam, mu)``.
:func:`_chance_draws` keeps the totals of the last chunk, keyed by
``(seed, start, stop, lam, mu)``, so an audit that grants several airtimes
at one seed draws once, and each call only compares.  The kept array is
read-only.  The memo holds one chunk (8 bytes a trial, at most 0.5 MB), so
a call of more than ``_CHUNK`` trials draws each chunk afresh.

The counts are bit-identical to the scalar, one-trial-at-a-time
references of ``tests/oracles.py`` for every argument, and each total to
the scalar collision draw's total clipped at ``cap``;
``tests/test_kernels.py`` pins that, the ruin count also with every path
replayed (``_K`` huge) and with next to none (``_K = 0``), the thresholds
against the scalar test, and the capped totals with every fast stream drawn
again (``_K`` huge).
"""

from __future__ import annotations

import functools
import math
import operator
import sys

import numpy as np

from . import prng
from .prng import _POISSON_LAM_MAX  # the recipe's range; duty and config check it too

BACKEND = "lockstep"

__all__ = [
    "BACKEND",
    "ruin_mc_count",
    "chance_mc_count",
    "compound_poisson_totals",
    "substream_pairs",
    "uniforms",
    "blocks",
]

# Items of a work block (see blocks): trials, or the sweep's collision cells,
# advanced together; bounds the working memory of one call.
_CHUNK = 1 << 16

# Draws per block of every loop: a block is width x n_live draws with width
# at most max(1, _BLOCK // n_live).  Wider blocks cost peak memory: a
# 10,000-trial chance audit at lam = 2 adds about 3.6 MB with 2**16 and
# 1.7 MB with 2**14.
_BLOCK = 1 << 14

# Error bound of the np.log filter, in ulps per summed term (see the module
# docstring); 0 replays only ties and infinite claims, a huge value every path.
_K = 64
_EPS = 2.0**-52
_TINY = math.ulp(0.0)

_GAMMA, _MIX1, _MIX2 = (np.uint64(k) for k in (prng._GOLDEN, prng._MIX1, prng._MIX2))
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def blocks(n: int, per: int = 1):
    """``range(n)`` as in-order slices of ``max(1, _CHUNK // per)`` items
    (the last one may be shorter), for items of ``per`` cells each: the
    work blocks of every loop that holds about ``_CHUNK`` cells at a time."""
    step = max(1, _CHUNK // per)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _mix64(z: np.ndarray) -> np.ndarray:
    """``prng._mix64`` on a uint64 array, in place (multiplication wraps mod
    2**64); returns ``z``."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def substream_pairs(seeds, index) -> np.ndarray:
    """``prng.substream_seed(seed, i)`` element by element of ``seeds``, an
    int (taken mod 2**64) or uint64 states, and the indices ``index``, which
    broadcast together."""
    if isinstance(seeds, int):
        seeds = np.uint64(seeds & prng._MASK64)
    return _mix64(seeds + (np.asarray(index, dtype=np.uint64) + 1) * _GAMMA)


def _substreams(seed: int, start: int, stop: int) -> np.ndarray:
    """States of trials ``start .. stop-1``: ``substream_seed(seed, t)`` each."""
    return substream_pairs(seed, np.arange(start, stop, dtype=np.uint64))


def _uniforms(states: np.ndarray, start: int, width: int) -> np.ndarray:
    """The uniforms ``start+1 .. start+width`` of each stream of ``states``
    as one ``width x len(states)`` block: one row per draw, one column per
    stream (see "Draw blocks" in the module docstring)."""
    steps = np.arange(start + 1, start + width + 1, dtype=np.uint64) * _GAMMA
    bits = _mix64(steps[:, None] + states)
    bits >>= _S11
    # Below 2**53, so the int64 view converts exactly, and NumPy converts
    # int64 to float64 faster than uint64.
    block = bits.view(np.int64).astype(np.float64)
    block *= prng._INV_2_53
    return block


def uniforms(seed: int, start: int, count: int):
    """The uniforms ``start+1 .. start+count`` of the stream seeded with
    ``seed`` (taken mod 2**64), in order, drawn one :func:`blocks` work block
    at a time."""
    state = np.array([seed & prng._MASK64], dtype=np.uint64)
    for block in blocks(count):
        yield from _uniforms(state, start + block.start, block.stop - block.start).ravel().tolist()


def _libm_log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of every element of a 1-D array."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, len(x))


# The faster logarithm the ruin kernel decides with (see "Which logarithm").
_fast_log = np.log


def _path_ruins(u, c, mu_prime: float, n: int, states: np.ndarray) -> np.ndarray:
    """Whether the surplus path of each stream of ``states`` goes negative
    by period n, by the scalar recipe with libm's logarithm, tested at every
    period: drawn a block of periods at a time, as in :func:`_chunk_ruins`."""
    ruined = np.zeros(len(states), dtype=bool)
    claims = np.zeros(len(states))
    drawn = 0
    # A subnormal rate overflows a claim to inf (inf - inf is NaN), as in the scalar draw.
    with np.errstate(over="ignore", invalid="ignore"):
        while drawn < n and len(states):
            width = max(1, min(_BLOCK // len(states), n - drawn))
            steps = -_libm_log(1.0 - _uniforms(states, drawn, width).ravel()) / mu_prime
            for s, step in enumerate(steps.reshape(width, -1), drawn + 1):
                claims += step
                ruined |= u + s * c - claims < 0.0
            drawn += width
    return ruined


def _thresholds(level: float, s: int) -> tuple[float, float]:
    """The claims thresholds ``(lo, hi)`` of the filter's test at period
    ``s`` against the level ``u + s*c`` (see "The thresholds" in the module
    docstring): a path leaves once ``claims >= lo``, and a leaving path is
    ruined when ``hi < claims < inf`` and unsure otherwise."""
    a = _K * s * _EPS
    b = _K * s * (abs(level) * _EPS + _TINY)
    # The clamp keeps the -inf marker below lo; max keeps a NaN first argument.
    lo = max((level - b) / (1.0 + a), -sys.float_info.max)
    hi = (level + b) / (1.0 - a) if a < 1.0 else math.inf
    return lo, hi


def _chunk_ruins(u, c, mu_prime, n: int, seed: int, start: int, stop: int) -> int:
    """Ruined paths among trials ``start .. stop-1``.

    Draws the claims of the live paths a block of periods at a time, up to
    ``max(1, _BLOCK // live)`` periods, with ``_fast_log`` taken once per
    block, then steps the block's periods one row at a time, every row
    comparing the claims with the period's two :func:`_thresholds`.  A path
    leaves at its ruin or at the first period where it is unsure, and is
    marked with ``claims = -inf``: no later draw lifts it (an overflow makes
    it NaN), and neither ``-inf`` nor NaN reaches ``lo``, so it never leaves
    again.  The arrays drop the marked rows between blocks once at least
    half of them are marked.  The unsure paths, if any, are replayed
    together from their start states by :func:`_path_ruins`.
    """
    states = _substreams(seed, start, stop)
    claims = np.zeros(len(states))
    marked = drawn = ruined = 0
    unsure = []
    # A subnormal rate overflows a claim to inf, as the scalar draw does; a
    # marked row then reads -inf - -inf = NaN, which is never live either.
    with np.errstate(over="ignore", invalid="ignore"):
        while drawn < n and len(states):
            width = max(1, min(_BLOCK // len(states), n - drawn))
            # Subtracting log/rate gives the bits of adding -log/rate.
            steps = _fast_log(1.0 - _uniforms(states, drawn, width).ravel())
            steps /= mu_prime
            for s, step in enumerate(steps.reshape(width, -1), drawn + 1):
                claims -= step
                lo, hi = _thresholds(u + s * c, s)
                gone = (claims >= lo).nonzero()[0]
                if not len(gone):
                    continue
                left = claims[gone]
                # Infinite claims are unsure: the libm sum may be finite.
                sure = (hi < left) & (left < math.inf)
                sure_count = int(np.count_nonzero(sure))
                ruined += sure_count
                if sure_count < len(gone):
                    unsure.append(states[gone[~sure]])
                claims[gone] = -math.inf
                marked += len(gone)
            # Dropped before the next block is drawn, so that one block's
            # arrays are live at a time; with two, glibc trimmed its heap
            # and faulted it in again on most calls of a varied grid.
            del steps
            drawn += width
            if drawn < n and 2 * marked >= len(claims):
                keep = np.flatnonzero(claims > -math.inf)
                states, claims, marked = states[keep], claims[keep], 0
    if unsure:
        ruined += int(np.count_nonzero(_path_ruins(u, c, mu_prime, n, np.concatenate(unsure))))
    return ruined


def ruin_mc_count(
    u: float, c: float, mu_prime: float, n: int, trials: int, seed: int
) -> int:
    """Number of surplus paths (out of ``trials``) that go negative by period n.

    Raises:
        ValueError: If a draw is needed (``n >= 1`` and ``trials >= 1``) and
            ``mu_prime`` is not a positive finite rate, as the recipe's
            exponential draw does; checked once per call.
    """
    if n < 1 or trials < 1:
        return 0
    if not (math.isfinite(mu_prime) and mu_prime > 0.0):
        raise ValueError(f"exponential rate must be positive and finite, got {mu_prime}")
    seed = operator.index(seed)
    return sum(
        _chunk_ruins(u, c, mu_prime, n, seed, block.start, block.stop)
        for block in blocks(trials)
    )


def _poisson_counts(states: np.ndarray, lams) -> np.ndarray:
    """The Poisson counts of :mod:`ruinfair.prng`'s recipe, drawn from
    ``SplitMix64(s)`` for every state ``s``: entry ``[r, i]`` is the count
    of mean ``lams[r]`` of stream ``i``.

    The running products only shrink (each uniform is below 1) and do not
    depend on the mean, so a stream's count at mean ``lam`` is the number
    of its products above ``exp(-lam)``: one sequence of products serves
    every mean.  A stream is drawn until a product falls to the smallest
    limit, that of the largest mean; a count of k takes k + 1 uniforms.
    The first blocks reach the largest mean plus three standard deviations
    of that; later ones are one standard deviation wide, so few draws are
    wasted.  Each limit is ``math.exp``'s, the scalar recipe's bits.

    Raises:
        ValueError: For the first distinct mean, in first-seen order, not
            in ``[0, _POISSON_LAM_MAX]``, the range of the Poisson recipe in
            :mod:`ruinfair.prng`.
    """
    lams = np.asarray(lams, dtype=np.float64).tolist()
    for lam in dict.fromkeys(lams):
        if not 0.0 <= lam <= _POISSON_LAM_MAX:
            raise ValueError(f"poisson mean must be in [0, {_POISSON_LAM_MAX}], got {lam}")
    limits = np.array([math.exp(-lam) for lam in lams])[:, None]
    top = max(lams)
    lowest = int(limits.argmin())
    typical = math.ceil(top + 3.0 * math.sqrt(top)) + 1
    tail = math.ceil(math.sqrt(top)) + 1
    counts = np.zeros((len(lams), len(states)), dtype=np.int64)
    product = np.ones(len(states))
    live = np.arange(len(states))
    drawn = 0
    while len(live):
        width = max(1, min(_BLOCK // len(live), max(tail, typical - drawn)))
        block = _uniforms(states[live], drawn, width)
        block[0] *= product[live]
        np.multiply.accumulate(block, axis=0, out=block)
        above = np.count_nonzero(block[:, None, :] > limits, axis=0)
        counts[:, live] += above
        product[live] = block[-1]
        live = live[above[lowest] == width]
        drawn += width
    return counts


def compound_poisson_totals(
    states: np.ndarray, lams, mu: float, cap: float
) -> np.ndarray:
    """Compound-Poisson total of every stream at every mean of ``lams``,
    drawn in lockstep and clipped to ``cap``: a ``len(lams) x len(states)``
    array.

    Entry ``[r, i]`` replays ``SplitMix64(states[i])``: a Poisson count by
    Knuth's method, of mean ``lams[r]``, then that many
    exponential(``mu``) durations, each ``-log(1 - u) / mu`` with libm's
    logarithm, added left to right from ``0.0``.  Each result equals the
    scalar draw's total clipped to ``cap`` bit for bit (``cap = math.inf``
    leaves the totals whole).  The counts of all the means are read off
    one sequence of products per stream (:func:`_poisson_counts`); the
    durations are drawn per (mean, stream) pair.  A pair stops drawing
    durations once its running total reaches ``cap``, which leaves the
    clipped total unchanged (the partial sums never decrease).  A pair of
    at least ``2 * cap * mu`` durations takes ``_fast_log`` and is drawn
    again with libm's only if its total does not certify the cap (see "The
    cap certificate" in the module docstring).  Draws are made in blocks of
    at most ``max(_BLOCK, len(states))`` elements.

    Raises:
        ValueError: As :func:`_poisson_counts` does, if there is a stream;
            as the recipe's exponential draw does, if some count is positive
            and ``mu`` is not a positive finite rate.  Each distinct mean is
            checked once per call.
    """
    shape = (len(lams), len(states))
    totals = np.zeros(shape[0] * shape[1])
    if not len(totals):
        return totals.reshape(shape)
    counts = _poisson_counts(states, lams)
    # A count of k took k + 1 uniforms; the durations start after them.
    after = (states + (counts.astype(np.uint64) + 1) * _GAMMA).ravel()
    counts = counts.ravel()
    live = np.flatnonzero(counts)
    if len(live) and not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"exponential rate must be positive and finite, got {mu}")
    # A pair of at least 2*cap*mu durations expects at least twice the cap,
    # so it sums with _fast_log and keeps its total only if that certifies
    # the cap (see "The cap certificate"); none does when cap*mu is
    # infinite.  The rest, and the fast pairs that fail, take libm's.
    fast = counts[live] >= 2.0 * cap * mu
    if fast.any():
        quick = live[fast]
        _add_durations(totals, quick, _fast_log, after, counts, mu, cap)
        sums = totals[quick]
        # An inf sum gives inf - inf = NaN, which certifies nothing.
        with np.errstate(invalid="ignore"):
            bound = sums - _K * counts[quick] * (_EPS * sums + _TINY)
        redo = quick[~(bound >= cap)]
        totals[redo] = 0.0
        live = np.concatenate((live[~fast], redo))
    _add_durations(totals, live, _libm_log, after, counts, mu, cap)
    return np.minimum(totals, cap).reshape(shape)


def _add_durations(totals, live, log, after, counts, mu: float, cap: float) -> None:
    """Add the durations of the streams ``live`` to their ``totals``, which
    start at ``0.0``, taking each logarithm with ``log``: stream ``i`` draws
    ``counts[i]`` durations from the state ``after[i]``, and stops early once
    its total reaches ``cap``."""
    # About cap*mu + 1 durations reach the cap, so the first block is that
    # wide and later ones one standard deviation.  cap*mu is inf for an
    # uncapped sum, or when a huge cap and rate overflow, so it is clamped
    # before rounding.
    reach = min(cap * mu, float(_BLOCK))
    if reach > 0.0:
        typical, tail = math.ceil(reach) + 1, math.ceil(math.sqrt(reach)) + 1
    else:
        typical = tail = 1
    drawn = 0
    # A subnormal mu overflows a duration to inf, as the scalar draw does.
    with np.errstate(over="ignore"):
        while len(live):
            left = counts[live] - drawn
            need = max(tail, typical - drawn)
            width = max(1, min(_BLOCK // len(live), int(left.max()), need))
            one_minus_u = 1.0 - _uniforms(after[live], drawn, width)
            wanted = np.arange(width)[:, None] < left
            # Padding past a stream's last duration adds 0.0, which leaves the
            # total's bits unchanged (it starts at 0.0, so it is never -0.0).
            durations = np.zeros(one_minus_u.shape)
            durations[wanted] = -log(one_minus_u[wanted]) / mu
            durations[0] += totals[live]
            np.add.accumulate(durations, axis=0, out=durations)
            reached = durations[-1]
            totals[live] = reached
            live = live[(left > width) & (reached < cap)]
            drawn += width


@functools.lru_cache(maxsize=1)
def _chance_draws(seed: int, start: int, stop: int, lam: float, mu: float):
    """Collision totals of trials ``start .. stop-1``, read-only: the draws
    of :func:`chance_mc_count`, which do not depend on the LTE-U airtime or
    the threshold, so calls that differ only in those reuse them (see
    "Reuse" in the module docstring)."""
    totals = compound_poisson_totals(_substreams(seed, start, stop), (lam,), mu, math.inf)[0]
    totals.flags.writeable = False
    return totals


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
    ``substream_seed(seed, t)`` with :func:`compound_poisson_totals`, as the
    scalar recipe does.  The draws of the last chunk are kept for the next
    call (:func:`_chance_draws`).

    Raises:
        ValueError: As :func:`compound_poisson_totals` does.
    """
    seed = operator.index(seed)
    ok = 0
    for block in blocks(trials):
        totals = _chance_draws(seed, block.start, block.stop, lam, mu)
        # An infinite total and alpha_total of opposite signs sum to NaN,
        # which does not fit, as in the scalar recipe.
        with np.errstate(invalid="ignore"):
            ok += int(np.count_nonzero(totals + alpha_total <= threshold))
    return ok
