"""The portable seeded random recipe that every stochastic routine follows.

The generator is SplitMix64 (Vigna, 2015; public domain): a 64-bit counter
advanced by the golden-gamma constant, finalized by two xor-multiply mixing
rounds.  It was chosen over ``numpy.random`` because the whole algorithm fits
in a dozen lines and can be re-implemented exactly in any language, which
keeps Monte Carlo results reproducible bit-for-bit between implementations:
the package's lockstep kernels (:mod:`ruinfair._kernels`) and the scalar
generator of ``tests/oracles.py`` they are pinned to.  Draw ``j`` of the
stream seeded with ``s`` (mod 2**64) mixes the state ``s + j*gamma``.

Derived quantities are pinned to fixed recipes so that two implementations
consuming the same uniform stream produce identical samples:

* uniform in [0, 1): the top 53 bits of the next output, ``(z >> 11) * 2**-53``
* exponential(rate): inverse CDF, ``-log(1 - u) / rate``
* Poisson(lam): Knuth's product-of-uniforms method (exact, O(lam) draws):
  the count of running products ``u1, u1*u2, ...`` above ``exp(-lam)``, so
  a count of k takes k + 1 uniforms; ``lam`` in ``[0, _POISSON_LAM_MAX]``

Substreams for parallel / per-trial work are derived in O(1): the seed of
substream ``i`` is the ``(i+1)``-th raw output of a SplitMix64 stream seeded
with the master seed.  Trials are therefore independent of evaluation order.
"""

from __future__ import annotations

__all__ = ["substream_seed"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# Knuth's Poisson sampler multiplies uniforms against exp(-lam), which
# underflows to 0.0 near lam = 745; stay well clear of that edge.
_POISSON_LAM_MAX = 500.0


def _mix64(z: int) -> int:
    """SplitMix64 output finalizer (murmur-style avalanche)."""
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Seed for the ``index``-th substream of a master ``seed``.

    Equals the ``(index+1)``-th raw output of ``SplitMix64(seed)``, computed
    without stepping: the underlying state is just ``seed + (index+1)*gamma``.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)

