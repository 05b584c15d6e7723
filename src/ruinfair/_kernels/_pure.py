"""Pure-Python Monte Carlo kernels (the scalar reference).

The specification the lockstep kernels of ``_lockstep.py`` are checked
against: one trial and one draw at a time, exactly as documented in
:mod:`ruinfair.prng`, with libm's ``log`` / ``exp``.  ``_lockstep.py``
vectorizes ``ruin_mc_count`` and ``chance_mc_count`` across trials and
returns bit-identical counts for identical arguments (it re-exports
``surplus_path_values`` from here); ``tests/test_kernels.py`` pins that
equivalence.  :func:`_path_ruins` is also the lockstep ruin kernel's
exact fallback: it replays each surplus path whose ``np.log`` decision
could be off.
"""

from __future__ import annotations

from ..prng import SplitMix64, substream_seed

__all__ = ["ruin_mc_count", "surplus_path_values", "chance_mc_count"]


def _path_ruins(u: float, c: float, mu_prime: float, n: int, seed: int) -> bool:
    """Whether the surplus path of ``SplitMix64(seed)`` goes negative by period n."""
    rng = SplitMix64(seed)
    claims = 0.0
    for s in range(1, n + 1):
        claims += rng.exponential(mu_prime)
        if u + s * c - claims < 0.0:
            return True
    return False


def ruin_mc_count(
    u: float, c: float, mu_prime: float, n: int, trials: int, seed: int
) -> int:
    """Number of surplus paths (out of ``trials``) that go negative by period n."""
    ruined = 0
    for t in range(trials):
        if _path_ruins(u, c, mu_prime, n, substream_seed(seed, t)):
            ruined += 1
    return ruined


def surplus_path_values(
    u: float, c: float, mu_prime: float, n: int, seed: int
) -> list[float]:
    """Surplus after each period: ``[u, u + c - Z1, u + 2c - Z1 - Z2, ...]``.

    The path keeps accruing premiums and claims past a ruin event; callers
    detect ruin as the first negative entry.
    """
    rng = SplitMix64(seed)
    values = [u]
    claims = 0.0
    for s in range(1, n + 1):
        claims += rng.exponential(mu_prime)
        values.append(u + s * c - claims)
    return values


def chance_mc_count(
    alpha_total: float,
    threshold: float,
    lam: float,
    mu: float,
    trials: int,
    seed: int,
) -> int:
    """Trials in which total collision time + ``alpha_total`` fits under ``threshold``.

    Collision time per trial is a compound draw: a Poisson(``lam``) count of
    collisions, each with an exponential(``mu``) duration.
    """
    ok = 0
    for t in range(trials):
        rng = SplitMix64(substream_seed(seed, t))
        total = 0.0
        for _ in range(rng.poisson(lam)):
            total += rng.exponential(mu)
        if total + alpha_total <= threshold:
            ok += 1
    return ok
