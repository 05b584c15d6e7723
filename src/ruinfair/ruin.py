"""Finite-horizon ruin probability of the WiFi duty-cycle surplus process.

The surplus starts at an initial capital ``u`` (unused WiFi airtime), earns a
fixed premium ``c`` per period (the reserved WiFi slot time), and pays one
random claim per period (airtime lost to collisions and LTE-U occupancy):

    U(s) = u + s*c - (Z_1 + ... + Z_s),    Z_i ~ iid exponential(rate mu')

Ruin is the first period s with U(s) < 0 (strictly).  Two routes compute the
probability that ruin happens within ``n`` periods:

* :func:`ruin_probability_exact`: closed-form sum over the first-ruin period,
  evaluated in log space so large horizons do not overflow the factorial.
* :func:`ruin_probability_mc`: seeded Monte Carlo over simulated paths; kept
  deliberately independent of the closed form so each validates the other.

A modeling quirk, kept on purpose: the combined claim rate is formed by
*adding the LTE-U duty-cycle duration to the collision rate* (see
:func:`effective_claim_rate`).  The sum mixes a 1/seconds quantity with a
seconds quantity, and a duration-shifted exponential is not exponential;
but this additive rate is the convention this model is defined with, so it
is implemented literally rather than "fixed".  Note the consequence: a
larger rate means *smaller* claims, hence a *lower* ruin probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .errors import NumericalError

__all__ = [
    "SurplusParams",
    "SurplusPath",
    "RuinEstimate",
    "effective_claim_rate",
    "ruin_probability_exact",
    "simulate_surplus_path",
    "ruin_probability_mc",
]

# Tolerated numeric overshoot above 1.0 before the sum is declared broken.
_EPS_NUM = 1e-9


@dataclass(frozen=True)
class SurplusParams:
    """Parameters of the duty-cycle surplus process.

    Attributes:
        initial_capital: Starting surplus u >= 0 (slot-time units).
        premium: Per-period income c > 0 (slot-time units).
        claim_rate: Exponential rate of the per-period claim, > 0
            (inverse slot-time; mean claim is ``1/claim_rate``).
        horizon: Number of periods n >= 0.
    """

    initial_capital: float
    premium: float
    claim_rate: float
    horizon: int

    def __post_init__(self):
        if not (math.isfinite(self.initial_capital) and self.initial_capital >= 0.0):
            raise ValueError(f"initial_capital must be >= 0, got {self.initial_capital}")
        if not (math.isfinite(self.premium) and self.premium > 0.0):
            raise ValueError(f"premium must be > 0, got {self.premium}")
        if not (math.isfinite(self.claim_rate) and self.claim_rate > 0.0):
            raise ValueError(f"claim_rate must be > 0, got {self.claim_rate}")
        if not (isinstance(self.horizon, int) and self.horizon >= 0):
            raise ValueError(f"horizon must be a nonnegative integer, got {self.horizon}")


@dataclass(frozen=True)
class SurplusPath:
    """One simulated surplus trajectory.

    ``values[s]`` is the surplus after period s (``values[0]`` is the initial
    capital).  ``ruin_time`` is the first period with negative surplus, or
    None; the path keeps evolving past ruin so the full trajectory is visible.
    """

    values: tuple[float, ...]
    ruined: bool
    ruin_time: Optional[int]


@dataclass(frozen=True)
class RuinEstimate:
    """Monte Carlo estimate of a ruin probability with its binomial std error."""

    estimate: float
    std_error: float
    trials: int


def effective_claim_rate(mu: float, alpha_k: float) -> float:
    """Combined claim rate ``mu + alpha_k``.

    ``mu`` is the collision-duration rate (1/s); ``alpha_k`` is the LTE-U
    duty-cycle duration (s).  See the module docstring for why these are
    added despite the unit mismatch.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be a positive finite rate, got {mu}")
    if not (math.isfinite(alpha_k) and alpha_k >= 0.0):
        raise ValueError(f"alpha_k must be >= 0, got {alpha_k}")
    return mu + alpha_k


def ruin_probability_exact(params: SurplusParams) -> float:
    """Probability that the surplus goes negative within the horizon.

    Sums, over the candidate first-ruin period j = 1..n, the term

        [mu' * c_j]^(j-1) / (j-1)! * exp(-mu' * c_j) * c_1 / c_j

    with ``c_j = u + j*c``.  Each term is evaluated in log space (via
    ``lgamma``) so horizons in the thousands neither overflow the power nor
    the factorial.  A term whose ``mu' * c_j`` overflows is 0.

    Raises:
        NumericalError: If the sum leaves [0, 1 + 1e-9] or turns non-finite;
            inside the tolerance it is clamped to [0, 1].
    """
    u = params.initial_capital
    c = params.premium
    rate = params.claim_rate
    n = params.horizon

    if n == 0:
        return 0.0

    c1 = u + c
    total = 0.0
    for j in range(1, n + 1):
        cj = u + j * c
        rate_cj = rate * cj
        if rate_cj == math.inf:
            # exp(-rate*c_j) is 0 and the power cannot outgrow it; in log
            # space the term would be 0*inf or inf - inf, both NaN.  c_j never
            # decreases in j, so every later term is 0 too.
            break
        log_term = (j - 1) * math.log(rate_cj) - math.lgamma(j) - rate_cj
        total += math.exp(log_term) * (c1 / cj)

    if not math.isfinite(total) or total < 0.0 or total > 1.0 + _EPS_NUM:
        raise NumericalError(
            f"ruin probability sum {total!r} outside [0, 1] beyond tolerance "
            f"for params {params}"
        )
    return min(total, 1.0)


def simulate_surplus_path(params: SurplusParams, seed: int) -> SurplusPath:
    """Simulate one surplus trajectory, deterministically for a given seed.

    Claims are drawn by inverse CDF from the SplitMix64 stream seeded with
    ``seed`` (see :mod:`ruinfair.prng`), one per period.
    """
    values = _kernels.surplus_path_values(
        params.initial_capital,
        params.premium,
        params.claim_rate,
        params.horizon,
        seed,
    )
    ruin_time = next((s for s, v in enumerate(values) if s > 0 and v < 0.0), None)
    return SurplusPath(
        values=tuple(values), ruined=ruin_time is not None, ruin_time=ruin_time
    )


def ruin_probability_mc(params: SurplusParams, trials: int, seed: int) -> RuinEstimate:
    """Monte Carlo ruin probability over ``trials`` independent paths.

    Trial t uses the substream seed derived from ``(seed, t)``, so the
    estimate is reproducible and independent of evaluation order; trial t
    ruins exactly when ``simulate_surplus_path(params, substream_seed(seed, t))``
    does.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ruined = _kernels.ruin_mc_count(
        params.initial_capital,
        params.premium,
        params.claim_rate,
        params.horizon,
        trials,
        seed,
    )
    estimate = ruined / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return RuinEstimate(estimate=estimate, std_error=std_error, trials=trials)
