"""Per-user bandwidth sharing of the LTE-U duty cycle on a channel.

Given the duty cycle ``alpha*`` granted on a channel, the cell splits the
bandwidth-time budget ``B * alpha*`` across users to maximize

    alpha* * sum_i log(1 + y_i * gamma_i),    y_i >= 0,  sum_i y_i <= B * alpha*

where ``gamma_i = log(1 + P_i * g_i / sigma^2)`` is the user's SNR utility.
The problem is concave with a water-filling optimum: every served user sits
at the common water level, ``y_i = alpha*/nu - 1/gamma_i`` clipped at zero.
:func:`water_fill_batch` finds it exactly, without iteration, by sorting the
users and scanning the prefix water levels (the sort-based solution of
Palomar and Fonollosa, "Practical algorithms for a family of waterfilling
solutions", IEEE Trans. Signal Processing 53(2), 2005).  It takes a vector
of duty cycles and sorts the users once per call, whatever the number of
duty cycles; :func:`water_fill` is its one-duty-cycle case.  Path loss is
frequency-flat, so one utility per user serves every channel.

Logs are natural throughout (utilities in nats); rescaling the log base only
scales the objective and moves no argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

__all__ = [
    "AllocationResult",
    "AllocationBatch",
    "snr_utility",
    "water_fill",
    "water_fill_batch",
]


def snr_utility(power: float, gain: float, noise: float) -> float:
    """Log SNR utility ``ln(1 + power * gain / noise)`` in nats."""
    if not (math.isfinite(noise) and noise > 0.0):
        raise ValueError(f"noise must be > 0, got {noise}")
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(f"power must be > 0, got {power}")
    if not (math.isfinite(gain) and gain >= 0.0):
        raise ValueError(f"gain must be >= 0, got {gain}")
    return math.log1p(power * gain / noise)


@dataclass(frozen=True)
class AllocationResult:
    """Water-filling outcome for one channel.

    Attributes:
        y: Bandwidth-time share per user (zero for users below the level).
        water_level: Budget-constraint multiplier nu; ``inf`` when nothing
            is allocated (zero duty cycle or no usable user).
        sum_rate: Objective value ``alpha* * sum_i ln(1 + y_i * gamma_i)``.
        budget: Total share actually consumed, ``sum(y)``.
    """

    y: np.ndarray
    water_level: float
    sum_rate: float
    budget: float


class AllocationBatch(NamedTuple):
    """Water-filling outcomes for a vector of duty cycles on one channel.

    Row ``i`` of ``y`` and entry ``i`` of the other fields are the
    :class:`AllocationResult` fields of the ``i``-th duty cycle.
    """

    y: np.ndarray
    water_level: np.ndarray
    sum_rate: np.ndarray
    budget: np.ndarray


def water_fill_batch(alpha_stars, bandwidth: float, gammas) -> AllocationBatch:
    """Split the budget ``bandwidth * alpha_star`` across users by water-filling,
    for every duty cycle of the vector ``alpha_stars``.

    The solution is exact, with no iteration: users sorted by falling
    utility fill up in order, and the served set ``A`` is the longest prefix
    whose weakest user still lies strictly below the water level of the
    prefix.  The budget-constraint multiplier of that set is

        nu = |A| * alpha* / (bandwidth * alpha* + sum_{i in A} 1/gamma_i)

    and every served user gets ``y_i = alpha*/nu - 1/gamma_i``, computed as

        y_i = max(0, (bandwidth * alpha* + (sum_{i in A} 1/gamma_i - |A|/gamma_i)) / |A|)

    so that the budget survives a 1/gamma far above it (one served user
    gets the budget exactly); every other user gets 0, as does a user
    exactly at the level.  Zero duty cycle, or no user with positive
    utility, yields an all-zero allocation with an infinite water level.

    The users are sorted once per call.  The prefix levels, the served
    count, the shares, the budget check and the sum rate are then taken
    for all duty cycles at once, one row each of ``len(alpha_stars) x
    len(gammas)`` arrays, element by element and row by row, so that each
    row has the bits of a call with that duty cycle alone.  The served set
    depends only on its size, so the sum of its 1/gamma is taken once per
    distinct size, in index order.

    Raises:
        NumericalError: If a row's shares do not add up to its budget within
            a relative 1e-9.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValueError("gammas must be a non-empty vector")
    if np.any(~np.isfinite(gammas)) or np.any(gammas < 0.0):
        raise ValueError("gammas must be finite and >= 0")
    alpha_stars = np.asarray(alpha_stars, dtype=float)
    if alpha_stars.ndim != 1:
        raise ValueError("alpha_stars must be a vector")
    invalid = ~(np.isfinite(alpha_stars) & (alpha_stars >= 0.0))
    if np.any(invalid):
        raise ValueError(f"alpha_star must be >= 0, got {alpha_stars[invalid][0]}")
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")

    rows, users = alpha_stars.size, gammas.size
    usable = gammas > 0.0
    if not np.any(usable):
        zeros = np.zeros(rows)
        return AllocationBatch(np.zeros((rows, users)), np.full(rows, np.inf), zeros, zeros)

    budget = bandwidth * alpha_stars
    inv_gamma = np.full_like(gammas, np.inf)
    inv_gamma[usable] = 1.0 / gammas[usable]

    # Prefix k of the users by rising 1/gamma has the level
    # (budget + sum of its 1/gamma) / k.  The strongest user is always served.
    order = np.argsort(inv_gamma, kind="stable")
    inv_sorted = inv_gamma[order]
    counts = np.arange(1, users + 1)
    levels = (budget[:, None] + np.cumsum(inv_sorted)) / counts
    served = np.max(np.where(inv_sorted < levels, counts, 1), axis=1)
    rank = np.empty(users, dtype=np.intp)
    rank[order] = np.arange(users)
    active = rank < served[:, None]
    # Summed in index order, not the scan's: another order can move nu an
    # ulp.  Each size is summed compacted, as zeros in between would change
    # np.sum's pairwise association.
    inv_served = np.empty(rows)
    for count in dict.fromkeys(served.tolist()):
        inv_served[served == count] = np.sum(inv_gamma[rank < count])
    nu = served * alpha_stars / (budget + inv_served)

    # y_i = level - 1/gamma_i, written relative to the other served users so
    # that a 1/gamma far above the budget does not cancel it away: with one
    # user it is the budget exactly.
    served = served[:, None]
    shares = (budget[:, None] + (inv_served[:, None] - served * inv_gamma)) / served
    y = np.where(active, np.maximum(0.0, shares), 0.0)
    consumed = np.sum(y, axis=1)
    mismatch = ~(np.abs(consumed - budget) <= 1e-9 * np.maximum(np.abs(consumed), budget))
    if np.any(mismatch):
        raise NumericalError(
            "water-filling budget mismatch: consumed "
            f"{consumed[mismatch][0]}, budget {budget[mismatch][0]}"
        )
    return AllocationBatch(
        y=y,
        water_level=np.where(alpha_stars > 0.0, nu, np.inf),
        sum_rate=alpha_stars * np.sum(np.log1p(y * gammas), axis=1),
        budget=consumed,
    )


def water_fill(alpha_star: float, bandwidth: float, gammas) -> AllocationResult:
    """Split the budget ``bandwidth * alpha_star`` across users by water-filling.

    The one-row case of :func:`water_fill_batch`, which documents the
    solution.

    Raises:
        NumericalError: If the shares do not add up to the budget within a
            relative 1e-9.
    """
    batch = water_fill_batch([alpha_star], bandwidth, gammas)
    return AllocationResult(
        y=batch.y[0],
        water_level=float(batch.water_level[0]),
        sum_rate=float(batch.sum_rate[0]),
        budget=float(batch.budget[0]),
    )
