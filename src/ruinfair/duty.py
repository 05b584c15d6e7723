"""Duty-cycle policy: turn WiFi ruin risk into an LTE-U airtime share.

A long frame of ``N`` short slots (each ``delta`` seconds, ``T = N*delta``)
is split between WiFi and LTE-U.  The policy computes the ruin probability
``psi`` of the WiFi surplus process and grants LTE-U the duty cycle

    alpha* = (1 - psi) * T                      (linear policy)
    alpha* = (1 - psi) * T if psi <= cutoff     (thresholded policy,
             else 0                              cutoff defaults to 0.4)

:func:`verify_chance_constraint` closes the loop: it checks empirically, via
a compound-Poisson collision model, that a given LTE-U allocation still
leaves the reserved WiFi slots available with at least probability ``xi``.
The policy itself never uses ``xi``; the check is a post-hoc audit, not an
equivalence claim.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import _kernels
from ._kernels import _POISSON_LAM_MAX
from .ruin import SurplusParams, ruin_probability_exact

__all__ = [
    "FrameConfig",
    "PolicyKind",
    "DutyCyclePolicy",
    "CollisionModel",
    "ChanceCheckReport",
    "DutyCycleResult",
    "lte_duty_cycle",
    "duty_cycle_from_surplus",
    "verify_chance_constraint",
]


@dataclass(frozen=True)
class FrameConfig:
    """Long-frame structure: ``n_short`` slots of ``delta`` seconds each.

    ``r_reserved`` slots are set aside for WiFi; the premium of the surplus
    process is ``r_reserved * delta`` seconds per period.  The frame length
    ``T = n_short * delta`` must be a finite float.
    """

    n_short: int = 10
    delta: float = 0.001
    r_reserved: int = 1

    def __post_init__(self):
        if not (isinstance(self.n_short, int) and self.n_short >= 1):
            raise ValueError(f"n_short: must be a positive integer, got {self.n_short}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta: must be > 0, got {self.delta}")
        # Not n_short * delta alone, which raises on an int beyond the float range.
        if not (self.n_short <= sys.float_info.max and math.isfinite(self.total_duration)):
            raise ValueError("n_short: the frame length n_short x delta overflows a float")
        if not (isinstance(self.r_reserved, int) and 0 <= self.r_reserved <= self.n_short):
            raise ValueError(
                f"r_reserved: must be an integer in [0, n_short], got {self.r_reserved}"
            )

    @property
    def total_duration(self) -> float:
        """Long-frame duration ``T = n_short * delta`` (seconds)."""
        return self.n_short * self.delta


class PolicyKind(Enum):
    LINEAR = "linear"
    THRESHOLDED_LINEAR = "thresholded_linear"


@dataclass(frozen=True)
class DutyCyclePolicy:
    """How the ruin probability maps to the LTE-U duty cycle."""

    kind: PolicyKind = PolicyKind.LINEAR
    psi_cutoff: float = 0.4

    def __post_init__(self):
        if not (math.isfinite(self.psi_cutoff) and 0.0 <= self.psi_cutoff <= 1.0):
            raise ValueError(f"psi_cutoff: must be in [0, 1], got {self.psi_cutoff}")


@dataclass(frozen=True)
class CollisionModel:
    """Compound-Poisson WiFi collision model for one channel.

    ``lambda_k`` is the expected number of collisions per long frame;
    ``mu`` is the rate (1/s) of each collision's exponential duration.
    """

    lambda_k: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_k) and 0.0 < self.lambda_k <= _POISSON_LAM_MAX):
            raise ValueError(
                f"lambda_k must be in (0, {_POISSON_LAM_MAX}], got {self.lambda_k}"
            )
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class ChanceCheckReport:
    """Outcome of the empirical WiFi-sufficiency check."""

    satisfied: bool
    empirical_prob: float
    xi: float
    trials: int


class DutyCycleResult(NamedTuple):
    alpha_star: float
    psi: float


def lte_duty_cycle(psi: float, frame: FrameConfig, policy: DutyCyclePolicy) -> float:
    """LTE-U duty cycle (seconds) granted for a given ruin probability.

    Linear: ``(1 - psi) * T``.  Thresholded: the same below the cutoff, zero
    above it (no LTE-U access when WiFi is already in distress).
    """
    if not (math.isfinite(psi) and 0.0 <= psi <= 1.0):
        raise ValueError(f"psi must be in [0, 1], got {psi}")
    if policy.kind is PolicyKind.THRESHOLDED_LINEAR and psi > policy.psi_cutoff:
        return 0.0
    return (1.0 - psi) * frame.total_duration


def duty_cycle_from_surplus(
    frame: FrameConfig,
    mu: float,
    policy: DutyCyclePolicy = DutyCyclePolicy(),
) -> DutyCycleResult:
    """Compute the ruin probability of the frame's surplus process and apply the policy.

    The surplus process starts with the whole long frame as capital
    (``u = N*delta`` seconds), earns the reserved slot time per period
    (``c = r*delta``), and runs for one period per short frame, with the
    pure-WiFi claim rate ``mu``.

    Args:
        frame: Long-frame structure; ``r_reserved`` must be >= 1 so the
            premium is positive.
        mu: Collision-duration rate (1/s).
        policy: Mapping from psi to the granted duty cycle.

    Returns:
        ``(alpha_star, psi)``: the granted LTE-U duty cycle (seconds) and
        the ruin probability it was derived from.
    """
    if frame.r_reserved < 1:
        raise ValueError(
            "duty_cycle_from_surplus needs r_reserved >= 1; "
            "a zero premium makes the surplus process degenerate"
        )
    params = SurplusParams(
        initial_capital=frame.total_duration,
        premium=frame.r_reserved * frame.delta,
        claim_rate=mu,
        horizon=frame.n_short,
    )
    psi = ruin_probability_exact(params)
    return DutyCycleResult(lte_duty_cycle(psi, frame, policy), psi)


def verify_chance_constraint(
    alpha_total: float,
    frame: FrameConfig,
    collision_model: CollisionModel,
    xi: float,
    trials: int,
    seed: int,
) -> ChanceCheckReport:
    """Empirically audit that an LTE-U allocation leaves enough WiFi airtime.

    Estimates, over ``trials`` seeded draws of the compound-Poisson collision
    time ``X_t``, the probability that

        X_t + alpha_total <= (n_short - r_reserved) * delta

    i.e. collisions plus the LTE-U share fit inside the non-reserved part of
    the long frame.  Satisfied when that probability reaches ``xi``.

    Draws are coupled across calls with the same seed (identical ``X_t``
    stream, drawn exactly by the sweep's compound-Poisson kernel), so the
    empirical probability is non-increasing in ``alpha_total`` by
    construction.  They are also reused: the kernel keeps the totals of its
    last call, keyed by ``(seed, trial range, lambda_k, mu)``, so auditing
    several allocations at one seed and collision model draws once (up to
    one work block of ``_kernels.blocks``; a larger audit draws each block
    again).  The count is the same as from fresh draws.
    """
    t_total = frame.total_duration
    if not (math.isfinite(alpha_total) and 0.0 <= alpha_total <= t_total):
        raise ValueError(f"alpha_total must be in [0, T={t_total}], got {alpha_total}")
    if not (math.isfinite(xi) and 0.0 < xi < 1.0):
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    threshold = (frame.n_short - frame.r_reserved) * frame.delta
    ok = _kernels.chance_mc_count(
        alpha_total, threshold, collision_model.lambda_k, collision_model.mu,
        trials, seed,
    )
    empirical = ok / trials
    return ChanceCheckReport(
        satisfied=empirical >= xi, empirical_prob=empirical, xi=xi, trials=trials
    )
