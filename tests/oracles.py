"""Independent oracles used by the test suite.

Everything here is deliberately dumb: closed forms derived by direct
integration, exhaustive grid search, or scalar loops that take one trial
and one draw at a time.  None of it shares code with the algorithm it
checks, so agreement is evidence, not tautology.

:class:`SplitMix64` is the scalar generator of the recipes documented in
:mod:`ruinfair.prng`, written out here with its own constants and mix: the
package has no scalar generator, as every draw it makes goes through the
lockstep kernels of ``ruinfair._kernels``, so this class is the reference
they are pinned to (``tests/test_prng.py`` pins both to the published
SplitMix64 vectors).  The scalar specifications (the Poisson count, the
Monte Carlo counts, the collision draw and the long frame) draw from it one
stream at a time, where the package draws all streams in lockstep.
:func:`water_fill` solves one duty cycle at a time, where the package solves
a vector of them at once.  The long frame takes this water-filling, and the package's duty
cycle and link budget as they are: it pins how the sweep runner reuses
them, not the parts themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ruinfair import (
    AllocationResult,
    CollisionModel,
    DutyCyclePolicy,
    DutyCycleResult,
    FrameConfig,
    NumericalError,
    RadioConfig,
    Scheme,
    TopologyConfig,
    TrafficConfig,
    duty_cycle_from_surplus,
    generate_topology,
    link_budget,
    lte_duty_cycle,
)
from ruinfair.experiment import SweepRow
from ruinfair.prng import _POISSON_LAM_MAX, substream_seed
from ruinfair.sim import scheme_lte_time

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 (Vigna, 2015), one draw at a time: the state advances by
    the golden gamma and each output is its mix; the seed is taken mod
    2**64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of the next output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def exponential(self, rate: float) -> float:
        """Exponential variate by inverse CDF, ``-log(1 - u) / rate``, with
        libm's logarithm."""
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"exponential rate must be positive and finite, got {rate}")
        return -math.log(1.0 - self.uniform()) / rate


def poisson(rng: SplitMix64, lam: float) -> int:
    """Poisson count with mean ``lam`` drawn from ``rng`` by Knuth's method:
    the running products of its uniforms above ``exp(-lam)``."""
    if not 0.0 <= lam <= _POISSON_LAM_MAX:
        raise ValueError(f"poisson mean must be in [0, {_POISSON_LAM_MAX}], got {lam}")
    limit = math.exp(-lam)
    k = 0
    p = rng.uniform()
    while p > limit:
        k += 1
        p *= rng.uniform()
    return k


def ruin_one_period(u: float, c: float, rate: float) -> float:
    """P[Z1 > u + c] for Z1 ~ exp(rate): the only way to ruin in one period."""
    return math.exp(-rate * (u + c))


def ruin_two_periods(u: float, c: float, rate: float) -> float:
    """Two-period ruin probability by direct integration.

    Ruin at period 1: Z1 > u + c.  Ruin first at period 2: Z1 <= u + c and
    Z1 + Z2 > u + 2c; integrating the exponential density of Z1 gives
    rate * (u + c) * exp(-rate * (u + 2c)).
    """
    first = math.exp(-rate * (u + c))
    second = rate * (u + c) * math.exp(-rate * (u + 2.0 * c))
    return first + second


def ruin_three_periods(u: float, c: float, rate: float) -> float:
    """Three-period ruin probability by direct integration.

    Ruin first at period 3: Z1 <= u + c, Z1 + Z2 <= u + 2c and
    Z1 + Z2 + Z3 > u + 3c.  Given (Z1, Z2), the last has probability
    exp(-rate * (u + 3c - Z1 - Z2)), so the integrand over the exponential
    densities of (Z1, Z2) is the constant rate^2 * exp(-rate * (u + 3c)).
    Its domain, z1 in [0, u + c] and z2 in [0, u + 2c - z1], has area
    (u + c)(u + 3c)/2.
    """
    third = rate * rate * (u + c) * (u + 3.0 * c) / 2.0 * math.exp(-rate * (u + 3.0 * c))
    return ruin_two_periods(u, c, rate) + third


def surplus_path_values(
    u: float, c: float, mu_prime: float, n: int, seed: int
) -> list[float]:
    """Surplus after each period, ``[u, u + c - Z1, u + 2c - Z1 - Z2, ...]``,
    with the claims ``Z`` drawn from ``SplitMix64(seed)``."""
    rng = SplitMix64(seed)
    values = [u]
    claims = 0.0
    for s in range(1, n + 1):
        claims += rng.exponential(mu_prime)
        values.append(u + s * c - claims)
    return values


def ruin_mc_count(
    u: float, c: float, mu_prime: float, n: int, trials: int, seed: int
) -> int:
    """Surplus paths (out of ``trials``) that go negative by period n; path
    ``t`` draws its claims from ``substream_seed(seed, t)``."""
    ruined = 0
    for t in range(trials):
        rng = SplitMix64(substream_seed(seed, t))
        claims = 0.0
        for s in range(1, n + 1):
            claims += rng.exponential(mu_prime)
            if u + s * c - claims < 0.0:
                ruined += 1
                break
    return ruined


def chance_mc_count(
    alpha_total: float,
    threshold: float,
    lam: float,
    mu: float,
    trials: int,
    seed: int,
) -> int:
    """Trials in which total collision time + ``alpha_total`` fits under
    ``threshold``; trial ``t`` draws a Poisson(``lam``) count of
    exponential(``mu``) durations from ``substream_seed(seed, t)``."""
    ok = 0
    for t in range(trials):
        rng = SplitMix64(substream_seed(seed, t))
        total = 0.0
        for _ in range(poisson(rng, lam)):
            total += rng.exponential(mu)
        if total + alpha_total <= threshold:
            ok += 1
    return ok


@dataclass(frozen=True)
class CollisionDraw:
    """Collisions in one long frame: a count and one duration per collision."""

    count: int
    durations: tuple[float, ...]

    @property
    def total(self) -> float:
        """Durations added left to right from 0.0 (``sum`` compensates on
        Python >= 3.12, which the lockstep kernel does not)."""
        total = 0.0
        for duration in self.durations:
            total += duration
        return total


def sample_collisions(lambda_k: float, mu: float, seed: int) -> CollisionDraw:
    """Draw one long frame's collisions: Poisson(lambda_k) count, exp(mu) durations."""
    CollisionModel(lambda_k, mu)  # checks both rates
    rng = SplitMix64(seed)
    count = poisson(rng, lambda_k)
    durations = tuple(rng.exponential(mu) for _ in range(count))
    return CollisionDraw(count=count, durations=durations)


@dataclass(frozen=True)
class FrameOutcome:
    """Time accounting and rates for one scheme on one channel's long frame."""

    scheme: Scheme
    channel: int
    wifi_success_time: float
    collision_time: float
    lte_time: float
    idle_time: float
    wifi_throughput: float
    lte_sum_rate: float


def simulate_long_frame(
    positions,
    sites: TopologyConfig,
    frame: FrameConfig,
    scheme: Scheme,
    traffic: TrafficConfig,
    policy: DutyCyclePolicy,
    radio: RadioConfig,
    seed: int,
    ruin_duty: Optional[DutyCycleResult] = None,
) -> list[FrameOutcome]:
    """Simulate one long frame on every channel under the given scheme.

    ``positions`` are the UEs' ``(x, y)`` pairs relative to the SBS, as
    ``generate_topology`` returns them; ``sites`` gives the channels, one per
    WAP (``wap_count``), and the stations behind each (``wst_per_wap``).
    Channel k's collision draw comes from the substream seed (seed, k) and
    does not depend on the scheme, so outcomes for different schemes on the
    same seed are directly comparable.

    ``ruin_duty`` short-circuits the surplus computation for ``RUIN_FAIR``
    (used when the ruin probability itself is the swept variable); when
    omitted it is computed from the frame and traffic parameters.

    Returns one :class:`FrameOutcome` per channel, in channel order.
    """
    t_total = frame.total_duration
    if scheme is Scheme.RUIN_FAIR and ruin_duty is None:
        ruin_duty = duty_cycle_from_surplus(frame, traffic.mu, policy=policy)
    lte_time = scheme_lte_time(scheme, t_total, ruin_duty)
    gammas = link_budget(positions, radio)
    lte_rate = water_fill(lte_time, radio.bandwidth, gammas).sum_rate if lte_time > 0.0 else 0.0

    # WiFi gets the window left by LTE-U; collision time beyond that window
    # is clipped, and the rest of the window is successful WiFi airtime.
    wifi_window = t_total - lte_time
    outcomes = []
    for channel in range(sites.wap_count):
        collision_total = sample_collisions(
            traffic.lambda_base * sites.wst_per_wap, traffic.mu, substream_seed(seed, channel)
        ).total
        collision_time = min(collision_total, wifi_window)
        wifi_success = max(0.0, wifi_window - collision_time)
        idle = max(0.0, t_total - wifi_success - collision_time - lte_time)
        outcomes.append(
            FrameOutcome(
                scheme=scheme,
                channel=channel,
                wifi_success_time=wifi_success,
                collision_time=collision_time,
                lte_time=lte_time,
                idle_time=idle,
                wifi_throughput=radio.wifi_phy_rate * wifi_success,
                lte_sum_rate=lte_rate,
            )
        )
    return outcomes


def water_objective(alpha: float, y: np.ndarray, gammas: np.ndarray) -> float:
    return alpha * float(np.sum(np.log1p(y * gammas)))


def water_fill(alpha_star: float, bandwidth: float, gammas) -> AllocationResult:
    """Water-filling of one duty cycle, by a scan of the sorted users.

    Prefix k of the users by rising 1/gamma has the water level
    (budget + sum of its 1/gamma) / k, and the served set is the prefix up
    to the last user strictly below its prefix's level (the strongest user
    always).  Each served user gets the level less its 1/gamma, written
    relative to the other served users, whose 1/gamma are summed in index
    order; every other user gets 0.
    """
    gammas = np.asarray(gammas, dtype=float)
    if alpha_star == 0.0 or not np.any(gammas > 0.0):
        y = np.zeros_like(gammas)
        return AllocationResult(y=y, water_level=math.inf, sum_rate=0.0, budget=0.0)

    budget = bandwidth * alpha_star
    inv_gamma = np.full_like(gammas, np.inf)
    usable = gammas > 0.0
    inv_gamma[usable] = 1.0 / gammas[usable]
    order = np.argsort(inv_gamma, kind="stable")
    inv_sorted = inv_gamma[order]
    levels = (budget + np.cumsum(inv_sorted)) / np.arange(1, gammas.size + 1)
    served = int(np.max(np.flatnonzero(inv_sorted < levels), initial=0)) + 1
    active = np.zeros(gammas.size, dtype=bool)
    active[order[:served]] = True
    inv_served = float(np.sum(inv_gamma[active]))
    nu = served * alpha_star / (budget + inv_served)

    y = np.zeros_like(gammas)
    y[active] = np.maximum(
        0.0, (budget + (inv_served - served * inv_gamma[active])) / served
    )
    consumed = float(np.sum(y))
    if not math.isclose(consumed, budget, rel_tol=1e-9):
        raise NumericalError(f"budget mismatch: consumed {consumed}, budget {budget}")
    return AllocationResult(
        y=y,
        water_level=nu,
        sum_rate=water_objective(alpha_star, y, gammas),
        budget=consumed,
    )


def grid_best_two_users(
    alpha: float, bandwidth: float, gammas, rel_step: float = 1e-5
) -> float:
    """Best objective over the exhaustive 1-D grid (full budget is optimal).

    ``y0`` scans [0, budget] at ``rel_step * budget`` spacing with
    ``y1 = budget - y0``; the objective is nondecreasing in every share, so
    spending the whole budget is never suboptimal.
    """
    gammas = np.asarray(gammas, dtype=float)
    budget = bandwidth * alpha
    y0 = np.linspace(0.0, budget, round(1.0 / rel_step) + 1)
    y1 = budget - y0
    objective = alpha * (np.log1p(y0 * gammas[0]) + np.log1p(y1 * gammas[1]))
    return float(np.max(objective))


def grid_best_three_users(
    alpha: float, bandwidth: float, gammas, rel_step: float = 1e-5
) -> float:
    """Best objective over a refining 2-D grid at ``rel_step * budget`` resolution.

    A full scan at that spacing would need ~1e10 points, so the grid is
    refined around the running argmax instead; the objective is concave on
    the budget simplex, so the maximizer cannot hide away from the coarse
    argmax's neighborhood.
    """
    gammas = np.asarray(gammas, dtype=float)
    budget = bandwidth * alpha
    per_axis = 201
    lo0, hi0 = 0.0, budget
    lo1, hi1 = 0.0, budget
    best = -math.inf
    target = rel_step * budget

    while True:
        y0 = np.linspace(lo0, hi0, per_axis)
        y1 = np.linspace(lo1, hi1, per_axis)
        g0, g1 = np.meshgrid(y0, y1, indexing="ij")
        y2 = budget - g0 - g1
        feasible = y2 >= 0.0
        objective = np.where(
            feasible,
            alpha
            * (
                np.log1p(g0 * gammas[0])
                + np.log1p(g1 * gammas[1])
                + np.log1p(np.maximum(y2, 0.0) * gammas[2])
            ),
            -math.inf,
        )
        idx = np.unravel_index(np.argmax(objective), objective.shape)
        best = max(best, float(objective[idx]))
        spacing = max(y0[1] - y0[0], y1[1] - y1[0])
        if spacing <= target:
            return best
        pad = 3 * spacing
        lo0, hi0 = max(0.0, y0[idx[0]] - pad), min(budget, y0[idx[0]] + pad)
        lo1, hi1 = max(0.0, y1[idx[1]] - pad), min(budget, y1[idx[1]] + pad)


def sweep_scenario(config, sweep, value):
    """The whole scenario :func:`sweep_rows_per_frame` simulates at one
    value of ``sweep``: a ``wst_count`` or ``lambda_base`` value replaces
    its field, and a ``psi`` value leaves the scenario as it is (it forces
    the ruin-fair duty cycle instead)."""
    if sweep.variable == "wst_count":
        return replace(config, topology=replace(config.topology, wst_per_wap=int(value)))
    if sweep.variable == "lambda_base":
        return replace(config, traffic=replace(config.traffic, lambda_base=float(value)))
    return config


def sweep_rows_per_frame(config, sweep_name: str) -> list:
    """``run_sweep`` rows from one :func:`simulate_long_frame` call per frame.

    The straightforward sweep loop: for every sweep value, replication and
    scheme, simulate the long frame on every channel from scratch (link
    budget, water-filling, collision draws) and sum the outcomes over
    channels.  It pins the sweep runner's reuse of work across replications
    and schemes, and its lockstep collision draws against the scalar
    :func:`sample_collisions`.
    """
    sweep = config.sweeps[sweep_name]
    reps = config.seeds.replications
    rows = []
    for value in sweep.values:
        scenario = sweep_scenario(config, sweep, value)
        ruin_duty = None
        if sweep.variable == "psi":
            psi = float(value)
            ruin_duty = DutyCycleResult(lte_duty_cycle(psi, config.frame, config.policy), psi)
        duty = ruin_duty if ruin_duty is not None else duty_cycle_from_surplus(
            scenario.frame, scenario.traffic.mu, policy=scenario.policy
        )
        positions = generate_topology(scenario.seeds.topology, scenario.topology)

        wifi = {scheme: [] for scheme in Scheme}
        lte = {scheme: [] for scheme in Scheme}
        for r in range(reps):
            seed = substream_seed(config.seeds.traffic, r)
            for scheme in Scheme:
                outcomes = simulate_long_frame(
                    positions,
                    scenario.topology,
                    scenario.frame,
                    scheme,
                    scenario.traffic,
                    scenario.policy,
                    scenario.radio,
                    seed,
                    ruin_duty=ruin_duty,
                )
                # Left to right: sum() compensates on Python >= 3.12.
                wifi_total = lte_total = 0.0
                for outcome in outcomes:
                    wifi_total += outcome.wifi_throughput
                    lte_total += outcome.lte_sum_rate
                wifi[scheme].append(wifi_total)
                lte[scheme].append(lte_total)

        def std(samples):
            return float(np.std(samples, ddof=1)) if reps > 1 else 0.0

        rows.append(
            SweepRow(
                variable=sweep.variable,
                value=float(value),
                wifi_mean={s: float(np.mean(wifi[s])) for s in Scheme},
                wifi_std={s: std(wifi[s]) for s in Scheme},
                lte_mean={s: float(np.mean(lte[s])) for s in Scheme},
                lte_std={s: std(lte[s]) for s in Scheme},
                alpha_star=duty.alpha_star,
                psi=duty.psi,
            )
        )
    return rows
