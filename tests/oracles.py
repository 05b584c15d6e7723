"""Independent oracles used by the test suite.

Everything here is deliberately dumb: closed forms derived by direct
integration, or exhaustive grid search.  None of it shares code with the
package's own algorithms, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np


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


def water_objective(alpha: float, y: np.ndarray, gammas: np.ndarray) -> float:
    return alpha * float(np.sum(np.log1p(y * gammas)))


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


def sweep_rows_per_frame(config, sweep_name: str) -> list:
    """``run_sweep`` rows from one ``simulate_long_frame`` call per frame.

    The straightforward sweep loop: for every sweep value, replication and
    scheme, simulate the long frame on every channel from scratch (link
    budget, water-filling, collision draws) and sum the outcomes over
    channels.  Unlike the oracles above it runs the package's simulator; it
    pins the sweep runner's reuse of work across replications and schemes,
    and its lockstep collision draws against the scalar
    ``sample_collisions`` that ``simulate_long_frame`` calls, not the
    simulator itself.
    """
    from dataclasses import replace

    from ruinfair import (
        DutyCycleResult,
        Scheme,
        duty_cycle_from_surplus,
        generate_topology,
        lte_duty_cycle,
        simulate_long_frame,
    )
    from ruinfair.experiment import SweepRow
    from ruinfair.prng import substream_seed

    sweep = config.sweeps[sweep_name]
    reps = config.seeds.replications
    rows = []
    for value in sweep.values:
        scenario = config
        ruin_duty = None
        if sweep.variable == "wst_count":
            scenario = replace(config, topology=replace(config.topology, wst_per_wap=int(value)))
        elif sweep.variable == "lambda_base":
            scenario = replace(config, traffic=replace(config.traffic, lambda_base=float(value)))
        else:
            psi = float(value)
            ruin_duty = DutyCycleResult(lte_duty_cycle(psi, config.frame, config.policy), psi)
        duty = ruin_duty if ruin_duty is not None else duty_cycle_from_surplus(
            scenario.frame, scenario.traffic.mu, policy=scenario.policy
        )
        topology = generate_topology(scenario.seeds.topology, scenario.topology)

        wifi = {scheme: [] for scheme in Scheme}
        lte = {scheme: [] for scheme in Scheme}
        for r in range(reps):
            seed = substream_seed(config.seeds.traffic, r)
            for scheme in Scheme:
                outcomes = simulate_long_frame(
                    topology,
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
