"""Sweep runner: seeded replications, aggregation, CSV and manifest output.

For each sweep value the runner simulates ``replications`` long frames per
scheme, sums outcomes over channels within a replication (network totals),
and reports mean and sample standard deviation over replications.  The same
replication seeds are reused at every sweep value (common random numbers),
so monotone per-seed effects survive aggregation untouched.

Each quantity is computed once per distinct input, and kept only while a
later sweep value of the same ``run_sweep`` call can reuse it.  A sweep
value changes only ``wst_per_wap``, ``lambda_base`` or the forced ruin
probability, and the first two are read as plain numbers
(``config.collision_factors``), never as a copy of the scenario, so:

* once per sweep: the topology and its link budget (station counts consume
  no randomness, so positions do not move with ``wst_per_wap``), and the
  ruin-fair duty cycle of a ``wst_count`` or ``lambda_base`` sweep;
* once per value of a ``psi`` sweep: the forced ruin-fair duty cycle;
* once per distinct collision rate ``lambda_base x wst_per_wap`` (a key,
  the one number a collision draw depends on): the collision total of
  each (replication, channel), shared by all four schemes.  Each is
  clipped at the frame length ``T``, so its draw stops there; every
  scheme's WiFi window is ``T - lte_time <= T``, so clipping it again at
  the window gives ``min(total, window)`` bit for bit.  A ``psi`` sweep
  has one key, a ``wst_count`` or ``lambda_base`` sweep at most one per
  value.  Consecutive keys are drawn a work block (``_kernels.blocks``, a
  key being ``replications x channels`` cells) at a time, each block in
  one ``sim.collision_totals`` call, which derives each (replication,
  channel) stream from ``seeds.traffic`` once and draws it at every rate
  of the block in one run of the lockstep compound-Poisson kernel (the
  Poisson counts of all the rates read off one sequence of products per
  stream), and only the current block's array is held: at most about a
  block of cells, or one key's array when a key has more;
* once per sweep: the water-filled sum rate of every distinct positive
  LTE-U airtime (``sim.lte_sum_rate``, whose rates serve every channel and
  none of which depends on the replication seed), in one water-filling
  call that sorts the UEs once, or in blocks of airtimes when the UEs are
  many;
* once per group of keys: the WiFi throughput of every (key, LTE-U
  airtime) pair of the group, at every distinct airtime of the sweep,
  which costs nothing extra: a ``psi`` sweep has one key, and a
  ``wst_count`` or ``lambda_base`` sweep one duty cycle, so its keys share
  their airtimes; then, after the last collision array is freed, the LTE-U
  sum rate of every airtime, summed over the channels once for all
  replications.

Both take one accounting path, ``_stats``: one total per (key and
airtime, or airtime) and replication, summed over channels left to right,
then each total's mean and std over the replications, in the work blocks
of ``_kernels.blocks``, so memory stays at the collision array plus a
replication-length row or two and a few blocks.

The result equals the scalar specification of ``tests/oracles.py``, one
long frame per (value, replication, scheme) with one collision draw at a
time, bit for bit.

Outputs are deterministic byte-for-byte: all randomness is seeded, rows are
assembled in sweep order, replications are reduced in index order, and
floats are printed with 9 significant digits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .config import ScenarioConfig, Sweep, collision_factors, scenario_to_dict
from .duty import DutyCycleResult, duty_cycle_from_surplus, lte_duty_cycle
from .errors import ConfigError
from .sim import (
    Scheme,
    collision_totals,
    generate_topology,
    link_budget,
    lte_sum_rate,
    scheme_lte_time,
)

__all__ = ["SweepRow", "run_sweep", "emit_csv", "emit_manifest"]

MANIFEST_SCHEMA_VERSION = 2

SCHEMES = tuple(Scheme)


@dataclass(frozen=True)
class SweepRow:
    """Aggregated results at one sweep value.

    Per scheme: mean/std over replications of the channel-summed WiFi
    throughput (bits per long frame) and LTE-U sum rate.  ``alpha_star`` and
    ``psi`` describe the ruin-fair duty cycle at this sweep value (they are
    replication-invariant).
    """

    variable: str
    value: float
    wifi_mean: dict[Scheme, float]
    wifi_std: dict[Scheme, float]
    lte_mean: dict[Scheme, float]
    lte_std: dict[Scheme, float]
    alpha_star: float
    psi: float


CSV_COLUMNS = tuple(
    ["sweep_variable", "sweep_value"]
    + [
        f"{scheme.value}_{metric}_{stat}"
        for scheme in Scheme
        for metric in ("wifi_throughput", "lte_sum_rate")
        for stat in ("mean", "std")
    ]
    + ["alpha_star", "psi"]
)

# One CSV row: the sweep variable, then every number with 9 significant digits.
_CSV_ROW = ",".join(["{}"] + ["{:.9g}"] * (len(CSV_COLUMNS) - 1))


def _ruin_duties(config: ScenarioConfig, sweep: Sweep) -> list[DutyCycleResult]:
    """The ruin-fair duty cycle at each sweep value.

    A ``psi`` sweep forces it per value; no other sweep variable moves the
    frame, ``mu`` or the policy, so one surplus computation serves them all.
    """
    if sweep.variable == "psi":
        return [
            DutyCycleResult(lte_duty_cycle(float(psi), config.frame, config.policy), float(psi))
            for psi in sweep.values
        ]
    duty = duty_cycle_from_surplus(config.frame, config.traffic.mu, policy=config.policy)
    return [duty] * len(sweep.values)


def _stats(cells, count: int, reps: int, channels: int) -> list[tuple[float, float]]:
    """Mean and sample standard deviation (0 for a single replication) over
    ``reps`` replications of each of ``count`` totals: the sums over
    channels, left to right in channel order, of ``cells(batch, rows,
    cols)``, the ``batch x rows x cols`` values of a slice of the totals on
    a block of replications and channels, in an array this function may
    overwrite.

    The work is done in the work blocks of ``_kernels.blocks``: batches of
    totals (a total being ``reps`` replications), so at most one row is
    held when a row is more than a block; then blocks of rows, and of
    columns when one row of the batch is more than a block, with the
    running total carried from one column block to the next.
    """
    stats = []
    for batch in _kernels.blocks(count, reps):
        totals = np.empty((batch.stop - batch.start, reps))
        for rows in _kernels.blocks(reps, len(totals) * channels):
            for cols in _kernels.blocks(channels, len(totals)):
                work = cells(batch, rows, cols)
                if cols.start:
                    # The first column starts the total itself, so a -0.0
                    # keeps its sign.
                    work[:, :, 0] += totals[:, rows]
                # Left to right, as np.sum (pairwise) and sum() (compensated
                # on Python >= 3.12) are not.
                totals[:, rows] = np.add.accumulate(work, axis=2, out=work)[:, :, -1]
        means = np.mean(totals, axis=1).tolist()
        stds = np.std(totals, axis=1, ddof=1).tolist() if reps > 1 else [0.0] * len(means)
        stats += zip(means, stds)
    return stats


def _wifi_stats(
    collisions: np.ndarray, windows: np.ndarray, phy_rate: float
) -> list[tuple[float, float]]:
    """Mean and std over replications of the channel-summed WiFi throughput
    of each collision key (first axis of the ``keys x reps x channels``
    ``collisions``) in each WiFi window of ``windows`` (seconds), key by
    key, in window order within a key."""
    keys, reps, channels = collisions.shape
    count = len(windows)

    def cells(batch, rows, cols):
        # The batch's (key, window) pairs.  Collision time beyond the window
        # is clipped: LTE-U holds the channel.  phy_rate * (window -
        # min(collisions, window)) >= +0.0.
        pairs = np.arange(batch.start, batch.stop)
        window = windows[pairs % count, None, None]
        work = collisions[pairs // count, rows, cols]
        np.minimum(work, window, out=work)
        np.subtract(window, work, out=work)
        work *= phy_rate
        return work

    return _stats(cells, keys * count, reps, channels)


def _lte_stats(rates: np.ndarray, channels: int, reps: int) -> list[tuple[float, float]]:
    """Mean and std over ``reps`` replications of each LTE-U sum rate of
    ``rates`` summed over ``channels`` channels (the same in each and in
    every replication): the channel sum of one replication stands for all."""

    def repeat(values):
        def cells(batch, rows, cols):
            shape = (batch.stop - batch.start, rows.stop - rows.start, cols.stop - cols.start)
            return np.full(shape, values[batch, None, None])

        return cells

    totals = np.array([total for total, _ in _stats(repeat(rates), len(rates), 1, channels)])
    return _stats(repeat(totals), len(totals), reps, 1)


def run_sweep(config: ScenarioConfig, sweep_name: str) -> list[SweepRow]:
    """Run one named sweep of the scenario and aggregate per sweep value."""
    if sweep_name not in config.sweeps:
        raise ConfigError(
            f"sweeps.{sweep_name}: not defined; available: {sorted(config.sweeps)}"
        )
    sweep = config.sweeps[sweep_name]
    reps = config.seeds.replications
    t_total = config.frame.total_duration
    radio = config.radio
    channels = config.topology.channels
    gains = link_budget(generate_topology(config.seeds.topology, config.topology), radio)

    duties = _ruin_duties(config, sweep)
    airtimes = [[scheme_lte_time(s, t_total, duty) for s in SCHEMES] for duty in duties]
    # Distinct airtimes in first-seen order, water-filled together.
    distinct = list(dict.fromkeys(a for times in airtimes for a in times))
    lte_rates = lte_sum_rate(distinct, radio.bandwidth, gains)

    # Each collision rate lambda_base * wst_per_wap (all a draw depends on)
    # is a key, accounted at every distinct airtime of the sweep, which are
    # its own airtimes: a psi sweep has one key, and the values of a
    # wst_count or lambda_base sweep (at most a key each) share one duty
    # cycle.
    keys = [lambda_base * wst for lambda_base, wst in collision_factors(config, sweep)]
    distinct_keys = list(dict.fromkeys(keys))
    # WiFi gets the window left by LTE-U.
    windows = np.array([t_total - a for a in distinct])
    # A work block of keys is drawn in one kernel run and accounted in one
    # pass; a key of more cells than a block is drawn on its own.
    wifi = {}  # (collision rate, LTE-U airtime) -> _wifi_stats
    for group in _kernels.blocks(len(distinct_keys), reps * channels):
        rates = distinct_keys[group]
        collisions = None  # free the last group's totals before drawing
        collisions = collision_totals(
            rates, config.traffic.mu, config.seeds.traffic, reps, channels, t_total
        )
        stats = _wifi_stats(collisions, windows, radio.wifi_phy_rate)
        wifi.update(zip(((rate, a) for rate in rates for a in distinct), stats))
    # The LTE-U stats come last, so that their replication-length rows never
    # sit beside a collision array.
    collisions = None
    lte = dict(zip(distinct, _lte_stats(lte_rates, channels, reps)))

    rows = []
    for value, duty, key, times in zip(sweep.values, duties, keys, airtimes):
        # (wifi_mean, wifi_std, lte_mean, lte_std), each in SCHEMES order.
        wifi_mean, wifi_std, lte_mean, lte_std = zip(*(wifi[key, a] + lte[a] for a in times))
        rows.append(
            SweepRow(
                variable=sweep.variable,
                value=float(value),
                wifi_mean=dict(zip(SCHEMES, wifi_mean)),
                wifi_std=dict(zip(SCHEMES, wifi_std)),
                lte_mean=dict(zip(SCHEMES, lte_mean)),
                lte_std=dict(zip(SCHEMES, lte_std)),
                alpha_star=duty.alpha_star,
                psi=duty.psi,
            )
        )
    return rows


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; on any failure the temporary file is
    removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit_csv(rows: list[SweepRow], path: str | Path) -> Path:
    """Write sweep rows as UTF-8 CSV with a fixed column schema, atomically."""
    if not rows:
        raise ValueError("emit_csv needs at least one row")
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        stats = (row.wifi_mean, row.wifi_std, row.lte_mean, row.lte_std)
        numbers = [stat[scheme] for scheme in SCHEMES for stat in stats]
        lines.append(_CSV_ROW.format(row.variable, row.value, *numbers, row.alpha_star, row.psi))
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def emit_manifest(config: ScenarioConfig, sweep_name: str, path: str | Path) -> Path:
    """Write the fully-resolved scenario plus provenance as JSON, atomically.

    The embedded ``scenario`` block (defaults expanded, seeds included) is
    itself a valid config file: re-running it regenerates the CSV byte for
    byte.
    """
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "sweep": sweep_name,
        "csv_columns": list(CSV_COLUMNS),
        "versions": {"ruinfair": __version__, "backend": _kernels.BACKEND},
        "scenario": scenario_to_dict(config),
    }
    path = Path(path)
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
