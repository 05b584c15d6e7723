"""Sweep runner: seeded replications, aggregation, CSV and manifest output.

For each sweep value the runner simulates ``replications`` long frames per
scheme, sums outcomes over channels within a replication (network totals),
and reports mean and sample standard deviation over replications.  The same
replication seeds are reused at every sweep value (common random numbers),
so monotone per-seed effects survive aggregation untouched.

Each quantity is computed once, at the level where it varies:

* per sweep value: topology, ruin-fair duty cycle, link budget;
* per value, for all replications at once: the collision total of each
  (replication, channel), drawn by the lockstep compound-Poisson kernel
  (``sim.collision_totals``) and shared by all four schemes.  Each is
  clipped at the frame length ``T``, so its draw stops there; every
  scheme's WiFi window is ``T - lte_time <= T``, so clipping it again at
  the window gives ``min(total, window)`` bit for bit;
* per (value, scheme): LTE-U airtime, the water-filled sum rate
  (``sim.lte_sum_rate``, one water-filling for every channel, none of it
  depending on the replication seed), and the frame accounting as array
  operations on the replications x channels collision array, summed over
  channels left to right in channel order.

The result equals calling ``sim.simulate_long_frame`` (whose collision
draws are the scalar ``sim.sample_collisions``) for every (replication,
scheme) bit for bit.

Outputs are deterministic byte-for-byte: all randomness is seeded, rows are
assembled in sweep order, replications are reduced in index order, and
floats are printed with 9 significant digits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._kernels import BACKEND
from .config import ScenarioConfig, Sweep, scenario_to_dict
from .duty import DutyCycleResult, duty_cycle_from_surplus, lte_duty_cycle
from .errors import ConfigError
from .prng import substream_seed
from .sim import (
    Scheme,
    collision_totals,
    generate_topology,
    link_budget,
    lte_sum_rate,
    scheme_lte_time,
)

__all__ = ["SweepRow", "run_sweep", "emit_csv", "emit_manifest"]

MANIFEST_SCHEMA_VERSION = 1

_SCHEME_ORDER = (
    Scheme.PURE_WIFI,
    Scheme.EQUAL_SHARING,
    Scheme.LTE_DOMINANT,
    Scheme.RUIN_FAIR,
)


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
        for scheme in _SCHEME_ORDER
        for metric in ("wifi_throughput", "lte_sum_rate")
        for stat in ("mean", "std")
    ]
    + ["alpha_star", "psi"]
)


def _scenario_at(config: ScenarioConfig, sweep: Sweep, value) -> ScenarioConfig:
    if sweep.variable == "wst_count":
        return replace(config, topology=replace(config.topology, wst_per_wap=int(value)))
    if sweep.variable == "lambda_base":
        return replace(config, traffic=replace(config.traffic, lambda_base=float(value)))
    return config  # psi: forced downstream, scenario itself unchanged


def _ruin_duty_at(config: ScenarioConfig, sweep: Sweep, value) -> DutyCycleResult:
    if sweep.variable == "psi":
        psi = float(value)
        return DutyCycleResult(lte_duty_cycle(psi, config.frame, config.policy), psi)
    return duty_cycle_from_surplus(config.frame, config.traffic.mu, policy=config.policy)


def run_sweep(config: ScenarioConfig, sweep_name: str) -> list[SweepRow]:
    """Run one named sweep of the scenario and aggregate per sweep value."""
    if sweep_name not in config.sweeps:
        raise ConfigError(
            f"sweeps.{sweep_name}: not defined; available: {sorted(config.sweeps)}"
        )
    sweep = config.sweeps[sweep_name]
    reps = config.seeds.replications
    rep_seeds = [substream_seed(config.seeds.traffic, r) for r in range(reps)]

    rows = []
    for value in sweep.values:
        scenario = _scenario_at(config, sweep, value)
        topology = generate_topology(scenario.seeds.topology, scenario.topology)
        duty = _ruin_duty_at(scenario, sweep, value)
        waps = sorted(topology.waps, key=lambda w: w.channel)
        gains = link_budget(topology, scenario.radio)
        t_total = scenario.frame.total_duration
        collisions = collision_totals(waps, scenario.traffic, rep_seeds, t_total)

        wifi, lte = {}, {}
        for scheme in _SCHEME_ORDER:
            lte_time = scheme_lte_time(scheme, t_total, duty)
            # WiFi gets the window left by LTE-U; collision time beyond it is
            # clipped, as in sim.simulate_long_frame.
            window = t_total - lte_time
            success = np.maximum(0.0, window - np.minimum(collisions, window))
            throughput = scenario.radio.wifi_phy_rate * success
            rate = lte_sum_rate(lte_time, scenario.radio.bandwidth, gains)
            # Left to right: sum() compensates on Python >= 3.12.
            wifi[scheme] = np.zeros(reps)
            lte_total = 0.0
            for column in throughput.T:
                wifi[scheme] += column
                lte_total += rate
            lte[scheme] = np.full(reps, lte_total)

        def _std(samples: np.ndarray) -> float:
            return float(np.std(samples, ddof=1)) if reps > 1 else 0.0

        rows.append(
            SweepRow(
                variable=sweep.variable,
                value=float(value),
                wifi_mean={s: float(np.mean(wifi[s])) for s in _SCHEME_ORDER},
                wifi_std={s: _std(wifi[s]) for s in _SCHEME_ORDER},
                lte_mean={s: float(np.mean(lte[s])) for s in _SCHEME_ORDER},
                lte_std={s: _std(lte[s]) for s in _SCHEME_ORDER},
                alpha_star=duty.alpha_star,
                psi=duty.psi,
            )
        )
    return rows


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; on any failure the temporary file is
    removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
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
        cells = [row.variable, _fmt(row.value)]
        for scheme in _SCHEME_ORDER:
            cells += [
                _fmt(row.wifi_mean[scheme]),
                _fmt(row.wifi_std[scheme]),
                _fmt(row.lte_mean[scheme]),
                _fmt(row.lte_std[scheme]),
            ]
        cells += [_fmt(row.alpha_star), _fmt(row.psi)]
        lines.append(",".join(cells))
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def emit_manifest(
    config: ScenarioConfig,
    sweep_name: str,
    path: str | Path,
    artifact_versions: Optional[dict[str, str]] = None,
) -> Path:
    """Write the fully-resolved scenario plus provenance as JSON, atomically.

    The embedded ``scenario`` block (defaults expanded, seeds included) is
    itself a valid config file: re-running it regenerates the CSV byte for
    byte.
    """
    versions = {"ruinfair": __version__, "backend": BACKEND}
    if artifact_versions:
        versions.update(artifact_versions)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "sweep": sweep_name,
        "csv_columns": list(CSV_COLUMNS),
        "versions": versions,
        "scenario": scenario_to_dict(config),
    }
    path = Path(path)
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
