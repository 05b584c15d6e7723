"""Scenario configuration: JSON schema, defaults, and validation.

A scenario file is a single JSON object; every field is optional and falls
back to the defaults below, so ``{}`` is a valid scenario.  Validation
errors name the offending field path (e.g. ``traffic.lambda_base``).

    {
      "frame":    {"n_short": 10, "delta": 0.001, "r_reserved": 1},
      "topology": {"wap_count": 3, "wst_per_wap": 10, "ue_count": 15,
                   "sbs_radius": 200.0, "wap_radius": 100.0,
                   "channel_count": null},
      "traffic":  {"lambda_base": 0.2, "mu": 450.0},
      "radio":    {"bandwidth": 2e7, "tx_power": 0.5, "noise": 1e-13,
                   "path_exponent": 3.5, "ref_distance": 1.0,
                   "ref_gain": 1e-3, "wifi_phy_rate": 54e6},
      "policy":   {"kind": "linear", "psi_cutoff": 0.4},
      "seeds":    {"topology": 7, "traffic": 20260117, "replications": 200},
      "sweeps":   {"wst":    {"variable": "wst_count", "values": [5, 10, 15, 20]},
                   "psi":    {"variable": "psi", "values": [0.0, 0.1, ..., 1.0]},
                   "lambda": {"variable": "lambda_base", "values": [...]}}
    }

Sweep variables: ``psi`` forces the ruin probability directly (the policy is
applied to each value, no surplus computation); ``wst_count`` and
``lambda_base`` override the corresponding scalar and let the pipeline do
the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .duty import DutyCyclePolicy, FrameConfig, PolicyKind
from .errors import ConfigError
from .prng import _POISSON_LAM_MAX
from .sim import PathLossModel, RadioConfig, TopologyConfig, TrafficConfig

__all__ = ["Sweep", "SeedConfig", "ScenarioConfig", "load_scenario", "scenario_to_dict"]

_SWEEP_VARIABLES = ("psi", "wst_count", "lambda_base")

_DEFAULT_PSI_VALUES = tuple(round(0.1 * i, 10) for i in range(11))


@dataclass(frozen=True)
class Sweep:
    variable: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.variable not in _SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep.variable: must be one of {_SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if len(self.values) == 0:
            raise ConfigError("sweep.values: must be non-empty")
        if any(not math.isfinite(v) for v in self.values):
            raise ConfigError("sweep.values: entries must be finite numbers")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep.values: must be strictly increasing")
        if self.variable == "psi" and not all(0.0 <= v <= 1.0 for v in self.values):
            raise ConfigError("sweep.values: psi values must lie in [0, 1]")
        if self.variable == "wst_count" and not all(
            isinstance(v, int) and v >= 1 for v in self.values
        ):
            raise ConfigError("sweep.values: wst_count values must be integers >= 1")
        if self.variable == "lambda_base" and not all(v > 0.0 for v in self.values):
            raise ConfigError("sweep.values: lambda_base values must be > 0")


@dataclass(frozen=True)
class SeedConfig:
    topology: int = 7
    traffic: int = 20260117
    replications: int = 200

    def __post_init__(self):
        for name in ("topology", "traffic"):
            if not isinstance(getattr(self, name), int):
                raise ConfigError(f"seeds.{name}: must be an integer")
        if not (isinstance(self.replications, int) and self.replications >= 1):
            raise ConfigError(
                f"seeds.replications: must be an integer >= 1, got {self.replications}"
            )


def _default_sweeps() -> dict[str, Sweep]:
    return {
        "wst": Sweep(variable="wst_count", values=(5, 10, 15, 20)),
        "psi": Sweep(variable="psi", values=_DEFAULT_PSI_VALUES),
    }


@dataclass(frozen=True)
class ScenarioConfig:
    frame: FrameConfig = field(default_factory=FrameConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    policy: DutyCyclePolicy = field(default_factory=DutyCyclePolicy)
    seeds: SeedConfig = field(default_factory=SeedConfig)
    sweeps: dict[str, Sweep] = field(default_factory=_default_sweeps)

    def __post_init__(self):
        if not self.sweeps:
            raise ConfigError("sweeps: at least one sweep must be defined")


def _expect_mapping(raw: Any, path: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    return raw


def _take(section: dict, key: str, path: str, kind, default):
    """Pop ``key`` coerced to ``kind``; int is accepted where float is asked."""
    if key not in section:
        return default
    value = section.pop(key)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer, got a boolean")
    if value is not None and not isinstance(value, kind):
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _reject_unknown(section: dict, path: str):
    if section:
        raise ConfigError(f"{path}: unknown field(s) {sorted(section)}")


def _parse_policy(raw: Any) -> DutyCyclePolicy:
    section = dict(_expect_mapping(raw, "policy"))
    kind_name = _take(section, "kind", "policy", str, PolicyKind.LINEAR.value)
    try:
        kind = PolicyKind(kind_name)
    except ValueError:
        choices = [k.value for k in PolicyKind]
        raise ConfigError(f"policy.kind: must be one of {choices}, got {kind_name!r}")
    cutoff = _take(section, "psi_cutoff", "policy", float, 0.4)
    _reject_unknown(section, "policy")
    try:
        return DutyCyclePolicy(kind=kind, psi_cutoff=cutoff)
    except ValueError as exc:
        raise ConfigError(f"policy.psi_cutoff: {exc}")


def _parse_sweeps(raw: Any) -> dict[str, Sweep]:
    if raw is None:
        return _default_sweeps()
    mapping = _expect_mapping(raw, "sweeps")
    sweeps = {}
    for name, spec in mapping.items():
        section = dict(_expect_mapping(spec, f"sweeps.{name}"))
        variable = _take(section, "variable", f"sweeps.{name}", str, None)
        values = _take(section, "values", f"sweeps.{name}", list, None)
        _reject_unknown(section, f"sweeps.{name}")
        if variable is None or values is None:
            raise ConfigError(f"sweeps.{name}: needs both 'variable' and 'values'")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise ConfigError(f"sweeps.{name}.values: entries must be numbers")
        try:
            sweeps[name] = Sweep(variable=variable, values=tuple(values))
        except ConfigError as exc:
            raise ConfigError(f"sweeps.{name}.{exc}")
    if not sweeps:
        raise ConfigError("sweeps: at least one sweep must be defined")
    return sweeps


def _check_sweeps_runnable(
    frame: FrameConfig, topology: TopologyConfig, traffic: TrafficConfig,
    sweeps: dict[str, Sweep],
) -> None:
    """Cross-field limits every sweep value must meet for ``run`` to finish.

    Each channel's collision rate ``lambda_base * wst_count`` must stay
    within the Poisson sampler's cap, and the ``wst_count`` and
    ``lambda_base`` sweeps compute the ruin probability, which needs a
    positive premium (``r_reserved >= 1``).
    """
    for name, sweep in sweeps.items():
        if sweep.variable == "wst_count":
            pairs = [(traffic.lambda_base, int(v)) for v in sweep.values]
        elif sweep.variable == "lambda_base":
            pairs = [(float(v), topology.wst_per_wap) for v in sweep.values]
        else:
            pairs = [(traffic.lambda_base, topology.wst_per_wap)]
        for lambda_base, wst in pairs:
            if not lambda_base * wst <= _POISSON_LAM_MAX:
                raise ConfigError(
                    f"sweeps.{name}: lambda_base x wst_count = {lambda_base} x {wst} = "
                    f"{lambda_base * wst} exceeds the collision-rate cap {_POISSON_LAM_MAX}"
                )
        if sweep.variable != "psi" and frame.r_reserved < 1:
            raise ConfigError(
                f"frame.r_reserved: must be >= 1 for sweeps.{name} "
                f"({sweep.variable}), which computes the ruin probability; "
                f"got {frame.r_reserved}"
            )


def parse_scenario(data: Any) -> ScenarioConfig:
    """Build a fully-resolved :class:`ScenarioConfig` from parsed JSON."""
    root = dict(_expect_mapping(data, "scenario"))

    frame_raw = dict(_expect_mapping(root.pop("frame", None), "frame"))
    topo_raw = dict(_expect_mapping(root.pop("topology", None), "topology"))
    traffic_raw = dict(_expect_mapping(root.pop("traffic", None), "traffic"))
    radio_raw = dict(_expect_mapping(root.pop("radio", None), "radio"))
    policy_raw = root.pop("policy", None)
    seeds_raw = dict(_expect_mapping(root.pop("seeds", None), "seeds"))
    sweeps_raw = root.pop("sweeps", None)
    _reject_unknown(root, "scenario")

    try:
        frame = FrameConfig(
            n_short=_take(frame_raw, "n_short", "frame", int, 10),
            delta=_take(frame_raw, "delta", "frame", float, 0.001),
            r_reserved=_take(frame_raw, "r_reserved", "frame", int, 1),
        )
    except ValueError as exc:
        raise ConfigError(f"frame: {exc}")
    _reject_unknown(frame_raw, "frame")

    topology = TopologyConfig(
        wap_count=_take(topo_raw, "wap_count", "topology", int, 3),
        wst_per_wap=_take(topo_raw, "wst_per_wap", "topology", int, 10),
        ue_count=_take(topo_raw, "ue_count", "topology", int, 15),
        sbs_radius=_take(topo_raw, "sbs_radius", "topology", float, 200.0),
        wap_radius=_take(topo_raw, "wap_radius", "topology", float, 100.0),
        channel_count=_take(topo_raw, "channel_count", "topology", int, None),
    )
    _reject_unknown(topo_raw, "topology")

    traffic = TrafficConfig(
        lambda_base=_take(traffic_raw, "lambda_base", "traffic", float, 0.2),
        mu=_take(traffic_raw, "mu", "traffic", float, 450.0),
    )
    _reject_unknown(traffic_raw, "traffic")

    path = PathLossModel(
        exponent=_take(radio_raw, "path_exponent", "radio", float, 3.5),
        ref_distance=_take(radio_raw, "ref_distance", "radio", float, 1.0),
        ref_gain=_take(radio_raw, "ref_gain", "radio", float, 1e-3),
    )
    radio = RadioConfig(
        bandwidth=_take(radio_raw, "bandwidth", "radio", float, 2e7),
        tx_power=_take(radio_raw, "tx_power", "radio", float, 0.5),
        noise=_take(radio_raw, "noise", "radio", float, 1e-13),
        path=path,
        wifi_phy_rate=_take(radio_raw, "wifi_phy_rate", "radio", float, 54e6),
    )
    _reject_unknown(radio_raw, "radio")

    seeds = SeedConfig(
        topology=_take(seeds_raw, "topology", "seeds", int, 7),
        traffic=_take(seeds_raw, "traffic", "seeds", int, 20260117),
        replications=_take(seeds_raw, "replications", "seeds", int, 200),
    )
    _reject_unknown(seeds_raw, "seeds")

    sweeps = _parse_sweeps(sweeps_raw)
    _check_sweeps_runnable(frame, topology, traffic, sweeps)
    return ScenarioConfig(
        frame=frame,
        topology=topology,
        traffic=traffic,
        radio=radio,
        policy=_parse_policy(policy_raw),
        seeds=seeds,
        sweeps=sweeps,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return parse_scenario(data)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Fully-resolved scenario as plain JSON-serializable data.

    Round-trips: ``parse_scenario(scenario_to_dict(cfg)) == cfg``.
    """
    return {
        "frame": {
            "n_short": config.frame.n_short,
            "delta": config.frame.delta,
            "r_reserved": config.frame.r_reserved,
        },
        "topology": {
            "wap_count": config.topology.wap_count,
            "wst_per_wap": config.topology.wst_per_wap,
            "ue_count": config.topology.ue_count,
            "sbs_radius": config.topology.sbs_radius,
            "wap_radius": config.topology.wap_radius,
            "channel_count": config.topology.channel_count,
        },
        "traffic": {
            "lambda_base": config.traffic.lambda_base,
            "mu": config.traffic.mu,
        },
        "radio": {
            "bandwidth": config.radio.bandwidth,
            "tx_power": config.radio.tx_power,
            "noise": config.radio.noise,
            "path_exponent": config.radio.path.exponent,
            "ref_distance": config.radio.path.ref_distance,
            "ref_gain": config.radio.path.ref_gain,
            "wifi_phy_rate": config.radio.wifi_phy_rate,
        },
        "policy": {
            "kind": config.policy.kind.value,
            "psi_cutoff": config.policy.psi_cutoff,
        },
        "seeds": {
            "topology": config.seeds.topology,
            "traffic": config.seeds.traffic,
            "replications": config.seeds.replications,
        },
        "sweeps": {
            name: {"variable": sweep.variable, "values": list(sweep.values)}
            for name, sweep in config.sweeps.items()
        },
    }
