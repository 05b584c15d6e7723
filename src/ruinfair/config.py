"""Scenario configuration: JSON schema, defaults, and validation.

A scenario file is a single JSON object.  The :class:`ScenarioConfig`
dataclass tree is its schema: each section is a dataclass, each key one of
its fields, and every field is optional and falls back to its dataclass
default, so ``{}`` is a valid scenario.  Validation errors name the
offending field path (e.g. ``traffic.lambda_base``), or ``scenario`` for a
limit across sections.  The defaults, as ``scenario_to_dict`` writes them
without the sweeps:

    {
      "frame":    {"n_short": 10, "delta": 0.001, "r_reserved": 1},
      "topology": {"wap_count": 3, "wst_per_wap": 10, "ue_count": 15,
                   "sbs_radius": 200.0},
      "traffic":  {"lambda_base": 0.2, "mu": 450.0},
      "radio":    {"bandwidth": 2e7, "tx_power": 0.5, "noise": 1e-13,
                   "path_exponent": 3.5, "ref_distance": 1.0,
                   "ref_gain": 1e-3, "wifi_phy_rate": 54e6},
      "policy":   {"kind": "linear", "psi_cutoff": 0.4},
      "seeds":    {"topology": 7, "traffic": 20260117, "replications": 200}
    }

``sweeps`` maps a name to ``{"variable": ..., "values": [...]}``; the
default sweeps are ``wst`` (``wst_count`` over 5, 10, 15, 20) and ``psi``
(``psi`` over 0.0, 0.1, ..., 1.0).  A float field takes any JSON number
that fits a float, and an int field only integers.

Size budget: at each sweep value a run draws ``topology.ue_count`` UE
positions and ``seeds.replications x topology.wap_count`` collision cells
(one compound-Poisson total per replication and channel).  A scenario may
ask for at most 10**5 UE draws and 10**7 collision cells, so that every
scenario that validates can run; past either, validation fails naming the
fields.  The slowest corner, timed on a 2-CPU x86-64 host: 10**7 cells at
the collision-rate cap (``lambda_base x wst_count = 500``) take 140 to 230 s
per collision draw, one per ``wst_count`` or ``lambda_base`` value (a
``psi`` sweep draws once), and a run peaks at about 130 MB (10**6
replications x 10 WAPs; 115 MB at one replication x 10**7 WAPs).  At the
default rate a draw of 10**7 cells takes about 8 s.  The ruin probability of
a ``wst_count`` or ``lambda_base`` sweep sums one term per short slot, so
there the horizon ``frame.n_short`` may be at most 10**7 (about 8 s).

Sweep variables: ``psi`` forces the ruin probability directly (the policy is
applied to each value, no surplus computation); ``wst_count`` and
``lambda_base`` override the corresponding scalar and let the pipeline do
the rest (:func:`collision_factors` gives each value's pair of them).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

from .allocation import snr_utility
from .duty import DutyCyclePolicy, FrameConfig
from .errors import ConfigError
from ._kernels import _POISSON_LAM_MAX
from .sim import RadioConfig, TopologyConfig, TrafficConfig

__all__ = [
    "Sweep", "SeedConfig", "ScenarioConfig",
    "collision_factors", "load_scenario", "parse_scenario", "scenario_to_dict",
]

_SWEEP_VARIABLES = ("psi", "wst_count", "lambda_base")

_DEFAULT_PSI_VALUES = tuple(round(0.1 * i, 10) for i in range(11))

_FLOAT_MAX = sys.float_info.max

# The size budget of the module docstring, per sweep value.
_MAX_UE_DRAWS = 10**5
_MAX_COLLISION_CELLS = 10**7
_MAX_HORIZON = 10**7  # once per wst_count or lambda_base sweep

# Evaluating the annotations is most of a parse's time; the classes are fixed.
_field_types = functools.cache(get_type_hints)


@dataclass(frozen=True)
class Sweep:
    variable: str
    values: tuple[Union[int, float], ...]

    def __post_init__(self):
        if self.variable not in _SWEEP_VARIABLES:
            raise ConfigError(
                f"variable: must be one of {_SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if len(self.values) == 0:
            raise ConfigError("values: must be non-empty")
        # Not math.isfinite, which overflows on an int beyond the float range.
        if not all(abs(v) <= _FLOAT_MAX for v in self.values):
            raise ConfigError("values: entries must be finite numbers")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("values: must be strictly increasing")
        if self.variable == "psi" and not all(0.0 <= v <= 1.0 for v in self.values):
            raise ConfigError("values: psi values must lie in [0, 1]")
        if self.variable == "wst_count" and not all(
            isinstance(v, int) and v >= 1 for v in self.values
        ):
            raise ConfigError("values: wst_count values must be integers >= 1")
        if self.variable == "lambda_base" and not all(v > 0.0 for v in self.values):
            raise ConfigError("values: lambda_base values must be > 0")


@dataclass(frozen=True)
class SeedConfig:
    topology: int = 7
    traffic: int = 20260117
    replications: int = 200

    def __post_init__(self):
        if not (isinstance(self.replications, int) and self.replications >= 1):
            raise ConfigError(
                f"replications: must be an integer >= 1, got {self.replications}"
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


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _expected(path: str, kind: str, value: Any) -> ConfigError:
    return ConfigError(f"{path or 'scenario'}: expected {kind}, got {type(value).__name__}")


def _section(cls: type, raw: Any, path: str):
    """``cls`` built from the JSON object ``raw``; absent keys keep the dataclass defaults."""
    if not isinstance(raw, dict):
        raise _expected(path, "an object", raw)
    raw = dict(raw)
    value = _build(cls, raw, path)
    if raw:
        raise ConfigError(f"{path or 'scenario'}: unknown field(s) {sorted(raw)}")
    return value


def _build(cls: type, raw: dict, path: str):
    """``cls`` from the keys of ``raw`` that name its fields, popping them."""
    kinds = _field_types(cls)
    kwargs = {}
    for spec in fields(cls):
        key = spec.name
        if key in raw:
            kwargs[key] = _coerce(raw.pop(key), kinds[key], _at(path, key))
        elif spec.default is MISSING and spec.default_factory is MISSING:
            raise ConfigError(f"{_at(path, key)}: required")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # ConfigError too; a class names its fields, not its path
        raise ConfigError(_at(path, str(exc))) from None


def _coerce(value: Any, kind: Any, path: str):
    """``value`` as a field of type ``kind``, or a ConfigError naming ``path``."""
    if is_dataclass(kind):
        return _section(kind, value, path)
    origin, args = get_origin(kind), get_args(kind)
    if origin is dict:
        if not isinstance(value, dict):
            raise _expected(path, "an object", value)
        return {name: _coerce(item, args[1], _at(path, name)) for name, item in value.items()}
    if origin is tuple:
        if not isinstance(value, list):
            raise _expected(path, "a list", value)
        return tuple(_coerce(item, args[0], f"{path}[{i}]") for i, item in enumerate(value))
    if origin is Union:  # the first type that takes the value
        for arm in args:
            try:
                return _coerce(value, arm, path)
            except ConfigError:
                pass
        raise _expected(path, " or ".join(arm.__name__ for arm in args), value)
    if issubclass(kind, Enum):
        choices = [member.value for member in kind]
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {choices}, got {value!r}")
        return kind(value)
    if kind is float and type(value) is int and abs(value) <= _FLOAT_MAX:
        return float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _expected(path, kind.__name__, value)
    return value


def collision_factors(config: ScenarioConfig, sweep: Sweep) -> list[tuple[float, int]]:
    """``(lambda_base, wst_per_wap)`` at each value of ``sweep``: the value
    itself for the variable it overrides, the scenario's field otherwise
    (a ``psi`` sweep forces its value downstream and keeps both)."""
    lambda_base, wst = config.traffic.lambda_base, config.topology.wst_per_wap
    if sweep.variable == "wst_count":
        return [(lambda_base, int(value)) for value in sweep.values]
    if sweep.variable == "lambda_base":
        return [(float(value), wst) for value in sweep.values]
    return [(lambda_base, wst)] * len(sweep.values)


def _as_float(count: int) -> float:
    """``count`` as a factor of float products: ``inf`` beyond the float
    range, where ``count * x`` would raise instead of overflowing."""
    return count if count <= _FLOAT_MAX else math.inf


def _check_sweeps_runnable(config: ScenarioConfig) -> None:
    """Cross-field limits every sweep value must meet for ``run`` to finish.

    Each channel's collision rate ``lambda_base * wst_count`` must stay
    within the Poisson sampler's cap, and the ``wst_count`` and
    ``lambda_base`` sweeps compute the ruin probability, which needs a
    positive premium (``r_reserved >= 1``) and a horizon within the budget.
    """
    for name, sweep in config.sweeps.items():
        for lambda_base, wst in collision_factors(config, sweep):
            rate = lambda_base * _as_float(wst)
            if not rate <= _POISSON_LAM_MAX:
                raise ConfigError(
                    f"sweeps.{name}: lambda_base x wst_count = {lambda_base} x {wst} = "
                    f"{rate} exceeds the collision-rate cap {_POISSON_LAM_MAX}"
                )
        if sweep.variable != "psi" and config.frame.r_reserved < 1:
            raise ConfigError(
                f"frame.r_reserved: must be >= 1 for sweeps.{name} "
                f"({sweep.variable}), which computes the ruin probability; "
                f"got {config.frame.r_reserved}"
            )
        if sweep.variable != "psi" and config.frame.n_short > _MAX_HORIZON:
            raise ConfigError(
                f"frame.n_short: {config.frame.n_short} slots exceed the horizon budget "
                f"of {_MAX_HORIZON} for sweeps.{name} ({sweep.variable})"
            )


def _check_size(config: ScenarioConfig) -> None:
    """The size budget of the module docstring."""
    ues = config.topology.ue_count
    if ues > _MAX_UE_DRAWS:
        raise ConfigError(
            f"topology.ue_count: {ues} UE draws exceed the budget of {_MAX_UE_DRAWS}"
        )
    reps, waps = config.seeds.replications, config.topology.channels
    if reps * waps > _MAX_COLLISION_CELLS:
        raise ConfigError(
            f"seeds.replications x topology.wap_count: {reps} x {waps} = "
            f"{reps * waps} collision cells per sweep value exceed the budget of "
            f"{_MAX_COLLISION_CELLS}"
        )


def _check_cells_finite(config: ScenarioConfig) -> None:
    """Limits on the largest CSV cell ``run`` can write, so every cell is finite.

    Water-filling forms ``y_i x gamma_i`` up to ``gamma_max x bandwidth x T``:
    a share is at most the budget ``bandwidth x alpha*``, ``alpha* <= T``,
    and a utility is at most ``gamma_max = ln(1 + tx_power x ref_gain /
    noise)``.  So a channel's LTE-U sum rate ``alpha* x sum_i ln(1 + y_i
    gamma_i)`` is at most ``T x ue_count x ln(1 + gamma_max x bandwidth x
    T)``, and its WiFi throughput at most ``wifi_phy_rate x T``; a cell sums
    ``wap_count`` channels.  The mean and standard deviation over the
    replications add up as many values and squares of deviations, none
    larger than ``max(cell, 1)**2``; half the float range leaves room for
    the rounding.
    """
    radio, topology = config.radio, config.topology
    t_total = config.frame.total_duration  # finite: FrameConfig checks it
    gamma_max = snr_utility(radio.tx_power, radio.ref_gain, radio.noise)
    fill = gamma_max * (radio.bandwidth * t_total)
    if not fill <= _FLOAT_MAX / 2:
        raise ConfigError(
            f"scenario: water-filling forms gamma_max x bandwidth x T = {fill}, "
            "which must be finite"
        )
    channels = topology.channels  # the size budget keeps the counts small
    wifi = channels * (radio.wifi_phy_rate * t_total)
    lte = channels * t_total * (topology.ue_count * math.log1p(fill))
    replications = config.seeds.replications
    for column, cell in (("wifi_throughput", wifi), ("lte_sum_rate", lte)):
        bound = max(cell, 1.0)
        if not replications * bound * bound <= _FLOAT_MAX / 2:
            raise ConfigError(
                f"scenario: the {column} cells could reach {cell}, too large for "
                "their mean and standard deviation over the replications"
            )


def parse_scenario(data: Any) -> ScenarioConfig:
    """Build a fully-resolved :class:`ScenarioConfig` from parsed JSON."""
    config = _section(ScenarioConfig, data, "")
    _check_size(config)
    _check_sweeps_runnable(config)
    _check_cells_finite(config)
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return parse_scenario(data)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Fully-resolved scenario as plain JSON-serializable data.

    Round-trips: ``parse_scenario(scenario_to_dict(cfg)) == cfg``.
    """
    return _to_json(config)


def _to_json(value: Any) -> Any:
    if is_dataclass(value):
        return {spec.name: _to_json(getattr(value, spec.name)) for spec in fields(value)}
    if isinstance(value, dict):
        return {name: _to_json(item) for name, item in value.items()}
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Enum):
        return value.value
    return value
