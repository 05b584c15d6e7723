"""Ruin-theoretic duty-cycle sharing between LTE-U and WiFi.

The pipeline: model leftover WiFi airtime as an insurance-style surplus
process, compute its finite-horizon ruin probability, grant LTE-U the duty
cycle ``(1 - psi) * T`` (optionally zeroed above a distress cutoff), split
that airtime across cellular users by water-filling, and compare the scheme
against pure-WiFi / equal-sharing / LTE-dominant baselines in a frame-level
simulator driven from a JSON scenario file.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .allocation import (
    AllocationResult,
    snr_utility,
    water_fill,
)
from .duty import (
    ChanceCheckReport,
    CollisionModel,
    DutyCyclePolicy,
    DutyCycleResult,
    FrameConfig,
    PolicyKind,
    duty_cycle_from_surplus,
    lte_duty_cycle,
    verify_chance_constraint,
)
from .errors import ConfigError, NumericalError
from .ruin import (
    RuinEstimate,
    SurplusParams,
    ruin_probability_exact,
    ruin_probability_mc,
)
from .sim import (
    RadioConfig,
    Scheme,
    TopologyConfig,
    TrafficConfig,
    generate_topology,
    link_budget,
    path_gain,
)

__all__ = [
    "BACKEND",
    "__version__",
    # ruin
    "SurplusParams",
    "RuinEstimate",
    "ruin_probability_exact",
    "ruin_probability_mc",
    # duty
    "FrameConfig",
    "PolicyKind",
    "DutyCyclePolicy",
    "CollisionModel",
    "ChanceCheckReport",
    "DutyCycleResult",
    "lte_duty_cycle",
    "duty_cycle_from_surplus",
    "verify_chance_constraint",
    # allocation
    "AllocationResult",
    "snr_utility",
    "water_fill",
    # sim
    "Scheme",
    "TopologyConfig",
    "TrafficConfig",
    "RadioConfig",
    "generate_topology",
    "path_gain",
    "link_budget",
    # errors
    "ConfigError",
    "NumericalError",
]
