"""Frame-level simulator: one LTE small cell sharing channels with WiFi APs.

One long frame per channel is partitioned into successful WiFi airtime,
WiFi collision time, and LTE-U airtime.  Collisions arrive as a Poisson
count per long frame with exponential durations; the count rate on a
channel scales linearly with the number of WiFi stations behind its AP
(``lambda_k = lambda_base * wst_count``), the simplest monotone coupling
(a modeling choice, not a measured law).

Four sharing schemes are compared:

* ``PURE_WIFI``: LTE-U stays off; WiFi contends for the whole frame.
* ``EQUAL_SHARING``: LTE-U takes a fixed half frame.
* ``LTE_DOMINANT``: LTE-U takes the whole frame.
* ``RUIN_FAIR``: LTE-U takes the duty cycle granted by the ruin policy.

Collision draws are seeded per (run seed, channel) and shared by all
schemes, so per-seed scheme comparisons are coupled: a scheme with a larger
WiFi window never shows less successful WiFi airtime on the same seed.

Successful WiFi airtime converts to throughput at a fixed nominal PHY rate
(default 54 Mb/s); collision time beyond the WiFi window is clipped, since
nothing can collide while LTE-U holds the channel.

A long frame is assembled from parts computed at the level where they vary:

* :func:`link_budget` depends on the topology and radio only;
* :func:`scheme_lte_time` and :func:`lte_sum_rate` (one water-filling,
  whose rate every channel gets) depend on the scheme and the duty cycle,
  not on the seed;
* the collision totals depend on the seed (and the station counts), not
  on the scheme: :func:`collision_totals` draws them for many seeds at once
  with the lockstep compound-Poisson kernel, bit-identical to one
  :func:`sample_collisions` call per (seed, channel) clipped at the frame
  length.  The clip loses nothing, as collision time is clipped at the
  WiFi window anyway and no window is longer than the frame; a draw stops
  once its running total reaches the frame length.

:func:`simulate_long_frame` is the scalar specification of a long frame: it
computes all of them for one (scheme, seed), drawing the collisions with
:func:`sample_collisions`, and does the frame accounting channel by channel.
``experiment.run_sweep`` computes each part once per level and does the
same accounting as array operations, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ._kernels._lockstep import compound_poisson_totals, substream_states
from .allocation import water_fill
from .duty import (
    CollisionModel,
    DutyCyclePolicy,
    DutyCycleResult,
    FrameConfig,
    duty_cycle_from_surplus,
)
from .errors import ConfigError
from .prng import SplitMix64, substream_seed

__all__ = [
    "Scheme",
    "TopologyConfig",
    "WapSite",
    "UeSite",
    "Topology",
    "PathLossModel",
    "TrafficConfig",
    "RadioConfig",
    "CollisionDraw",
    "FrameOutcome",
    "generate_topology",
    "path_gain",
    "sample_collisions",
    "link_budget",
    "scheme_lte_time",
    "lte_sum_rate",
    "collision_totals",
    "simulate_long_frame",
]


class Scheme(Enum):
    PURE_WIFI = "pure_wifi"
    EQUAL_SHARING = "equal_sharing"
    LTE_DOMINANT = "lte_dominant"
    RUIN_FAIR = "ruin_fair"


@dataclass(frozen=True)
class TopologyConfig:
    wap_count: int = 3
    wst_per_wap: int = 10
    ue_count: int = 15
    sbs_radius: float = 200.0
    wap_radius: float = 100.0
    channel_count: Optional[int] = None

    def __post_init__(self):
        for name in ("wap_count", "wst_per_wap", "ue_count"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"topology.{name}: must be an integer >= 1, got {value}")
        for name in ("sbs_radius", "wap_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"topology.{name}: must be > 0, got {value}")
        channels = self.wap_count if self.channel_count is None else self.channel_count
        if not (isinstance(channels, int) and channels >= 1):
            raise ConfigError(
                f"topology.channel_count: must be an integer >= 1, got {channels}"
            )
        if self.wap_count > channels:
            raise ConfigError(
                f"topology.wap_count: {self.wap_count} WAPs need non-overlapping "
                f"channels but only {channels} are available"
            )

    @property
    def channels(self) -> int:
        return self.wap_count if self.channel_count is None else self.channel_count


@dataclass(frozen=True)
class WapSite:
    position: tuple[float, float]
    radius: float
    wst_count: int
    channel: int


@dataclass(frozen=True)
class UeSite:
    position: tuple[float, float]


@dataclass(frozen=True)
class Topology:
    sbs_position: tuple[float, float]
    sbs_radius: float
    waps: tuple[WapSite, ...]
    ues: tuple[UeSite, ...]


@dataclass(frozen=True)
class PathLossModel:
    """Power-law path gain with a near-field clamp at the reference distance."""

    exponent: float = 3.5
    ref_distance: float = 1.0
    ref_gain: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent >= 0.0):
            raise ConfigError(f"path.exponent: must be >= 0, got {self.exponent}")
        if not (math.isfinite(self.ref_distance) and self.ref_distance > 0.0):
            raise ConfigError(f"path.ref_distance: must be > 0, got {self.ref_distance}")
        if not (math.isfinite(self.ref_gain) and self.ref_gain > 0.0):
            raise ConfigError(f"path.ref_gain: must be > 0, got {self.ref_gain}")


@dataclass(frozen=True)
class TrafficConfig:
    """Collision traffic: ``lambda_base`` arrivals per long frame per WST, durations ~ exp(mu)."""

    lambda_base: float = 0.2
    mu: float = 450.0

    def __post_init__(self):
        if not (math.isfinite(self.lambda_base) and self.lambda_base > 0.0):
            raise ConfigError(f"traffic.lambda_base: must be > 0, got {self.lambda_base}")
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ConfigError(f"traffic.mu: must be > 0, got {self.mu}")


@dataclass(frozen=True)
class RadioConfig:
    """Downlink radio parameters for LTE-U rate evaluation plus the WiFi PHY rate."""

    bandwidth: float = 2e7
    tx_power: float = 0.5
    noise: float = 1e-13
    path: PathLossModel = field(default_factory=PathLossModel)
    wifi_phy_rate: float = 54e6

    def __post_init__(self):
        for name in ("bandwidth", "tx_power", "noise", "wifi_phy_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"radio.{name}: must be > 0, got {value}")


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


def path_gain(distance: float, model: PathLossModel) -> float:
    """Power-law gain ``ref_gain * (ref_distance / distance)^exponent``.

    Distances inside the reference distance are clamped to it (near-field
    guard), so the gain never exceeds ``ref_gain``.
    """
    if not (math.isfinite(distance) and distance > 0.0):
        raise ValueError(f"distance must be > 0, got {distance}")
    clamped = max(distance, model.ref_distance)
    return model.ref_gain * (model.ref_distance / clamped) ** model.exponent


def generate_topology(seed: int, config: TopologyConfig) -> Topology:
    """Drop WAPs and UEs uniformly inside the SBS disk, deterministically.

    WAPs get distinct channels 0..wap_count-1.  Station counts consume no
    randomness, so varying ``wst_per_wap`` leaves every position unchanged
    for a fixed seed.
    """
    rng = SplitMix64(seed)

    def disk_point(radius: float) -> tuple[float, float]:
        r = radius * math.sqrt(rng.uniform())
        theta = 2.0 * math.pi * rng.uniform()
        return (r * math.cos(theta), r * math.sin(theta))

    waps = tuple(
        WapSite(
            position=disk_point(config.sbs_radius),
            radius=config.wap_radius,
            wst_count=config.wst_per_wap,
            channel=k,
        )
        for k in range(config.wap_count)
    )
    ues = tuple(UeSite(position=disk_point(config.sbs_radius)) for _ in range(config.ue_count))
    return Topology(
        sbs_position=(0.0, 0.0),
        sbs_radius=config.sbs_radius,
        waps=waps,
        ues=ues,
    )


def sample_collisions(lambda_k: float, mu: float, seed: int) -> CollisionDraw:
    """Draw one long frame's collisions: Poisson(lambda_k) count, exp(mu) durations."""
    CollisionModel(lambda_k, mu)  # checks both rates
    rng = SplitMix64(seed)
    count = rng.poisson(lambda_k)
    durations = tuple(rng.exponential(mu) for _ in range(count))
    return CollisionDraw(count=count, durations=durations)


def link_budget(topology: Topology, radio: RadioConfig) -> np.ndarray:
    """Downlink SNR utility ``ln(1 + P * g / sigma^2)`` of every UE, in UE order.

    Path loss is frequency-flat here, so one utility per UE holds on every
    channel.  Every UE is eligible on every channel (the cell aggregates
    across all of them).
    """
    gains = []
    for ue in topology.ues:
        dx = ue.position[0] - topology.sbs_position[0]
        dy = ue.position[1] - topology.sbs_position[1]
        distance = max(math.hypot(dx, dy), radio.path.ref_distance)
        gains.append(path_gain(distance, radio.path))
    return np.log1p(radio.tx_power * np.asarray(gains) / radio.noise)


def scheme_lte_time(
    scheme: Scheme, t_total: float, ruin_duty: Optional[DutyCycleResult] = None
) -> float:
    """LTE-U airtime (seconds) of one long frame of length ``t_total``.

    ``ruin_duty`` is the ruin policy's grant; only ``RUIN_FAIR`` reads it,
    and it must be given for that scheme.
    """
    if scheme is Scheme.PURE_WIFI:
        return 0.0
    if scheme is Scheme.EQUAL_SHARING:
        return 0.5 * t_total
    if scheme is Scheme.LTE_DOMINANT:
        return t_total
    return ruin_duty.alpha_star


def lte_sum_rate(lte_time: float, bandwidth: float, gammas: np.ndarray) -> float:
    """Water-filled LTE-U sum rate on one channel.

    ``gammas`` is :func:`link_budget`'s utility per UE, the same on every
    channel, so every channel gets this rate.
    """
    return water_fill(lte_time, bandwidth, gammas).sum_rate if lte_time > 0.0 else 0.0


def collision_totals(waps, traffic: TrafficConfig, seeds, t_total: float) -> np.ndarray:
    """Collision time per seed (rows) and WAP channel (columns, in the order
    given), clipped to the long frame ``t_total``.

    Channel k of seed s draws from the substream seed (s, k), whatever the
    scheme: entry ``[r, j]`` equals ``min(sample_collisions(lambda_k, mu,
    substream_seed(seeds[r], waps[j].channel)).total, t_total)`` bit for
    bit.  No WiFi window is longer than the frame, so clipping at the window
    afterwards gives the bits of the unclipped total clipped at the window,
    and a draw stops at the frame: the durations beyond it are never drawn.
    All seeds of a channel are drawn in one lockstep kernel call.
    """
    states = substream_states(seeds, [w.channel for w in waps])
    totals = np.empty(states.shape)
    for j, wap in enumerate(waps):
        model = CollisionModel(traffic.lambda_base * wap.wst_count, traffic.mu)
        totals[:, j] = compound_poisson_totals(
            states[:, j], model.lambda_k, model.mu, t_total
        )
    return totals


def simulate_long_frame(
    topology: Topology,
    frame: FrameConfig,
    scheme: Scheme,
    traffic: TrafficConfig,
    policy: DutyCyclePolicy,
    radio: RadioConfig,
    seed: int,
    ruin_duty: Optional[DutyCycleResult] = None,
) -> list[FrameOutcome]:
    """Simulate one long frame on every channel under the given scheme.

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
    lte_rate = lte_sum_rate(lte_time, radio.bandwidth, link_budget(topology, radio))

    # WiFi gets the window left by LTE-U; collision time beyond that window
    # is clipped, and the rest of the window is successful WiFi airtime.
    wifi_window = t_total - lte_time
    outcomes = []
    for wap in sorted(topology.waps, key=lambda w: w.channel):
        collision_total = sample_collisions(
            traffic.lambda_base * wap.wst_count, traffic.mu, substream_seed(seed, wap.channel)
        ).total
        collision_time = min(collision_total, wifi_window)
        wifi_success = max(0.0, wifi_window - collision_time)
        idle = max(0.0, t_total - wifi_success - collision_time - lte_time)
        outcomes.append(
            FrameOutcome(
                scheme=scheme,
                channel=wap.channel,
                wifi_success_time=wifi_success,
                collision_time=collision_time,
                lte_time=lte_time,
                idle_time=idle,
                wifi_throughput=radio.wifi_phy_rate * wifi_success,
                lte_sum_rate=lte_rate,
            )
        )
    return outcomes
