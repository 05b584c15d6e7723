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

Each WiFi AP sits on its own channel, so a channel is all the simulator
keeps of an AP: the sweep needs only the channel count (``wap_count``) and
the stations per AP (``wst_per_wap``), never an object per AP.  A UE is
just its ``(x, y)`` position relative to the SBS at the origin.  Collision
draws are seeded per (replication, channel) and shared by all schemes, so
per-seed scheme comparisons are coupled: a scheme with a larger WiFi
window never shows less successful WiFi airtime on the same seed.

Successful WiFi airtime converts to throughput at a fixed nominal PHY rate
(default 54 Mb/s); collision time beyond the WiFi window is clipped, since
nothing can collide while LTE-U holds the channel.

A long frame is assembled from parts computed at the level where they vary:

* :func:`generate_topology`'s UE positions depend on the topology seed,
  the site counts and the SBS radius, not on the station counts, and
  :func:`link_budget` on those positions and the radio only;
* :func:`scheme_lte_time` depends on the scheme and the duty cycle, and
  :func:`lte_sum_rate` (water-filling, whose rate every channel gets) on
  the LTE-U airtime and the link budget, not on the seed: it takes a
  vector of airtimes and water-fills them together, one sort of the UEs
  per call;
* the collision totals depend on the replication, the station counts and
  the traffic, not on the scheme: :func:`collision_totals` takes a
  sequence of collision rates (one per distinct ``lambda_base x
  wst_per_wap`` of a sweep, with one duration rate, seed and frame),
  derives every (replication, channel) cell's stream once from the
  traffic seed, the same at every rate, and draws each stream at all the
  rates in one run of the lockstep compound-Poisson kernel, which reads
  every rate's Poisson count off one sequence of Knuth products per
  stream; each total is clipped at the frame length.  A single key is the
  same call with one rate.  The clip
  loses nothing, as collision time is clipped at the WiFi window anyway
  and no window is longer than the frame; a draw stops once its running
  total reaches the frame length.

``experiment.run_sweep`` computes each part once per distinct input and does
the frame accounting as array operations.  The UE drops and the collision
totals are drawn by :mod:`ruinfair._kernels`.  ``tests/oracles.py`` holds the
scalar specification of a long frame (one collision draw at a time, the
accounting channel by channel), and the tests pin the sweep to it bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import _kernels
from .allocation import snr_utility, water_fill_batch
from .duty import CollisionModel, DutyCycleResult
from .errors import ConfigError

__all__ = [
    "Scheme",
    "TopologyConfig",
    "TrafficConfig",
    "RadioConfig",
    "generate_topology",
    "path_gain",
    "link_budget",
    "scheme_lte_time",
    "lte_sum_rate",
    "collision_totals",
]


class Scheme(Enum):
    """The sharing schemes, in the order of the sweep CSV's columns."""

    PURE_WIFI = "pure_wifi"
    EQUAL_SHARING = "equal_sharing"
    LTE_DOMINANT = "lte_dominant"
    RUIN_FAIR = "ruin_fair"

    # Members are singletons, so identity hashing agrees with equality, and
    # it runs in C: the sweep's row dicts hash a scheme on every insert and
    # lookup, where Enum.__hash__ hashes the name in Python.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class TopologyConfig:
    """``wap_count`` WiFi APs, one per channel, with ``wst_per_wap`` stations
    each, and ``ue_count`` LTE-U UEs in the small cell's disk of radius
    ``sbs_radius``."""

    wap_count: int = 3
    wst_per_wap: int = 10
    ue_count: int = 15
    sbs_radius: float = 200.0

    def __post_init__(self):
        for name in ("wap_count", "wst_per_wap", "ue_count"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"{name}: must be an integer >= 1, got {value}")
        if not (math.isfinite(self.sbs_radius) and self.sbs_radius > 0.0):
            raise ConfigError(f"sbs_radius: must be > 0, got {self.sbs_radius}")

    @property
    def channels(self) -> int:
        return self.wap_count


@dataclass(frozen=True)
class TrafficConfig:
    """Collision traffic: ``lambda_base`` arrivals per long frame per WST, durations ~ exp(mu)."""

    lambda_base: float = 0.2
    mu: float = 450.0

    def __post_init__(self):
        if not (math.isfinite(self.lambda_base) and self.lambda_base > 0.0):
            raise ConfigError(f"lambda_base: must be > 0, got {self.lambda_base}")
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ConfigError(f"mu: must be > 0, got {self.mu}")


@dataclass(frozen=True)
class RadioConfig:
    """Downlink radio parameters for LTE-U rate evaluation plus the WiFi PHY rate.

    The path loss is a power law with a near-field clamp (:func:`path_gain`):
    gain ``ref_gain`` at ``ref_distance`` and closer, falling off with
    ``path_exponent`` beyond it.
    """

    bandwidth: float = 2e7
    tx_power: float = 0.5
    noise: float = 1e-13
    path_exponent: float = 3.5
    ref_distance: float = 1.0
    ref_gain: float = 1e-3
    wifi_phy_rate: float = 54e6

    def __post_init__(self):
        for name in (
            "bandwidth", "tx_power", "noise", "ref_distance", "ref_gain", "wifi_phy_rate"
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name}: must be > 0, got {value}")
        if not (math.isfinite(self.path_exponent) and self.path_exponent >= 0.0):
            raise ConfigError(f"path_exponent: must be >= 0, got {self.path_exponent}")
        # The largest SNR link_budget forms: every gain is at most ref_gain
        # (near-field clamp), and rounding is monotone.
        snr = self.tx_power * self.ref_gain / self.noise
        if not math.isfinite(snr):
            raise ConfigError(
                f"tx_power: tx_power x ref_gain / noise must be finite, got {snr}"
            )


def path_gain(distance: float, radio: RadioConfig) -> float:
    """Power-law gain ``ref_gain * (ref_distance / distance)^path_exponent``,
    with the path-loss fields of ``radio``.

    Distances inside the reference distance are clamped to it (near-field
    guard), so the gain never exceeds ``ref_gain``.
    """
    if not (math.isfinite(distance) and distance > 0.0):
        raise ValueError(f"distance must be > 0, got {distance}")
    clamped = max(distance, radio.ref_distance)
    return radio.ref_gain * (radio.ref_distance / clamped) ** radio.path_exponent


def generate_topology(seed: int, config: TopologyConfig) -> tuple[tuple[float, float], ...]:
    """Drop the UEs uniformly inside the SBS disk, deterministically.

    Returns one ``(x, y)`` pair per UE, relative to the SBS at the origin.
    The UEs take the uniforms of the stream seeded with ``seed`` that follow
    the first ``2 * wap_count``, which would place the WAPs, two a UE.  No
    output reads a WAP's position, so the stream starts past them instead
    of drawing them (``_kernels.uniforms``).  Station counts consume no
    randomness, so varying ``wst_per_wap`` leaves every position unchanged
    for a fixed seed.
    """
    draws = _kernels.uniforms(seed, 2 * config.wap_count, 2 * config.ue_count)

    def disk_point(u_radius: float, u_angle: float) -> tuple[float, float]:
        r = config.sbs_radius * math.sqrt(u_radius)
        theta = 2.0 * math.pi * u_angle
        return (r * math.cos(theta), r * math.sin(theta))

    return tuple(disk_point(u, v) for u, v in zip(draws, draws))


def link_budget(positions, radio: RadioConfig) -> np.ndarray:
    """Downlink SNR utility ``ln(1 + P * g / sigma^2)`` of every UE, in UE order.

    ``positions`` are the UEs' ``(x, y)`` pairs relative to the SBS, as
    :func:`generate_topology` returns them.  ``P`` is ``radio.tx_power``,
    ``sigma^2`` is ``radio.noise`` and ``g`` is :func:`path_gain` of the
    UE's distance to the SBS under ``radio``'s path loss.  Path loss is
    frequency-flat here, so one utility per UE holds on every channel.
    Every UE is eligible on every channel (the cell aggregates across all of
    them).  The distances, gains and utilities (:func:`snr_utility`) are
    scalar libm calls, UE by UE: NumPy's ``hypot``, ``power`` and ``log1p``
    differ from libm's in the last bit on some inputs.
    """
    gains = [
        path_gain(max(math.hypot(x, y), radio.ref_distance), radio) for x, y in positions
    ]
    return np.array([snr_utility(radio.tx_power, g, radio.noise) for g in gains])


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


def lte_sum_rate(lte_times, bandwidth: float, gammas: np.ndarray) -> np.ndarray:
    """Water-filled LTE-U sum rate on one channel at each airtime of the
    vector ``lte_times``, 0.0 at airtime 0.

    ``gammas`` is :func:`link_budget`'s utility per UE, the same on every
    channel, so every channel gets these rates.  The positive airtimes are
    water-filled together, one work block of ``_kernels.blocks`` (an
    airtime being ``len(gammas)`` shares) to a call, which bounds the shares
    held at a time.
    """
    lte_times = np.asarray(lte_times, dtype=float)
    rates = np.zeros(lte_times.shape)
    positive = np.flatnonzero(lte_times > 0.0)
    for block in _kernels.blocks(len(positive), len(gammas)):
        index = positive[block]
        rates[index] = water_fill_batch(lte_times[index], bandwidth, gammas).sum_rate
    return rates


def collision_totals(
    rates, mu: float, seed: int, reps: int, channels: int, t_total: float
) -> np.ndarray:
    """Collision time per collision rate of ``rates`` (first axis),
    replication ``0 .. reps-1`` (second) and channel ``0 .. channels-1``
    (third), clipped to the long frame ``t_total``.

    Replication r of the master ``seed`` (taken mod 2**64 by
    :mod:`ruinfair._kernels`) draws channel k from the substream seed
    ``substream_seed(substream_seed(seed, r), k)`` at every rate and for
    every scheme: entry ``[i, r, k]`` is a Poisson(``rates[i]``) count of
    exponential(``mu``) durations drawn from the stream of that seed,
    added left to right and clipped at ``t_total``.  Each rate is checked
    as the scalar draw checks it (``CollisionModel``).  No WiFi window is
    longer than the frame, so clipping at the window afterwards gives the
    bits of the unclipped total clipped at the window, and a draw stops at
    the frame: the durations beyond it are never drawn.  The (replication,
    channel) streams are taken in row-major order, one work block of
    ``_kernels.blocks`` (a stream being ``len(rates)`` cells) to a kernel
    call that draws them at every rate.  Each call derives its streams'
    substream states once from their flat indices (replication and
    channel), so no more than one block of states is held at a time.
    """
    lams = [CollisionModel(rate, mu).lambda_k for rate in rates]
    streams = reps * channels
    totals = np.empty((len(lams), streams))
    for block in _kernels.blocks(streams, len(lams)):
        index = np.arange(block.start, block.stop)
        rows = _kernels.substream_pairs(seed, index // channels)
        states = _kernels.substream_pairs(rows, index % channels)
        totals[:, block] = _kernels.compound_poisson_totals(states, lams, mu, t_total)
    return totals.reshape(len(lams), reps, channels)
