"""Frame-level simulator: topology, collisions, and scheme accounting."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ruinfair import (
    ConfigError,
    DutyCyclePolicy,
    FrameConfig,
    PathLossModel,
    PolicyKind,
    RadioConfig,
    Scheme,
    TopologyConfig,
    TrafficConfig,
    duty_cycle_from_surplus,
    generate_topology,
    link_budget,
    path_gain,
    sample_collisions,
    simulate_long_frame,
    snr_utility,
)
from ruinfair._kernels import _lockstep
from ruinfair.prng import substream_seed
from ruinfair.sim import WapSite, collision_totals

LINEAR = DutyCyclePolicy(kind=PolicyKind.LINEAR)
FRAME = FrameConfig(n_short=10, delta=0.001, r_reserved=1)
TRAFFIC = TrafficConfig(lambda_base=0.2, mu=450.0)
RADIO = RadioConfig()


def small_topology(seed=3, **overrides):
    config = TopologyConfig(**{"ue_count": 6, **overrides})
    return generate_topology(seed, config)


class TestGenerateTopology:
    def test_three_waps_get_distinct_channels(self):
        topology = small_topology()
        assert {w.channel for w in topology.waps} == {0, 1, 2}

    def test_deterministic_for_fixed_seed(self):
        assert small_topology(seed=9) == small_topology(seed=9)
        assert small_topology(seed=9) != small_topology(seed=10)

    def test_all_nodes_inside_sbs_disk(self):
        topology = small_topology(seed=1, ue_count=50)
        for node in list(topology.waps) + list(topology.ues):
            assert math.hypot(*node.position) <= topology.sbs_radius + 1e-9

    def test_station_count_does_not_move_positions(self):
        sparse = small_topology(seed=4, wst_per_wap=5)
        dense = small_topology(seed=4, wst_per_wap=20)
        assert [w.position for w in sparse.waps] == [w.position for w in dense.waps]
        assert [u.position for u in sparse.ues] == [u.position for u in dense.ues]

    def test_rejects_zero_ues(self):
        with pytest.raises(ConfigError):
            TopologyConfig(ue_count=0)

    def test_rejects_more_waps_than_channels(self):
        with pytest.raises(ConfigError):
            TopologyConfig(wap_count=4, channel_count=3)


class TestPathGain:
    MODEL = PathLossModel(exponent=3.5, ref_distance=1.0, ref_gain=1e-3)

    def test_reference_point(self):
        assert path_gain(1.0, self.MODEL) == 1e-3

    def test_power_law_decay(self):
        assert path_gain(2.0, self.MODEL) == pytest.approx(1e-3 * 2.0 ** -3.5, rel=1e-12)

    def test_near_field_clamp(self):
        assert path_gain(0.1, self.MODEL) == 1e-3

    @pytest.mark.parametrize("distance", [0.0, -1.0, math.inf])
    def test_rejects_degenerate_distance(self, distance):
        with pytest.raises(ValueError):
            path_gain(distance, self.MODEL)


class TestSampleCollisions:
    def test_vanishing_rate_yields_empty_draw(self):
        for seed in range(50):
            draw = sample_collisions(1e-9, 500.0, seed)
            assert draw.count == 0
            assert draw.total == 0.0

    def test_count_matches_durations(self):
        for seed in range(200):
            draw = sample_collisions(2.0, 500.0, seed)
            assert draw.count == len(draw.durations)
            total = 0.0  # left to right: sum() compensates on Python >= 3.12
            for duration in draw.durations:
                total += duration
            assert draw.total == total
            assert all(d >= 0.0 for d in draw.durations)

    def test_poisson_mean_self_check(self):
        n = 100_000
        counts = [sample_collisions(2.0, 500.0, seed).count for seed in range(n)]
        mean = sum(counts) / n
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / n)

    def test_exponential_duration_mean_self_check(self):
        total = 0.0
        count = 0
        for seed in range(100_000):
            draw = sample_collisions(1.0, 4.0, seed)
            if draw.count >= 1:
                total += draw.durations[0]
                count += 1
        mean = total / count
        assert abs(mean - 0.25) <= 3.0 * (0.25 / math.sqrt(count))

    def test_deterministic(self):
        assert sample_collisions(1.0, 500.0, 7) == sample_collisions(1.0, 500.0, 7)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            sample_collisions(0.0, 500.0, 0)
        with pytest.raises(ValueError):
            sample_collisions(1.0, 0.0, 0)
        with pytest.raises(ValueError):
            sample_collisions(600.0, 500.0, 0)


class TestCollisionTotals:
    WAPS = tuple(
        WapSite(position=(0.0, 0.0), radius=50.0, wst_count=wst, channel=channel)
        for wst, channel in ((3, 0), (40, 2), (1, 5))
    )

    def test_equals_one_scalar_draw_per_seed_and_channel(self):
        traffic = TrafficConfig(lambda_base=2.5, mu=450.0)
        seeds = [substream_seed(99, r) for r in range(12)] + [-3, 2**64 - 1]
        totals = collision_totals(self.WAPS, traffic, seeds, math.inf)
        assert totals.shape == (len(seeds), len(self.WAPS))
        expected = [
            [
                sample_collisions(
                    traffic.lambda_base * w.wst_count, traffic.mu, substream_seed(s, w.channel)
                ).total
                for w in self.WAPS
            ]
            for s in seeds
        ]
        assert totals.tolist() == expected

    @pytest.mark.parametrize("lambda_base,mu", [(20.0, 450.0), (0.2, 0.0)])
    def test_rejects_what_sample_collisions_rejects(self, lambda_base, mu):
        """A rate of 800 on the second channel, or a zero duration rate."""
        # TrafficConfig itself rejects mu = 0; the function reads two fields.
        traffic = SimpleNamespace(lambda_base=lambda_base, mu=mu)
        with pytest.raises(ValueError) as scalar:
            sample_collisions(lambda_base * self.WAPS[1].wst_count, mu, 0)
        with pytest.raises(ValueError) as batched:
            collision_totals(self.WAPS, traffic, [0], 0.01)
        assert str(batched.value) == str(scalar.value)

    HORIZONS = [0.0, 1e-6, 0.01, 1.0, math.inf]

    @pytest.mark.parametrize("block", [None, 1, 64])
    @pytest.mark.parametrize("lam", [1e-9, 2.0, 100.0, 500.0])
    def test_clipped_at_the_frame_length(self, monkeypatch, block, lam):
        """Entry [r, j] is the scalar draw's total clipped to the frame, bit
        for bit, also when the early stop falls across narrow blocks.

        ``lam = 0`` is rejected here as by ``sample_collisions``; the kernel
        test ``test_capped_totals_are_clipped_uncapped_ones`` covers it.
        """
        if block is not None:
            monkeypatch.setattr(_lockstep, "_BLOCK", block)
        traffic = TrafficConfig(lambda_base=lam, mu=450.0)
        waps = tuple(replace(w, wst_count=1) for w in self.WAPS[0::2])
        seeds = [substream_seed(5, r) for r in range(12)]
        scalar = [
            [sample_collisions(lam, 450.0, substream_seed(s, w.channel)).total for w in waps]
            for s in seeds
        ]
        for horizon in self.HORIZONS:
            totals = collision_totals(waps, traffic, seeds, horizon)
            assert totals.tolist() == [[min(t, horizon) for t in row] for row in scalar]

    def test_draws_stop_at_the_frame_length(self, monkeypatch):
        """At 500 collisions of mean 2.2 ms, a 10 ms frame takes under 1/20 of
        the logarithms of the whole sum."""
        logs = [0]
        libm_log = _lockstep._libm_log

        def counted(x):
            logs[0] += len(x)
            return libm_log(x)

        monkeypatch.setattr(_lockstep, "_libm_log", counted)
        waps = (replace(self.WAPS[0], wst_count=1),)
        traffic = TrafficConfig(lambda_base=500.0, mu=450.0)
        seeds = [substream_seed(3, r) for r in range(20)]
        whole = collision_totals(waps, traffic, seeds, math.inf)
        uncapped, logs[0] = logs[0], 0
        clipped = collision_totals(waps, traffic, seeds, 0.01)
        assert clipped.tolist() == np.minimum(whole, 0.01).tolist()
        assert 0 < logs[0] * 20 < uncapped


class TestLinkBudget:
    def test_one_utility_per_ue(self):
        # frequency-flat path loss: one utility serves every channel
        gammas = link_budget(small_topology(seed=6), RADIO)
        assert gammas.shape == (6,)

    def test_matches_scalar_utility_per_ue(self):
        topology = small_topology(seed=6)
        gammas = link_budget(topology, RADIO)
        for i, ue in enumerate(topology.ues):
            distance = max(math.hypot(*ue.position), RADIO.path.ref_distance)
            expected = snr_utility(
                RADIO.tx_power, path_gain(distance, RADIO.path), RADIO.noise
            )
            assert gammas[i] == pytest.approx(expected, rel=1e-12)


def run_scheme(scheme, seed=11, topology=None, policy=LINEAR, traffic=TRAFFIC):
    topology = topology or small_topology()
    return simulate_long_frame(topology, FRAME, scheme, traffic, policy, RADIO, seed)


class TestSimulateLongFrame:
    def test_time_partition_is_exact(self):
        for scheme in Scheme:
            for outcome in run_scheme(scheme):
                parts = (
                    outcome.wifi_success_time
                    + outcome.collision_time
                    + outcome.lte_time
                    + outcome.idle_time
                )
                assert parts == pytest.approx(FRAME.total_duration, abs=1e-9)
                assert outcome.wifi_success_time >= 0.0
                assert outcome.collision_time >= 0.0
                assert outcome.idle_time >= 0.0

    def test_lte_dominant_silences_wifi(self):
        for outcome in run_scheme(Scheme.LTE_DOMINANT):
            assert outcome.wifi_throughput == 0.0
            assert outcome.lte_time == FRAME.total_duration

    def test_pure_wifi_without_collisions_gets_whole_frame(self):
        quiet = TrafficConfig(lambda_base=1e-12, mu=450.0)
        for outcome in run_scheme(Scheme.PURE_WIFI, traffic=quiet):
            assert outcome.wifi_success_time == FRAME.total_duration
            assert outcome.lte_sum_rate == 0.0

    def test_equal_sharing_grants_exactly_half(self):
        for outcome in run_scheme(Scheme.EQUAL_SHARING):
            assert outcome.lte_time == 0.5 * FRAME.total_duration

    def test_throughput_ordering_per_seed_and_channel(self):
        for seed in range(60):
            pure = run_scheme(Scheme.PURE_WIFI, seed=seed)
            fair = run_scheme(Scheme.RUIN_FAIR, seed=seed)
            dominant = run_scheme(Scheme.LTE_DOMINANT, seed=seed)
            for p, f, d in zip(pure, fair, dominant):
                assert p.wifi_throughput >= f.wifi_throughput >= d.wifi_throughput
                assert d.wifi_throughput == 0.0

    def test_distressed_wifi_turns_ruin_fair_into_pure_wifi(self):
        # default traffic gives psi ~ 0.61 > 0.4, so the thresholded policy
        # grants LTE-U nothing and the outcomes coincide with pure WiFi
        thresholded = DutyCyclePolicy(kind=PolicyKind.THRESHOLDED_LINEAR, psi_cutoff=0.4)
        psi = duty_cycle_from_surplus(FRAME, TRAFFIC.mu, policy=thresholded).psi
        assert psi > 0.4
        for seed in (0, 5, 9):
            fair = run_scheme(Scheme.RUIN_FAIR, seed=seed, policy=thresholded)
            pure = run_scheme(Scheme.PURE_WIFI, seed=seed, policy=thresholded)
            for f, p in zip(fair, pure):
                assert f.lte_time == 0.0
                assert f.wifi_success_time == p.wifi_success_time
                assert f.wifi_throughput == p.wifi_throughput

    def test_seeded_determinism_end_to_end(self):
        a = run_scheme(Scheme.RUIN_FAIR, seed=21)
        b = run_scheme(Scheme.RUIN_FAIR, seed=21)
        assert a == b

    def test_more_stations_never_grow_mean_lte_time(self):
        means = []
        for wst in (5, 10, 15, 20):
            topology = small_topology(seed=2, wst_per_wap=wst)
            total = 0.0
            for seed in range(100):
                outcomes = run_scheme(Scheme.RUIN_FAIR, seed=seed, topology=topology)
                total += sum(o.lte_time for o in outcomes) / len(outcomes)
            means.append(total / 100)
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_one_outcome_per_channel_in_order(self):
        outcomes = run_scheme(Scheme.PURE_WIFI)
        assert [o.channel for o in outcomes] == [0, 1, 2]
        assert all(o.scheme is Scheme.PURE_WIFI for o in outcomes)
