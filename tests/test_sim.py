"""Frame-level simulator: topology, collisions, and scheme accounting."""

import math

import numpy as np
import pytest

from oracles import SplitMix64, sample_collisions, simulate_long_frame
from ruinfair import (
    ConfigError,
    DutyCyclePolicy,
    FrameConfig,
    PolicyKind,
    RadioConfig,
    Scheme,
    TopologyConfig,
    TrafficConfig,
    _kernels,
    duty_cycle_from_surplus,
    generate_topology,
    link_budget,
    path_gain,
    snr_utility,
)
from ruinfair.prng import substream_seed
from ruinfair.sim import collision_totals

LINEAR = DutyCyclePolicy(kind=PolicyKind.LINEAR)
FRAME = FrameConfig(n_short=10, delta=0.001, r_reserved=1)
TRAFFIC = TrafficConfig(lambda_base=0.2, mu=450.0)
RADIO = RadioConfig()


def small_sites(**overrides):
    return TopologyConfig(**{"ue_count": 6, **overrides})


def small_positions(seed=3, **overrides):
    return generate_topology(seed, small_sites(**overrides))


class TestGenerateTopology:
    def test_deterministic_for_fixed_seed(self):
        assert small_positions(seed=9) == small_positions(seed=9)
        assert small_positions(seed=9) != small_positions(seed=10)

    def test_all_nodes_inside_sbs_disk(self):
        sites = small_sites(ue_count=50)
        for x, y in generate_topology(1, sites):
            assert math.hypot(x, y) <= sites.sbs_radius + 1e-9

    def test_station_count_does_not_move_positions(self):
        sparse = small_positions(seed=4, wst_per_wap=5)
        dense = small_positions(seed=4, wst_per_wap=20)
        assert sparse == dense

    @pytest.mark.parametrize(
        "waps,seed",
        [
            *(pytest.param(waps, 11, id=f"{waps}") for waps in (1, 3, 10**5)),
            *(pytest.param(3, seed, id=f"3-seed={seed}") for seed in (-1, 2**64 + 11)),
        ],
    )
    def test_ues_follow_the_wap_draws(self, waps, seed):
        """The UEs are where a stream that first places every WAP (two
        uniforms each) puts them, bit for bit; a seed outside [0, 2**64)
        places them as the seed taken mod 2**64."""
        config = small_sites(wap_count=waps)
        rng = SplitMix64(seed)
        for _ in range(2 * waps):
            rng.uniform()
        expected = []
        for _ in range(config.ue_count):
            r = config.sbs_radius * math.sqrt(rng.uniform())
            theta = 2.0 * math.pi * rng.uniform()
            expected.append((r * math.cos(theta), r * math.sin(theta)))
        assert list(generate_topology(seed, config)) == expected
        assert generate_topology(seed % 2**64, config) == generate_topology(seed, config)

    def test_rejects_zero_ues(self):
        with pytest.raises(ConfigError):
            TopologyConfig(ue_count=0)


class TestPathGain:
    LOSS = RadioConfig(path_exponent=3.5, ref_distance=1.0, ref_gain=1e-3)

    def test_reference_point(self):
        assert path_gain(1.0, self.LOSS) == 1e-3

    def test_power_law_decay(self):
        assert path_gain(2.0, self.LOSS) == pytest.approx(1e-3 * 2.0 ** -3.5, rel=1e-12)

    def test_near_field_clamp(self):
        assert path_gain(0.1, self.LOSS) == 1e-3

    @pytest.mark.parametrize("distance", [0.0, -1.0, math.inf])
    def test_rejects_degenerate_distance(self, distance):
        with pytest.raises(ValueError):
            path_gain(distance, self.LOSS)


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
        # The shipped sampler at mean 2.0 for every seed: the count of
        # sample_collisions(2.0, 500.0, seed).
        n = 100_000
        counts = _kernels._poisson_counts(np.arange(n, dtype=np.uint64), (2.0,))[0]
        mean = int(counts.sum()) / n
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / n)

    def test_exponential_duration_mean_self_check(self):
        # The first duration of sample_collisions(1.0, 4.0, seed) for every
        # seed with a collision: a count of k takes uniforms 0 .. k, and the
        # duration the uniform at index k + 1.
        states = np.arange(100_000, dtype=np.uint64)
        counts = _kernels._poisson_counts(states, (1.0,))[0]
        after = states[counts >= 1] + (counts[counts >= 1].astype(np.uint64) + 1) * _kernels._GAMMA
        durations = -_kernels._libm_log(1.0 - _kernels._uniforms(after, 0, 1)[0]) / 4.0
        count = len(durations)
        mean = math.fsum(durations) / count
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


def scalar_totals(lam, master, reps, channels):
    """The scalar draw's total of each replication (rows) and channel of
    ``master``, at a duration rate of 450."""
    return [
        [
            sample_collisions(lam, 450.0, substream_seed(substream_seed(master, r), k)).total
            for k in range(channels)
        ]
        for r in range(reps)
    ]


class TestCollisionTotals:
    def test_equals_one_scalar_draw_per_seed_and_channel(self, monkeypatch):
        """Also when a kernel call's chunk of cells splits a replication's
        row, and for master seeds that the mask reduces."""
        for master in (99, -3, 2**64 - 1):
            expected = scalar_totals(7.5, master, 5, 6)
            for chunk in (_kernels._CHUNK, 5):
                monkeypatch.setattr(_kernels, "_CHUNK", chunk)
                totals = collision_totals([7.5], 450.0, master, 5, 6, math.inf)[0]
                assert totals.shape == (5, 6)
                assert totals.tolist() == expected
                # The master seed is taken mod 2**64, as substream_seed takes it.
                wrapped = collision_totals([7.5], 450.0, master + 2**64, 5, 6, math.inf)[0]
                assert wrapped.tolist() == expected

    @pytest.mark.parametrize("lambda_base,mu", [(20.0, 450.0), (0.2, 0.0)])
    def test_rejects_what_sample_collisions_rejects(self, lambda_base, mu):
        """A rate of 800 (40 stations), or a zero duration rate: the model a
        draw takes rejects them as the scalar draw does, also after a rate
        it accepts."""
        with pytest.raises(ValueError) as scalar:
            sample_collisions(lambda_base * 40, mu, 0)
        with pytest.raises(ValueError) as batched:
            collision_totals([2.0, lambda_base * 40], mu, 0, 1, 3, 0.01)
        assert str(batched.value) == str(scalar.value)

    def test_rates_stack_along_the_first_axis(self, monkeypatch):
        """Each rate draws from the same (replication, channel) substreams,
        also when a kernel call's block holds two streams at each rate (a
        chunk of 7 cells), which splits every replication's row."""
        rates = [0.5, 7.5, 120.0]
        expected = [scalar_totals(lam, 99, 5, 6) for lam in rates]
        for chunk in (_kernels._CHUNK, 7):
            monkeypatch.setattr(_kernels, "_CHUNK", chunk)
            totals = collision_totals(rates, 450.0, 99, 5, 6, math.inf)
            assert totals.shape == (3, 5, 6)
            assert totals.tolist() == expected

    HORIZONS = [0.0, 1e-6, 0.01, 1.0, math.inf]

    @pytest.mark.parametrize("block", [None, 1, 64])
    @pytest.mark.parametrize("lam", [1e-9, 2.0, 100.0, 500.0])
    def test_clipped_at_the_frame_length(self, monkeypatch, block, lam):
        """Entry [r, k] is the scalar draw's total clipped to the frame, bit
        for bit, also when the early stop falls across narrow blocks.

        ``lam = 0`` is rejected here as by ``sample_collisions``; the kernel
        test ``test_capped_totals_are_clipped_uncapped_ones`` covers it.
        """
        if block is not None:
            monkeypatch.setattr(_kernels, "_BLOCK", block)
        scalar = scalar_totals(lam, 5, 12, 2)
        for horizon in self.HORIZONS:
            totals = collision_totals([lam], 450.0, 5, 12, 2, horizon)[0]
            assert totals.tolist() == [[min(t, horizon) for t in row] for row in scalar]

    def test_draws_stop_at_the_frame_length(self, monkeypatch):
        """At 500 collisions of mean 2.2 ms, a 10 ms frame takes under 1/20 of
        the logarithms of the whole sum, libm's and the faster one together
        (the capped draw takes only the faster one)."""
        logs = [0]

        def counted(log):
            def counted_log(x):
                logs[0] += len(x)
                return log(x)

            return counted_log

        for name in ("_libm_log", "_fast_log"):
            monkeypatch.setattr(_kernels, name, counted(getattr(_kernels, name)))
        whole = collision_totals([500.0], 450.0, 3, 20, 1, math.inf)[0]
        uncapped, logs[0] = logs[0], 0
        clipped = collision_totals([500.0], 450.0, 3, 20, 1, 0.01)[0]
        assert clipped.tolist() == np.minimum(whole, 0.01).tolist()
        assert 0 < logs[0] * 20 < uncapped


class TestLinkBudget:
    def test_one_utility_per_ue(self):
        # frequency-flat path loss: one utility serves every channel
        gammas = link_budget(small_positions(seed=6), RADIO)
        assert gammas.shape == (6,)

    def test_matches_scalar_utility_per_ue(self):
        # Bit for bit, on every host: NumPy's log1p differs from libm's in
        # the last bit on some of these 2,000 UEs under AVX-512 dispatch.
        positions = small_positions(seed=6, ue_count=2000)
        expected = []
        for x, y in positions:
            distance = max(math.hypot(x, y), RADIO.ref_distance)
            expected.append(
                snr_utility(RADIO.tx_power, path_gain(distance, RADIO), RADIO.noise)
            )
        assert link_budget(positions, RADIO).tolist() == expected


def run_scheme(scheme, seed=11, topology_seed=3, policy=LINEAR, traffic=TRAFFIC, **sites):
    sites = small_sites(**sites)
    positions = generate_topology(topology_seed, sites)
    return simulate_long_frame(positions, sites, FRAME, scheme, traffic, policy, RADIO, seed)


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
            total = 0.0
            for seed in range(100):
                outcomes = run_scheme(
                    Scheme.RUIN_FAIR, seed=seed, topology_seed=2, wst_per_wap=wst
                )
                total += sum(o.lte_time for o in outcomes) / len(outcomes)
            means.append(total / 100)
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_one_outcome_per_channel_in_order(self):
        outcomes = run_scheme(Scheme.PURE_WIFI)
        assert [o.channel for o in outcomes] == [0, 1, 2]
        assert all(o.scheme is Scheme.PURE_WIFI for o in outcomes)
