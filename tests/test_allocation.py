"""Water-filling allocator: closed forms, KKT/budget invariants, grid oracles."""

import math

import numpy as np
import pytest

from ruinfair import (
    RadioConfig,
    TopologyConfig,
    generate_topology,
    link_budget,
    snr_utility,
    sum_rate,
    water_fill,
)

from oracles import grid_best_three_users, grid_best_two_users


class TestSnrUtility:
    def test_zero_gain_is_zero_utility(self):
        assert snr_utility(1.0, 0.0, 1.0) == 0.0

    def test_unit_snr_is_ln_two(self):
        assert snr_utility(1.0, 1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_substitution(self):
        assert snr_utility(2.0, 3.0, 1.0) == pytest.approx(math.log(7.0), abs=1e-15)

    @pytest.mark.parametrize("noise", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_noise(self, noise):
        with pytest.raises(ValueError):
            snr_utility(1.0, 1.0, noise)

    def test_rejects_nonpositive_power_and_negative_gain(self):
        with pytest.raises(ValueError):
            snr_utility(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            snr_utility(1.0, -0.5, 1.0)


class TestSumRate:
    def test_zero_duty_cycle_is_zero(self):
        assert sum_rate(0.0, [1.0, 2.0], [5.0, 7.0]) == 0.0

    def test_matches_single_user_water_fill(self):
        assert sum_rate(1.0, [2.0], [1.0]) == pytest.approx(math.log(3.0), abs=1e-15)

    def test_zero_allocation_is_zero(self):
        assert sum_rate(0.5, [0.0, 0.0], [5.0, 7.0]) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            sum_rate(-1.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            sum_rate(1.0, [-1.0], [1.0])
        with pytest.raises(ValueError):
            sum_rate(1.0, [1.0], [-1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            sum_rate(1.0, [1.0, 2.0], [1.0])


class TestWaterFillClosedForms:
    def test_single_user_takes_whole_budget(self):
        result = water_fill(1.0, 2.0, [1.0])
        assert result.y.tolist() == [2.0]
        assert result.water_level == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert result.sum_rate == pytest.approx(math.log(3.0), rel=1e-12)

    def test_symmetric_users_split_equally(self):
        result = water_fill(1.0, 2.0, [1.0, 1.0])
        assert result.y.tolist() == pytest.approx([1.0, 1.0], rel=1e-12)
        assert result.water_level == pytest.approx(0.5, rel=1e-12)

    def test_weak_user_shut_out(self):
        # frozen from the exhaustive 1e-5-step grid oracle: all budget goes
        # to the strong user, objective ln(3)
        result = water_fill(1.0, 1.0, [2.0, 0.1])
        assert result.y.tolist() == pytest.approx([1.0, 0.0], abs=1e-12)
        assert result.water_level == pytest.approx(2.0 / 3.0, rel=1e-12)
        oracle = grid_best_two_users(1.0, 1.0, [2.0, 0.1])
        assert result.sum_rate >= oracle - 1e-6
        assert result.sum_rate == pytest.approx(math.log(3.0), rel=1e-12)

    def test_zero_duty_cycle_allocates_nothing(self):
        result = water_fill(0.0, 2.0, [1.0, 2.0])
        assert result.y.tolist() == [0.0, 0.0]
        assert result.sum_rate == 0.0
        assert result.budget == 0.0
        assert result.water_level == math.inf

    def test_all_zero_gains_allocate_nothing(self):
        result = water_fill(1.0, 2.0, [0.0, 0.0])
        assert result.y.tolist() == [0.0, 0.0]
        assert result.sum_rate == 0.0
        assert result.water_level == math.inf


class TestWaterFillExact:
    def test_user_at_the_level_gets_nothing(self):
        # level (1 + 1/1) / 1 = 2 is exactly the second user's 1/gamma
        result = water_fill(1.0, 1.0, [1.0, 0.5])
        assert result.y.tolist() == [1.0, 0.0]
        assert result.water_level == 0.5

    def test_tied_users_at_the_level_get_nothing(self):
        for gammas in ([1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]):
            result = water_fill(1.0, 1.0, gammas)
            assert result.y.tolist() == [1.0 if g == 1.0 else 0.0 for g in gammas]
            assert result.water_level == 0.5
            assert result.budget == 1.0

    def test_thousand_users(self):
        rng = np.random.default_rng(1000)
        gammas = 10.0 ** rng.uniform(-2.0, 1.0, size=1000)
        gammas[::7] = 0.0
        result = water_fill(0.5, 200.0, gammas)
        level = 0.5 / result.water_level
        served = result.y > 0.0
        assert 0 < np.count_nonzero(served) < np.count_nonzero(gammas)
        assert result.budget == pytest.approx(100.0, rel=1e-12)
        assert result.y[gammas == 0.0].tolist() == [0.0] * np.count_nonzero(gammas == 0.0)
        np.testing.assert_allclose(result.y[served], level - 1.0 / gammas[served], rtol=1e-12)
        # the weakest served user is stronger than the strongest unserved one
        assert np.min(gammas[served]) > np.max(gammas[~served])
        assert np.all(level <= 1.0 / gammas[~served & (gammas > 0.0)])

    @pytest.mark.parametrize(
        "alpha,water_level,rate",
        [
            # Frozen from the bisection solver this one replaced.
            (0.005, 7.499767903892997e-07, 0.7809398632634094),
            (0.01, 7.499883950150851e-07, 1.6658494826317845),
        ],
    )
    def test_default_cell_golden(self, alpha, water_level, rate):
        radio = RadioConfig()
        gammas = link_budget(generate_topology(7, TopologyConfig()), radio)
        result = water_fill(alpha, radio.bandwidth, gammas)
        assert result.water_level == water_level
        assert result.sum_rate == rate

    def test_partly_served_golden(self):
        # 11 of 40 users served; summing their 1/gamma in sorted rather than
        # index order moves both numbers by an ulp.
        rng = np.random.default_rng(4)
        result = water_fill(0.5, 2.0, 10.0 ** rng.uniform(-2.0, 1.0, size=40))
        assert np.count_nonzero(result.y) == 11
        assert result.water_level == 2.0367947825555532
        assert result.sum_rate == 2.678874060215869

    def test_single_user_far_below_the_level_takes_the_budget(self):
        # budget + 1/gamma rounds to 1/gamma; the share must not cancel to 0
        result = water_fill(1.0, 1.0, [1e-20])
        assert result.y.tolist() == [1.0]
        assert result.budget == 1.0

    @pytest.mark.parametrize("users", [1, 2, 15])
    def test_inverse_utility_swamps_the_budget(self, users):
        # 1/gamma = 1e12 against a budget of 1: tied users split it evenly
        result = water_fill(1.0, 1.0, np.full(users, 1e-12))
        assert result.y.tolist() == pytest.approx([1.0 / users] * users, rel=1e-9)
        assert result.budget == pytest.approx(1.0, rel=1e-9)
        # 1/gamma values 1e9 apart: the strongest user takes all of it
        spread = 1e-12 / (1.0 + 1e-3 * np.arange(users))
        result = water_fill(1.0, 1.0, spread)
        assert result.y.tolist() == [1.0] + [0.0] * (users - 1)


def _random_instance(rng, users):
    gammas = 10.0 ** rng.uniform(-2.0, 1.0, size=users)
    alpha = rng.uniform(0.1, 2.0)
    bandwidth = rng.uniform(0.5, 5.0)
    return alpha, bandwidth, gammas


class TestWaterFillInvariants:
    @pytest.mark.parametrize("users", [1, 2, 3, 7, 20])
    def test_kkt_and_budget(self, users):
        rng = np.random.default_rng(users)
        for _ in range(50):
            alpha, bandwidth, gammas = _random_instance(rng, users)
            result = water_fill(alpha, bandwidth, gammas)
            level = alpha / result.water_level
            # budget binds
            assert result.budget == pytest.approx(bandwidth * alpha, rel=1e-9)
            assert float(np.sum(result.y)) == pytest.approx(bandwidth * alpha, rel=1e-9)
            for y_i, g_i in zip(result.y, gammas):
                if y_i > 0.0:
                    assert abs(y_i - (level - 1.0 / g_i)) <= 1e-9 * max(1.0, level)
                else:
                    assert level - 1.0 / g_i <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        alpha, bandwidth, gammas = _random_instance(rng, 5)
        perm = rng.permutation(5)
        base = water_fill(alpha, bandwidth, gammas)
        shuffled = water_fill(alpha, bandwidth, gammas[perm])
        assert shuffled.y == pytest.approx(base.y[perm], rel=1e-12, abs=1e-15)
        assert shuffled.water_level == pytest.approx(base.water_level, rel=1e-12)
        assert shuffled.sum_rate == pytest.approx(base.sum_rate, rel=1e-12)

    def test_sum_rate_nondecreasing_in_duty_cycle(self):
        gammas = [3.0, 1.0, 0.2]
        rates = [water_fill(a, 2.0, gammas).sum_rate for a in np.linspace(0.0, 2.0, 21)]
        assert all(r1 <= r2 + 1e-12 for r1, r2 in zip(rates, rates[1:]))

    def test_mixed_zero_gain_users(self):
        result = water_fill(1.0, 2.0, [0.0, 1.0, 0.0, 2.0])
        assert result.y[0] == 0.0 and result.y[2] == 0.0
        assert result.budget == pytest.approx(2.0, rel=1e-12)


class TestWaterFillAgainstOracle:
    def test_two_user_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            alpha, bandwidth, gammas = _random_instance(rng, 2)
            result = water_fill(alpha, bandwidth, gammas)
            oracle = grid_best_two_users(alpha, bandwidth, gammas)
            assert result.sum_rate >= oracle - 1e-6

    def test_three_user_instances(self):
        rng = np.random.default_rng(2025)
        for _ in range(10):
            alpha, bandwidth, gammas = _random_instance(rng, 3)
            result = water_fill(alpha, bandwidth, gammas)
            oracle = grid_best_three_users(alpha, bandwidth, gammas)
            assert result.sum_rate >= oracle - 1e-6


class TestWaterFillValidation:
    def test_rejects_empty_gammas(self):
        with pytest.raises(ValueError):
            water_fill(1.0, 2.0, [])

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            water_fill(1.0, 2.0, [1.0, -0.1])

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            water_fill(-0.1, 2.0, [1.0])

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            water_fill(1.0, 0.0, [1.0])
