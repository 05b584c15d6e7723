"""Water-filling allocator: closed forms, KKT/budget invariants, grid oracles."""

import math

import numpy as np
import pytest

from ruinfair import (
    RadioConfig,
    TopologyConfig,
    _kernels,
    generate_topology,
    link_budget,
    sim,
    snr_utility,
    water_fill,
)
from ruinfair.allocation import water_fill_batch

import oracles
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


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_rows_equal_oracle(alphas, bandwidth, gammas):
    """Every row of the batch has the oracle's bits, field by field."""
    batch = water_fill_batch(alphas, bandwidth, gammas)
    assert batch.y.shape == (len(alphas), len(gammas))
    for i, alpha in enumerate(alphas):
        expected = oracles.water_fill(alpha, bandwidth, gammas)
        for field in ("y", "water_level", "sum_rate", "budget"):
            got = getattr(batch, field)[i]
            assert _bits(got) == _bits(getattr(expected, field)), (field, alpha)


class TestWaterFillBatch:
    """The batched solver against the scalar oracle of ``tests/oracles.py``,
    bit for bit: NumPy's pairwise sums change association from 8 users on
    and split into halves above 128, so the user counts straddle both."""

    @pytest.mark.parametrize("users", [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 200, 257])
    def test_rows_equal_scalar_oracle(self, users):
        rng = np.random.default_rng(users)
        for _ in range(20):
            gammas = 10.0 ** rng.uniform(-4.0, 3.0, size=users)
            gammas[rng.random(users) < 0.2] = 0.0
            # Airtimes across 7 decades, with zeros and repeats among them.
            alphas = 10.0 ** rng.uniform(-5.0, 2.0, size=9)
            alphas[rng.random(9) < 0.2] = 0.0
            alphas = np.concatenate([alphas, alphas[:3], [0.0]])
            _assert_rows_equal_oracle(alphas, 10.0 ** rng.uniform(-1.0, 7.0), gammas)

    @pytest.mark.parametrize("users", [1, 9, 200])
    def test_all_zero_gammas(self, users):
        _assert_rows_equal_oracle([0.0, 0.5, 2.0], 2.0, np.zeros(users))
        batch = water_fill_batch([0.5], 2.0, np.zeros(users))
        assert batch.water_level.tolist() == [math.inf]
        assert batch.sum_rate.tolist() == [0.0]

    @pytest.mark.parametrize("users", [1, 2, 15, 130])
    def test_inverse_utility_far_above_the_budget(self, users):
        alphas = [1e-3, 0.5, 1.0, 1.0, 1e3]
        _assert_rows_equal_oracle(alphas, 1.0, np.full(users, 1e-12))
        _assert_rows_equal_oracle(alphas, 1.0, 1e-12 / (1.0 + 1e-3 * np.arange(users)))
        mixed = np.full(users, 1e-20)
        mixed[::3] = 5.0
        _assert_rows_equal_oracle(alphas, 1.0, mixed)

    def test_default_cell(self):
        radio = RadioConfig()
        gammas = link_budget(generate_topology(7, TopologyConfig()), radio)
        _assert_rows_equal_oracle([0.0, 0.0025, 0.005, 0.0075, 0.01], radio.bandwidth, gammas)

    def test_water_fill_is_one_row(self):
        rng = np.random.default_rng(5)
        for users in (1, 9, 40):
            gammas = 10.0 ** rng.uniform(-2.0, 1.0, size=users)
            gammas[::4] = 0.0
            for alpha in (0.0, 0.3, 2.0):
                result = water_fill(alpha, 3.0, gammas)
                expected = oracles.water_fill(alpha, 3.0, gammas)
                assert _bits(result.y) == _bits(expected.y)
                for field in ("water_level", "sum_rate", "budget"):
                    assert type(getattr(result, field)) is float
                    assert _bits(getattr(result, field)) == _bits(getattr(expected, field))

    @pytest.mark.parametrize("chunk", [_kernels._CHUNK, 1, 40, 81, 200])
    def test_lte_sum_rate_blocks_equal_oracle(self, monkeypatch, chunk):
        """40 UEs: one airtime to a call at chunks 1 and 40, 2 at 81 and 5
        at 200, so the blocks split the positive airtimes unevenly."""
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        rng = np.random.default_rng(6)
        gammas = 10.0 ** rng.uniform(-2.0, 1.0, size=40)
        times = [0.0, 0.004, 0.01, 0.0, 0.007, 0.001, 0.002, 0.003, 0.0095, 0.008, 0.006]
        expected = [
            oracles.water_fill(t, 2e7, gammas).sum_rate if t > 0.0 else 0.0 for t in times
        ]
        assert _bits(sim.lte_sum_rate(times, 2e7, gammas)) == _bits(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            water_fill_batch([[1.0]], 2.0, [1.0])
        with pytest.raises(ValueError):
            water_fill_batch([1.0, -0.1], 2.0, [1.0])
        with pytest.raises(ValueError):
            water_fill_batch([1.0, math.nan], 2.0, [1.0])
        with pytest.raises(ValueError):
            water_fill(np.array([1.0, 2.0]), 2.0, [1.0])
