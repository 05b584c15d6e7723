"""Duty-cycle policy and chance-constraint audit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinfair import (
    CollisionModel,
    DutyCyclePolicy,
    FrameConfig,
    PolicyKind,
    SurplusParams,
    duty_cycle_from_surplus,
    lte_duty_cycle,
    ruin_probability_mc,
    verify_chance_constraint,
)

LINEAR = DutyCyclePolicy(kind=PolicyKind.LINEAR)
THRESHOLDED = DutyCyclePolicy(kind=PolicyKind.THRESHOLDED_LINEAR, psi_cutoff=0.4)
FRAME = FrameConfig(n_short=10, delta=0.001, r_reserved=1)


class TestFrameConfig:
    def test_total_duration_is_product(self):
        assert FrameConfig(n_short=10, delta=0.001).total_duration == 10 * 0.001

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_short": 0},
            {"n_short": 2.5},
            {"delta": 0.0},
            {"delta": -1.0},
            {"r_reserved": -1},
            {"r_reserved": 11},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        base = dict(n_short=10, delta=0.001, r_reserved=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FrameConfig(**base)


class TestLteDutyCycle:
    def test_no_risk_grants_full_frame(self):
        assert lte_duty_cycle(0.0, FrameConfig(10, 0.001, 1), LINEAR) == 0.01

    def test_certain_ruin_grants_nothing(self):
        assert lte_duty_cycle(1.0, FrameConfig(10, 0.001, 1), LINEAR) == 0.0

    def test_thresholded_cuts_off_above_cutoff(self):
        # distress case: psi = 0.5 > 0.4 means WiFi keeps the whole frame
        assert lte_duty_cycle(0.5, FrameConfig(10, 0.001, 1), THRESHOLDED) == 0.0

    def test_thresholded_equals_linear_below_cutoff(self):
        frame = FrameConfig(10, 0.001, 1)
        for psi in (0.0, 0.1, 0.25, 0.4):
            assert lte_duty_cycle(psi, frame, THRESHOLDED) == lte_duty_cycle(
                psi, frame, LINEAR
            )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_and_bounded(self, psi_a, psi_b):
        frame = FrameConfig(8, 0.002, 2)
        for policy in (LINEAR, THRESHOLDED):
            a = lte_duty_cycle(psi_a, frame, policy)
            b = lte_duty_cycle(psi_b, frame, policy)
            assert 0.0 <= a <= frame.total_duration
            if psi_a <= psi_b:
                assert a >= b

    @pytest.mark.parametrize("psi", [-0.01, 1.01, math.nan])
    def test_rejects_psi_outside_unit_interval(self, psi):
        with pytest.raises(ValueError):
            lte_duty_cycle(psi, FRAME, LINEAR)

    def test_policy_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            DutyCyclePolicy(kind=PolicyKind.THRESHOLDED_LINEAR, psi_cutoff=1.5)


class TestDutyCycleFromSurplus:
    def test_negligible_claims_grant_nearly_everything(self):
        alpha, psi = duty_cycle_from_surplus(FRAME, mu=1e9, policy=LINEAR)
        assert psi == pytest.approx(0.0, abs=1e-12)
        assert alpha == pytest.approx(FRAME.total_duration, rel=1e-12)

    def test_matches_surplus_model_and_mc(self):
        # capital = N*delta, premium = r*delta, horizon = N
        alpha, psi = duty_cycle_from_surplus(FRAME, mu=1.0, policy=LINEAR)
        est = ruin_probability_mc(
            SurplusParams(0.01, 0.001, 1.0, 10), trials=100_000, seed=8
        )
        assert abs(psi - est.estimate) <= 3.0 * est.std_error
        assert alpha == (1.0 - psi) * FRAME.total_duration

    @pytest.mark.parametrize("mu", [0.5, 5.0, 50.0, 450.0, 5000.0])
    def test_psi_always_in_unit_interval(self, mu):
        _, psi = duty_cycle_from_surplus(FRAME, mu=mu, policy=LINEAR)
        assert 0.0 <= psi <= 1.0

    def test_shorter_collisions_never_shrink_the_grant(self):
        # larger mu = smaller claims = less ruin = at least as much LTE-U time
        alphas = [
            duty_cycle_from_surplus(FRAME, mu=mu, policy=LINEAR).alpha_star
            for mu in (100.0, 200.0, 400.0, 800.0, 1600.0)
        ]
        assert all(a <= b for a, b in zip(alphas, alphas[1:]))

    def test_rejects_zero_reservation(self):
        with pytest.raises(ValueError):
            duty_cycle_from_surplus(FrameConfig(10, 0.001, 0), mu=1.0, policy=LINEAR)


class TestVerifyChanceConstraint:
    def test_full_occupancy_with_reservation_never_satisfies(self):
        frame = FrameConfig(10, 0.001, 2)
        report = verify_chance_constraint(
            frame.total_duration, frame, CollisionModel(1.0, 1000.0), 0.5, 2000, seed=1
        )
        assert report.empirical_prob == 0.0
        assert not report.satisfied

    def test_idle_lte_and_vanishing_collisions_always_satisfy(self):
        frame = FrameConfig(10, 0.001, 2)
        report = verify_chance_constraint(
            0.0, frame, CollisionModel(1e-9, 1000.0), 0.99, 2000, seed=1
        )
        assert report.empirical_prob == 1.0
        assert report.satisfied

    def test_golden_regression_moderate_allocation(self):
        # allocation from the linear policy at psi = 0.2 exactly consumes the
        # non-reserved airtime, so only zero-collision frames satisfy; the
        # pinned value sits near exp(-1) as expected
        frame = FrameConfig(10, 0.001, 2)
        alpha = lte_duty_cycle(0.2, frame, LINEAR)
        assert alpha == 0.008
        report = verify_chance_constraint(
            alpha, frame, CollisionModel(1.0, 1000.0), 0.9, 100_000, seed=424242
        )
        assert report.empirical_prob == 0.36706
        assert not report.satisfied

    def test_empirical_prob_nonincreasing_in_allocation(self):
        frame = FrameConfig(10, 0.001, 1)
        model = CollisionModel(1.5, 600.0)
        probs = [
            verify_chance_constraint(a, frame, model, 0.5, 20_000, seed=33).empirical_prob
            for a in (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)
        ]
        assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))

    def test_satisfied_iff_probability_reaches_xi(self):
        frame = FrameConfig(10, 0.001, 1)
        model = CollisionModel(0.5, 800.0)
        report = verify_chance_constraint(0.002, frame, model, 0.6, 50_000, seed=2)
        assert report.satisfied == (report.empirical_prob >= report.xi)

    def test_deterministic_for_fixed_seed(self):
        frame = FrameConfig(10, 0.001, 1)
        model = CollisionModel(1.0, 500.0)
        a = verify_chance_constraint(0.003, frame, model, 0.9, 10_000, seed=5)
        assert a == verify_chance_constraint(0.003, frame, model, 0.9, 10_000, seed=5)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            verify_chance_constraint(
                0.0, FRAME, CollisionModel(1.0, 500.0), 0.9, 0, seed=0
            )

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_xi_outside_open_interval(self, xi):
        with pytest.raises(ValueError):
            verify_chance_constraint(
                0.0, FRAME, CollisionModel(1.0, 500.0), xi, 100, seed=0
            )

    def test_rejects_allocation_outside_frame(self):
        with pytest.raises(ValueError):
            verify_chance_constraint(
                0.011, FRAME, CollisionModel(1.0, 500.0), 0.9, 100, seed=0
            )

    def test_collision_model_validation(self):
        with pytest.raises(ValueError):
            CollisionModel(0.0, 500.0)
        with pytest.raises(ValueError):
            CollisionModel(1.0, 0.0)
        with pytest.raises(ValueError):
            CollisionModel(501.0, 500.0)
