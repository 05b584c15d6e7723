"""Ruin probability: closed form vs independent oracles, invariants, errors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinfair import (
    NumericalError,
    RuinEstimate,
    SurplusParams,
    _kernels,
    ruin_probability_exact,
    ruin_probability_mc,
)
from ruinfair.prng import substream_seed

from oracles import (
    ruin_one_period,
    ruin_three_periods,
    ruin_two_periods,
    surplus_path_values,
)

params_strategy = st.builds(
    SurplusParams,
    initial_capital=st.floats(0.0, 5.0),
    premium=st.floats(0.1, 3.0),
    claim_rate=st.floats(0.1, 3.0),
    horizon=st.integers(0, 50),
)


class TestExactFormula:
    def test_zero_horizon_cannot_ruin(self):
        assert ruin_probability_exact(SurplusParams(0.0, 1.0, 1.0, 0)) == 0.0

    def test_one_period_closed_form(self):
        psi = ruin_probability_exact(SurplusParams(0.0, 1.0, 1.0, 1))
        assert psi == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_two_period_closed_form(self):
        psi = ruin_probability_exact(SurplusParams(0.0, 1.0, 1.0, 2))
        assert psi == pytest.approx(math.exp(-1.0) + math.exp(-2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "u,c,rate",
        [(0.0, 1.0, 1.0), (0.5, 0.7, 1.3), (2.0, 0.5, 0.8), (1.0, 2.0, 2.0)],
    )
    def test_matches_integration_oracles_up_to_three_periods(self, u, c, rate):
        assert ruin_probability_exact(SurplusParams(u, c, rate, 1)) == pytest.approx(
            ruin_one_period(u, c, rate), abs=1e-14
        )
        assert ruin_probability_exact(SurplusParams(u, c, rate, 2)) == pytest.approx(
            ruin_two_periods(u, c, rate), abs=1e-14
        )
        assert ruin_probability_exact(SurplusParams(u, c, rate, 3)) == pytest.approx(
            ruin_three_periods(u, c, rate), abs=1e-12
        )

    def test_long_horizon_survives_log_space(self):
        # (j-1)! overflows a double near j = 171; log-space evaluation must not.
        psi = ruin_probability_exact(SurplusParams(1.0, 0.9, 1.0, 10_000))
        assert 0.0 <= psi <= 1.0
        # claims mean 1 > premium 0.9, so ruin over 10k periods is near-certain
        assert psi > 0.999

    def test_overflowing_claim_scale_terms_are_zero(self):
        # rate * c_j overflows to inf; in log space the term would be NaN.
        assert ruin_probability_exact(SurplusParams(1e11, 1e10, 1e308, 10)) == 0.0

    def test_underflowing_claim_scale_is_certain_ruin(self):
        # rate * c_j underflows to 0: the j = 1 term is 1, every later one 0.
        assert ruin_probability_exact(SurplusParams(0.01, 0.001, 5e-324, 10)) == 1.0

    @given(params_strategy)
    @settings(max_examples=300, deadline=None)
    def test_stays_in_unit_interval(self, params):
        assert 0.0 <= ruin_probability_exact(params) <= 1.0

    @given(params_strategy)
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_in_horizon(self, params):
        longer = SurplusParams(
            params.initial_capital, params.premium, params.claim_rate, params.horizon + 1
        )
        assert ruin_probability_exact(params) <= ruin_probability_exact(longer)

    # Comparisons across different parameter values round independently, so
    # a one-ulp allowance keeps the property honest near saturation (psi ~ 1).
    _ULP = 1e-15

    @given(params_strategy, st.floats(0.01, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_capital(self, params, extra):
        richer = SurplusParams(
            params.initial_capital + extra, params.premium, params.claim_rate, params.horizon
        )
        assert ruin_probability_exact(richer) <= ruin_probability_exact(params) + self._ULP

    @given(params_strategy, st.floats(0.01, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing_in_claim_rate(self, params, extra):
        # a larger rate means smaller claims, hence less ruin
        faster = SurplusParams(
            params.initial_capital, params.premium, params.claim_rate + extra, params.horizon
        )
        assert ruin_probability_exact(faster) <= ruin_probability_exact(params) + self._ULP


class TestSurplusParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_capital": -0.1},
            {"initial_capital": math.nan},
            {"premium": 0.0},
            {"premium": -1.0},
            {"claim_rate": 0.0},
            {"claim_rate": math.inf},
            {"horizon": -1},
            {"horizon": 1.5},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        base = dict(initial_capital=1.0, premium=1.0, claim_rate=1.0, horizon=5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SurplusParams(**base)


def surplus_path(params, seed):
    """Surplus after each period of the path drawn from ``SplitMix64(seed)``."""
    return surplus_path_values(
        params.initial_capital, params.premium, params.claim_rate, params.horizon, seed
    )


def path_ruins(params, seeds):
    """Whether each of those paths goes negative by the horizon, in one call
    of the kernel's exact replay."""
    states = np.array(list(seeds), dtype=np.uint64)
    return _kernels._path_ruins(
        params.initial_capital, params.premium, params.claim_rate, params.horizon, states
    ).tolist()


class TestSimulatePath:
    def test_negligible_claims_never_ruin(self):
        params = SurplusParams(10.0, 1.0, 1e6, 5)
        for seed in range(50):
            assert min(surplus_path(params, seed)) >= 10.0
        assert not any(path_ruins(params, range(50)))

    def test_one_period_ruin_is_claim_exceeding_income(self):
        params = SurplusParams(0.0, 1.0, 1.0, 1)
        seeds = [*range(200), *(substream_seed(3, t) for t in range(2000))]
        assert path_ruins(params, seeds) == [surplus_path(params, s)[1] < 0.0 for s in seeds]

    def test_path_shape_and_start(self):
        params = SurplusParams(2.0, 0.5, 1.0, 7)
        path = surplus_path(params, 123)
        assert len(path) == 8
        assert path[0] == 2.0

    def test_ruin_time_is_first_negative(self):
        """A path keeps evolving past ruin: it ruins by every horizon from its
        first negative period on, and by none before."""
        params = SurplusParams(0.0, 0.2, 0.9, 30)
        seeds = range(100)
        paths = [surplus_path(params, seed) for seed in seeds]
        for horizon in range(1, params.horizon + 1):
            shorter = dataclasses.replace(params, horizon=horizon)
            expected = []
            for seed, path in zip(seeds, paths):
                assert surplus_path(shorter, seed) == path[: horizon + 1]
                negatives = [s for s, v in enumerate(path) if s > 0 and v < 0.0]
                expected.append(bool(negatives and negatives[0] <= horizon))
            assert path_ruins(shorter, seeds) == expected

    def test_deterministic_for_fixed_seed(self):
        params = SurplusParams(1.0, 1.0, 1.0, 10)
        assert surplus_path(params, 5) == surplus_path(params, 5)


class TestMonteCarlo:
    def test_agrees_with_one_period_closed_form(self):
        params = SurplusParams(0.0, 1.0, 1.0, 1)
        est = ruin_probability_mc(params, 100_000, seed=2)
        assert abs(est.estimate - math.exp(-1.0)) <= 3.0 * est.std_error

    def test_agrees_with_two_period_closed_form(self):
        params = SurplusParams(0.0, 1.0, 1.0, 2)
        est = ruin_probability_mc(params, 100_000, seed=2)
        assert abs(est.estimate - 0.503214724408055) <= 3.0 * est.std_error

    def test_huge_capital_never_ruins(self):
        est = ruin_probability_mc(SurplusParams(1000.0, 1.0, 1.0, 3), 1000, seed=0)
        assert est == RuinEstimate(estimate=0.0, std_error=0.0, trials=1000)

    def test_estimate_counts_ruined_paths(self):
        params = SurplusParams(0.5, 0.8, 1.1, 6)
        trials, seed = 500, 9
        ruined = sum(path_ruins(params, (substream_seed(seed, t) for t in range(trials))))
        est = ruin_probability_mc(params, trials, seed)
        assert est.estimate == ruined / trials

    def test_std_error_formula(self):
        est = ruin_probability_mc(SurplusParams(0.0, 1.0, 1.0, 2), 10_000, seed=4)
        expected = math.sqrt(est.estimate * (1.0 - est.estimate) / est.trials)
        assert est.std_error == expected

    def test_reproducible_and_seed_sensitive(self):
        params = SurplusParams(0.0, 1.0, 1.0, 5)
        a = ruin_probability_mc(params, 20_000, seed=11)
        b = ruin_probability_mc(params, 20_000, seed=11)
        c = ruin_probability_mc(params, 20_000, seed=12)
        assert a == b
        assert a.estimate != c.estimate

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ruin_probability_mc(SurplusParams(0.0, 1.0, 1.0, 1), 0, seed=0)


def test_sum_overflow_is_reported_not_clamped(monkeypatch):
    # force a broken term to verify the out-of-range guard trips
    import ruinfair.ruin as ruin_module

    monkeypatch.setattr(ruin_module.math, "exp", lambda _: 2.0)
    with pytest.raises(NumericalError):
        ruin_probability_exact(SurplusParams(0.0, 1.0, 1.0, 3))
