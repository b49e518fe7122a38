"""Unit tests for the literal closed-form revenue expressions (Eqs. 3-9)."""

from __future__ import annotations

import pytest
from reference_closed_form import (
    closed_form_revenue,
    honest_static_revenue,
    honest_uncle_revenue,
    pool_static_revenue,
    pool_uncle_revenue,
)

from repro.errors import ParameterError
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule

SCHEDULE = EthereumByzantiumSchedule()


class TestStaticRewardFormulas:
    # The case engine truncates the state space at max_lead=60 (see conftest), which
    # leaves a residual of up to ~1e-5 at the heaviest-tailed parameter points; the
    # exact closed forms are compared with that tolerance.
    @pytest.mark.parametrize("alpha,gamma", [(0.1, 0.5), (0.3, 0.0), (0.4, 0.9), (0.45, 0.5)])
    def test_static_rewards_match_case_engine(self, ethereum_model, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        rates = ethereum_model.revenue_rates(params)
        assert pool_static_revenue(params) == pytest.approx(rates.pool.static, abs=2e-5)
        assert honest_static_revenue(params) == pytest.approx(rates.honest.static, abs=2e-5)

    def test_static_rewards_sum_below_one(self):
        params = MiningParams(alpha=0.35, gamma=0.5)
        assert pool_static_revenue(params) + honest_static_revenue(params) < 1.0

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            pool_static_revenue(MiningParams(alpha=0.0, gamma=0.5))


class TestUncleRewardFormulas:
    @pytest.mark.parametrize("alpha,gamma", [(0.2, 0.5), (0.35, 0.3), (0.45, 0.7)])
    def test_pool_uncle_reward_matches_case_engine(self, ethereum_model, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        rates = ethereum_model.revenue_rates(params)
        assert pool_uncle_revenue(params, SCHEDULE) == pytest.approx(rates.pool.uncle, abs=2e-5)

    @pytest.mark.parametrize("alpha,gamma", [(0.2, 0.5), (0.3, 0.5), (0.4, 0.3)])
    def test_honest_uncle_reward_matches_case_engine(self, ethereum_model, alpha, gamma):
        # Eq. (6) does include the (i, 0) contributions, so it should agree with the
        # complete case analysis up to sum truncation.
        params = MiningParams(alpha=alpha, gamma=gamma)
        rates = ethereum_model.revenue_rates(params)
        value = honest_uncle_revenue(params, SCHEDULE, truncation=40)
        assert value == pytest.approx(rates.honest.uncle, abs=1e-6)

    def test_pool_uncle_reward_vanishes_at_gamma_one(self):
        assert pool_uncle_revenue(MiningParams(alpha=0.3, gamma=1.0), SCHEDULE) == pytest.approx(0.0)


class TestFullEvaluation:
    def test_components_assemble_into_totals(self):
        params = MiningParams(alpha=0.3, gamma=0.5)
        result = closed_form_revenue(params, SCHEDULE, truncation=30)
        assert result.pool_total == pytest.approx(
            result.pool_static + result.pool_uncle + result.pool_nephew
        )
        assert result.total == pytest.approx(result.pool_total + result.honest_total)
        assert 0.0 < result.relative_pool_revenue < 1.0

    def test_default_schedule_is_ethereum(self):
        params = MiningParams(alpha=0.3, gamma=0.5)
        assert closed_form_revenue(params).pool_uncle == pytest.approx(
            closed_form_revenue(params, SCHEDULE).pool_uncle
        )

    def test_nephew_terms_close_to_case_engine(self, ethereum_model):
        # The printed Eqs. (8)-(9) omit the (i, 0)-state nephew terms; the discrepancy
        # against the complete case engine should be small but may be non-zero.  The
        # nephew reward itself is only 1/32 of the static reward, so we check the gap
        # is bounded by that scale rather than exact agreement.
        params = MiningParams(alpha=0.35, gamma=0.5)
        rates = ethereum_model.revenue_rates(params)
        result = closed_form_revenue(params, SCHEDULE, truncation=40)
        assert abs(result.pool_nephew - rates.pool.nephew) < 1 / 32
        assert abs(result.honest_nephew - rates.honest.nephew) < 1 / 32

    def test_flat_schedule_changes_only_uncle_and_nephew_terms(self):
        params = MiningParams(alpha=0.3, gamma=0.5)
        ethereum = closed_form_revenue(params, SCHEDULE, truncation=25)
        flat = closed_form_revenue(params, FlatUncleSchedule(0.5), truncation=25)
        assert ethereum.pool_static == pytest.approx(flat.pool_static)
        assert ethereum.honest_static == pytest.approx(flat.honest_static)
        assert ethereum.pool_uncle != pytest.approx(flat.pool_uncle)
