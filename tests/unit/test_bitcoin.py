"""Unit tests for the Eyal-Sirer Bitcoin baseline."""

from __future__ import annotations

import pytest
from reference_markov import BitcoinSelfishMiningModel

from repro.analysis.bitcoin import bitcoin_relative_revenue, bitcoin_threshold
from repro.errors import ParameterError
from repro.params import MiningParams


class TestClosedForms:
    def test_threshold_formula_known_values(self):
        assert bitcoin_threshold(0.0) == pytest.approx(1 / 3)
        assert bitcoin_threshold(0.5) == pytest.approx(0.25)
        assert bitcoin_threshold(1.0) == pytest.approx(0.0)

    def test_threshold_decreases_with_gamma(self):
        values = [bitcoin_threshold(g) for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_threshold_rejects_bad_gamma(self):
        with pytest.raises(ParameterError):
            bitcoin_threshold(1.5)

    def test_relative_revenue_at_threshold_equals_alpha(self):
        # At the threshold the pool earns exactly its fair share.
        for gamma in (0.0, 0.5, 0.9):
            alpha_star = bitcoin_threshold(gamma)
            if alpha_star <= 0.0:
                continue
            revenue = bitcoin_relative_revenue(MiningParams(alpha=alpha_star, gamma=gamma))
            assert revenue == pytest.approx(alpha_star, abs=1e-9)

    def test_relative_revenue_monotone_in_gamma(self):
        alpha = 0.3
        low = bitcoin_relative_revenue(MiningParams(alpha=alpha, gamma=0.1))
        high = bitcoin_relative_revenue(MiningParams(alpha=alpha, gamma=0.9))
        assert high > low

    def test_relative_revenue_requires_valid_alpha(self):
        with pytest.raises(ParameterError):
            bitcoin_relative_revenue(MiningParams(alpha=0.0, gamma=0.5))


class TestNumericalModel:
    @pytest.fixture(scope="class")
    def model(self):
        # The 1-D chain's tail decays like (alpha/beta)**lead — much more slowly than
        # the Ethereum chain's alpha**lead — so the Bitcoin model needs a deeper
        # truncation for tight closed-form comparisons.
        return BitcoinSelfishMiningModel(max_lead=250)

    def test_chain_has_unit_exit_rates(self, model):
        chain = model.build_chain(MiningParams(alpha=0.3, gamma=0.5))
        chain.validate(expect_unit_exit_rate=True)

    @pytest.mark.parametrize("alpha,gamma", [(0.1, 0.0), (0.25, 0.5), (0.35, 0.5), (0.45, 0.9)])
    def test_numerical_model_matches_closed_form(self, model, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        assert model.relative_pool_revenue(params) == pytest.approx(
            bitcoin_relative_revenue(params), abs=1e-9
        )

    def test_revenue_components_are_consistent(self, model):
        revenue = model.revenue(MiningParams(alpha=0.3, gamma=0.5))
        assert revenue.pool_rate >= 0
        assert revenue.honest_rate >= 0
        assert revenue.stale_rate >= 0
        assert revenue.total_published_rate + revenue.stale_rate == pytest.approx(1.0, abs=1e-9)
        assert revenue.absolute_pool_revenue == pytest.approx(revenue.relative_pool_revenue)

    def test_numerical_threshold_matches_formula(self, model):
        for gamma in (0.0, 0.5):
            assert model.profitable_threshold(gamma) == pytest.approx(bitcoin_threshold(gamma), abs=2e-3)

    def test_threshold_zero_when_gamma_is_one(self, model):
        assert model.profitable_threshold(1.0) == pytest.approx(0.0, abs=1e-3)

    def test_truncation_validation(self):
        with pytest.raises(ParameterError):
            BitcoinSelfishMiningModel(max_lead=2)

    def test_truncation_converges(self):
        # The truncation error shrinks like (alpha/beta)**max_lead; doubling the
        # truncation must bring the result closer to the closed form.
        params = MiningParams(alpha=0.45, gamma=0.5)
        exact = bitcoin_relative_revenue(params)
        coarse = BitcoinSelfishMiningModel(max_lead=60).relative_pool_revenue(params)
        fine = BitcoinSelfishMiningModel(max_lead=120).relative_pool_revenue(params)
        assert abs(fine - exact) < abs(coarse - exact)
        assert fine == pytest.approx(exact, abs=1e-4)
