"""Integration: the paper's headline numbers, reproduced end to end.

Each test pins one number the paper states explicitly.  Tolerances reflect that our
state-space truncation and threshold bisection differ slightly from the authors'
(reported agreement is recorded, with the measured values, in EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.analysis.absolute import Scenario
from repro.analysis.bitcoin import bitcoin_threshold
from repro.analysis.revenue import RevenueModel
from repro.analysis.threshold import profitable_threshold
from repro.analysis.uncle_distance import distribution_from_rates
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule


@pytest.fixture(scope="module")
def ethereum_threshold_model():
    return RevenueModel(EthereumByzantiumSchedule(), max_lead=40)


@pytest.fixture(scope="module")
def flat_threshold_model():
    return RevenueModel(FlatUncleSchedule(0.5), max_lead=40)


class TestSection5Numbers:
    def test_fig8_threshold_0163_with_flat_uncle_reward(self, flat_threshold_model):
        """Fig. 8: with gamma=0.5 and Ku=4/8 the attack pays above alpha ~ 0.163."""
        result = profitable_threshold(0.5, scenario=Scenario.REGULAR_ONLY, model=flat_threshold_model)
        assert result.alpha_star == pytest.approx(0.163, abs=0.004)

    def test_fig8_small_pool_loses_only_a_little(self, flat_threshold_model):
        """Fig. 8: below the threshold the loss is small thanks to uncle rewards."""
        params = MiningParams(alpha=0.10, gamma=0.5)
        rates = flat_threshold_model.revenue_rates(params)
        from repro.analysis.absolute import absolute_revenue

        revenue = absolute_revenue(rates, Scenario.REGULAR_ONLY).pool
        assert revenue < params.alpha  # still a loss ...
        assert params.alpha - revenue < 0.01  # ... but a small one (paper's observation)

    def test_fig9_total_revenue_soars_to_135_percent(self):
        """Fig. 9: with Ku=7/8 and alpha=0.45 total payouts reach ~135% of normal.

        The figure's flat schedules pay the reward "regardless of the distance", i.e.
        without the 6-block inclusion window, so the unlimited-window variant is used
        here (with the window the peak is ~1.27; both readings are recorded in
        EXPERIMENTS.md).
        """
        model = RevenueModel(FlatUncleSchedule(7 / 8, max_uncle_distance=10**6), max_lead=60)
        rates = model.revenue_rates(MiningParams(alpha=0.45, gamma=0.5))
        from repro.analysis.absolute import absolute_revenue

        total = absolute_revenue(rates, Scenario.REGULAR_ONLY).total
        assert total == pytest.approx(1.35, abs=0.04)


class TestFigure10Numbers:
    def test_scenario1_threshold_lower_than_bitcoin_for_all_gamma(self, ethereum_threshold_model):
        for gamma in (0.0, 0.3, 0.6, 0.9):
            ours = profitable_threshold(
                gamma, scenario=Scenario.REGULAR_ONLY, model=ethereum_threshold_model
            )
            assert ours.alpha_star < bitcoin_threshold(gamma)

    def test_scenario2_crosses_bitcoin_near_gamma_039(self, ethereum_threshold_model):
        below = profitable_threshold(
            0.30, scenario=Scenario.REGULAR_PLUS_UNCLE, model=ethereum_threshold_model
        )
        above = profitable_threshold(
            0.45, scenario=Scenario.REGULAR_PLUS_UNCLE, model=ethereum_threshold_model
        )
        assert below.alpha_star < bitcoin_threshold(0.30)
        assert above.alpha_star > bitcoin_threshold(0.45)

    def test_gamma_one_profitable_at_any_size(self, ethereum_threshold_model):
        result = profitable_threshold(
            1.0, scenario=Scenario.REGULAR_ONLY, model=ethereum_threshold_model
        )
        assert result.alpha_star == pytest.approx(0.0, abs=1e-3)


class TestSection6Numbers:
    def test_scenario1_thresholds_0054_to_0163(self, ethereum_threshold_model, flat_threshold_model):
        current = profitable_threshold(0.5, scenario=Scenario.REGULAR_ONLY, model=ethereum_threshold_model)
        proposed = profitable_threshold(0.5, scenario=Scenario.REGULAR_ONLY, model=flat_threshold_model)
        assert current.alpha_star == pytest.approx(0.054, abs=0.005)
        assert proposed.alpha_star == pytest.approx(0.163, abs=0.005)

    def test_scenario2_thresholds_0270_to_0356(self, ethereum_threshold_model, flat_threshold_model):
        current = profitable_threshold(
            0.5, scenario=Scenario.REGULAR_PLUS_UNCLE, model=ethereum_threshold_model
        )
        proposed = profitable_threshold(
            0.5, scenario=Scenario.REGULAR_PLUS_UNCLE, model=flat_threshold_model
        )
        assert current.alpha_star == pytest.approx(0.270, abs=0.01)
        assert proposed.alpha_star == pytest.approx(0.356, abs=0.01)

    def test_table2_distributions(self):
        model = RevenueModel(max_lead=40)
        column_030 = distribution_from_rates(model.revenue_rates(MiningParams(alpha=0.3, gamma=0.5)))
        column_045 = distribution_from_rates(model.revenue_rates(MiningParams(alpha=0.45, gamma=0.5)))
        paper_030 = {1: 0.527, 2: 0.295, 3: 0.111, 4: 0.043, 5: 0.017, 6: 0.007}
        paper_045 = {1: 0.284, 2: 0.249, 3: 0.171, 4: 0.125, 5: 0.096, 6: 0.075}
        for distance in range(1, 7):
            assert column_030.probability(distance) == pytest.approx(paper_030[distance], abs=0.005)
            assert column_045.probability(distance) == pytest.approx(paper_045[distance], abs=0.005)
        assert column_030.expectation == pytest.approx(1.75, abs=0.01)
        assert column_045.expectation == pytest.approx(2.72, abs=0.01)

    def test_eyal_sirer_bitcoin_threshold_at_gamma_half_is_a_quarter(self):
        assert bitcoin_threshold(0.5) == pytest.approx(0.25)
