"""Unit tests for the honest uncle-distance distribution (Table II machinery)."""

from __future__ import annotations

import pytest

from repro.analysis.revenue import RevenueModel
from repro.analysis.uncle_distance import distribution_from_rates
from repro.errors import ParameterError
from repro.params import MiningParams


def distribution_at(model: RevenueModel, alpha: float):
    """The honest uncle-distance distribution of ``model`` at ``(alpha, 0.5)``."""
    return distribution_from_rates(model.revenue_rates(MiningParams(alpha=alpha, gamma=0.5)))


class TestDistribution:
    def test_probabilities_sum_to_one(self, ethereum_model):
        distribution = distribution_at(ethereum_model, 0.3)
        assert distribution.total_probability() == pytest.approx(1.0)

    def test_distances_limited_to_protocol_window(self, ethereum_model):
        distribution = distribution_at(ethereum_model, 0.45)
        assert set(distribution.probabilities) <= set(range(1, 7))

    def test_table2_values_alpha_030(self, ethereum_model):
        distribution = distribution_at(ethereum_model, 0.3)
        paper = {1: 0.527, 2: 0.295, 3: 0.111, 4: 0.043, 5: 0.017, 6: 0.007}
        for distance, expected in paper.items():
            assert distribution.probability(distance) == pytest.approx(expected, abs=5e-3)
        assert distribution.expectation == pytest.approx(1.75, abs=0.02)

    def test_table2_values_alpha_045(self, ethereum_model):
        distribution = distribution_at(ethereum_model, 0.45)
        paper = {1: 0.284, 2: 0.249, 3: 0.171, 4: 0.125, 5: 0.096, 6: 0.075}
        for distance, expected in paper.items():
            assert distribution.probability(distance) == pytest.approx(expected, abs=5e-3)
        assert distribution.expectation == pytest.approx(2.72, abs=0.02)

    def test_expectation_grows_with_alpha(self, ethereum_model):
        small = distribution_at(ethereum_model, 0.2)
        large = distribution_at(ethereum_model, 0.45)
        assert large.expectation > small.expectation

    def test_as_rows_covers_every_distance(self, ethereum_model):
        distribution = distribution_at(ethereum_model, 0.3)
        rows = distribution.as_rows()
        assert [row[0] for row in rows] == [1, 2, 3, 4, 5, 6]
        assert sum(row[1] for row in rows) == pytest.approx(1.0)

    def test_probability_of_unseen_distance_is_zero(self, ethereum_model):
        distribution = distribution_at(ethereum_model, 0.3)
        assert distribution.probability(12) == 0.0

    def test_rates_are_kept_alongside_probabilities(self, ethereum_model):
        params = MiningParams(alpha=0.3, gamma=0.5)
        rates = ethereum_model.revenue_rates(params)
        distribution = distribution_from_rates(rates)
        assert sum(distribution.rates.values()) == pytest.approx(
            sum(
                rate
                for distance, rate in rates.honest_uncle_distance_rates.items()
                if distance <= 6
            )
        )

    def test_invalid_max_distance_rejected(self, ethereum_model):
        rates = ethereum_model.revenue_rates(MiningParams(alpha=0.3, gamma=0.5))
        with pytest.raises(ParameterError):
            distribution_from_rates(rates, max_distance=0)

    def test_model_built_on_the_fly(self):
        distribution = distribution_at(RevenueModel(max_lead=30), 0.3)
        assert distribution.probability(1) == pytest.approx(0.527, abs=5e-3)

    def test_empty_distribution_when_no_honest_uncles(self):
        # With gamma = 1 and a tiny pool there are almost no honest uncles, but the
        # container must behave sensibly even for an exactly empty distribution.
        model = RevenueModel(max_lead=20)
        rates = model.revenue_rates(MiningParams(alpha=0.001, gamma=1.0))
        distribution = distribution_from_rates(rates)
        assert distribution.total_probability() == pytest.approx(1.0) or distribution.probabilities == {}
