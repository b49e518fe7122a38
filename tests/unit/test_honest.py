"""Unit tests for the honest-mining baseline."""

from __future__ import annotations

import pytest

from repro.analysis.honest import honest_absolute_revenue, honest_relative_revenue
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule


class TestHonestBaseline:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.3, 0.45])
    def test_relative_revenue_equals_alpha(self, alpha):
        assert honest_relative_revenue(MiningParams(alpha=alpha, gamma=0.5)) == alpha

    def test_absolute_revenue_equals_alpha_for_normalised_reward(self):
        assert honest_absolute_revenue(MiningParams(alpha=0.3, gamma=0.5)) == pytest.approx(0.3)

    def test_absolute_revenue_scales_with_static_reward(self):
        schedule = EthereumByzantiumSchedule(static_reward=3.0)
        assert honest_absolute_revenue(MiningParams(alpha=0.3, gamma=0.5), schedule) == pytest.approx(0.9)
