"""Integration: three independent Bitcoin implementations agree.

The Eyal-Sirer baseline exists in this repository in three forms:

1. the published closed-form revenue expression,
2. an explicit 1-dimensional Markov chain with deterministic reward tracking,
3. the paper's 2-dimensional Ethereum engine run with a Bitcoin reward schedule
   (no uncle or nephew rewards), plus
4. the full chain simulator run with the Bitcoin schedule.

They were written independently of each other, so their agreement pins down both the
Bitcoin baseline and the degenerate behaviour of the Ethereum machinery.
"""

from __future__ import annotations

import pytest
from reference_markov import BitcoinSelfishMiningModel

from repro.analysis.bitcoin import bitcoin_relative_revenue
from repro.analysis.revenue import RevenueModel
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator


class TestThreeWayAgreement:
    @pytest.mark.parametrize("alpha,gamma", [(0.15, 0.5), (0.25, 0.5), (0.35, 0.0), (0.42, 0.8)])
    def test_closed_form_vs_one_dimensional_vs_two_dimensional(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        closed = bitcoin_relative_revenue(params)
        one_dimensional = BitcoinSelfishMiningModel(max_lead=300).relative_pool_revenue(params)
        rates = RevenueModel(BitcoinSchedule(), max_lead=80).revenue_rates(params)
        two_dimensional = rates.pool.static / (rates.pool.static + rates.honest.static)
        assert one_dimensional == pytest.approx(closed, abs=1e-6)
        assert two_dimensional == pytest.approx(closed, abs=1e-5)

    def test_relative_revenue_at_a_quarter_is_fair_at_gamma_half(self):
        params = MiningParams(alpha=0.25, gamma=0.5)
        assert bitcoin_relative_revenue(params) == pytest.approx(0.25, abs=1e-9)

    def test_chain_simulator_with_bitcoin_schedule_matches_closed_form(self):
        params = MiningParams(alpha=0.35, gamma=0.5)
        config = SimulationConfig(
            params=params, schedule=BitcoinSchedule(), num_blocks=60_000, seed=17
        )
        simulated = ChainSimulator(config).run()
        # In Bitcoin the relative revenue is the share of main-chain blocks.
        share_of_rewards = simulated.relative_pool_revenue
        share_of_blocks = simulated.pool_regular_blocks / simulated.regular_blocks
        expected = bitcoin_relative_revenue(params)
        assert share_of_rewards == pytest.approx(expected, abs=0.01)
        assert share_of_blocks == pytest.approx(expected, abs=0.01)

    def test_no_uncles_are_ever_paid_under_the_bitcoin_schedule(self):
        params = MiningParams(alpha=0.4, gamma=0.5)
        config = SimulationConfig(
            params=params, schedule=BitcoinSchedule(), num_blocks=20_000, seed=3
        )
        simulated = ChainSimulator(config).run()
        assert simulated.pool_rewards.uncle == 0.0
        assert simulated.honest_rewards.uncle == 0.0
        assert simulated.pool_rewards.nephew == 0.0
        assert simulated.honest_rewards.nephew == 0.0
