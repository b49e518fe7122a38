"""Unit tests for the full chain simulator (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.absolute import Scenario
from repro.chain.validation import validate_tree
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator, RaceState
from repro.errors import SimulationError


def config(alpha=0.3, gamma=0.5, blocks=4000, seed=1, **kwargs) -> SimulationConfig:
    return SimulationConfig(
        params=MiningParams(alpha=alpha, gamma=gamma),
        schedule=EthereumByzantiumSchedule(),
        num_blocks=blocks,
        seed=seed,
        **kwargs,
    )


class TestRaceState:
    def test_initial_lengths(self):
        race = RaceState(root_id=0)
        assert race.private_length == 0
        assert race.public_length == 0
        assert race.pool_tip() == 0
        assert race.honest_tip() == 0
        assert race.pool_published_tip() == 0

    def test_invariant_violation_detected(self):
        race = RaceState(root_id=0, pool_branch=[1], published_count=1, honest_branch=[])
        with pytest.raises(SimulationError):
            race.check_invariants()

    def test_published_count_cannot_exceed_branch(self):
        race = RaceState(root_id=0, pool_branch=[1], published_count=2, honest_branch=[2, 3])
        with pytest.raises(SimulationError):
            race.check_invariants()


class TestDeterminismAndStructure:
    def test_same_seed_reproduces_the_same_tree(self):
        first = ChainSimulator(config(seed=5)).run()
        second = ChainSimulator(config(seed=5)).run()
        assert first.pool_rewards.isclose(second.pool_rewards)
        assert first.regular_blocks == second.regular_blocks
        assert first.uncle_blocks == second.uncle_blocks

    def test_different_seeds_differ(self):
        first = ChainSimulator(config(seed=5)).run()
        second = ChainSimulator(config(seed=6)).run()
        assert first.pool_rewards.total != pytest.approx(second.pool_rewards.total, abs=1e-12)

    def test_every_mined_block_is_accounted_for(self):
        result = ChainSimulator(config()).run()
        assert result.total_blocks == result.config.num_blocks
        assert result.regular_blocks + result.uncle_blocks + result.stale_blocks == pytest.approx(
            result.total_blocks
        )

    def test_final_tree_passes_structural_validation(self):
        simulator = ChainSimulator(config(blocks=2500))
        simulator.run()
        validate_tree(simulator.tree)

    def test_num_events_matches_block_count(self):
        result = ChainSimulator(config(blocks=1000)).run()
        assert result.num_events == 1000


class TestStrategyBehaviour:
    def test_all_honest_when_alpha_zero(self):
        result = ChainSimulator(config(alpha=0.0, blocks=1500)).run()
        assert result.pool_rewards.total == 0.0
        assert result.stale_blocks == 0
        assert result.uncle_blocks == 0
        assert result.regular_blocks == result.total_blocks

    def test_honest_mode_produces_no_forks(self):
        result = ChainSimulator(config(blocks=1500, strategy="honest")).run()
        assert result.stale_blocks == 0
        assert result.uncle_blocks == 0
        assert result.relative_pool_revenue == pytest.approx(0.3, abs=0.05)

    def test_selfish_mode_produces_forks(self):
        result = ChainSimulator(config(alpha=0.35, blocks=4000)).run()
        assert result.uncle_blocks > 0
        assert result.stale_blocks >= 0
        assert result.regular_blocks < result.total_blocks

    def test_large_pool_earns_more_than_fair_share(self):
        result = ChainSimulator(config(alpha=0.4, blocks=20_000)).run()
        assert result.pool_absolute_revenue(Scenario.REGULAR_ONLY) > 0.4

    def test_small_pool_earns_less_than_fair_share_without_uncle_rewards(self):
        # Under the Ethereum schedule the scenario-1 threshold is only ~0.054, so a
        # clearly unprofitable example needs the Bitcoin-style schedule (threshold
        # 0.25 at gamma = 0.5), where a 15% pool loses a large fraction of its income.
        from repro.rewards.schedule import BitcoinSchedule

        bitcoin_config = SimulationConfig(
            params=MiningParams(alpha=0.15, gamma=0.5),
            schedule=BitcoinSchedule(),
            num_blocks=20_000,
            seed=1,
        )
        result = ChainSimulator(bitcoin_config).run()
        # The Eyal-Sirer relative revenue at alpha=0.15, gamma=0.5 is ~0.123 < 0.15.
        assert result.pool_absolute_revenue(Scenario.REGULAR_ONLY) < 0.14

    def test_gamma_one_still_wastes_no_pool_blocks(self):
        # With gamma = 1 every honest tie-break helps the pool; the pool should lose
        # (essentially) no blocks and earn more than its share.
        result = ChainSimulator(config(alpha=0.3, gamma=1.0, blocks=15_000)).run()
        pool_blocks_lost = result.pool_uncle_blocks
        assert pool_blocks_lost / result.total_blocks < 0.01
        assert result.pool_absolute_revenue(Scenario.REGULAR_ONLY) > 0.3

    def test_pool_uncles_are_all_at_distance_one(self):
        result = ChainSimulator(config(alpha=0.35, blocks=10_000)).run()
        distances = set(result.pool_uncle_distance_counts)
        assert distances <= {1}

    def test_uncle_references_capped_by_config(self):
        simulator = ChainSimulator(config(blocks=3000, max_uncles_per_block=1))
        simulator.run()
        ref_blocks, _ = simulator.tree.reference_columns()
        assert ref_blocks.size > 0
        assert np.bincount(ref_blocks).max() <= 1

    def test_no_uncle_references_when_disabled(self):
        simulator = ChainSimulator(config(blocks=2000, max_uncles_per_block=0))
        result = simulator.run()
        ref_blocks, _ = simulator.tree.reference_columns()
        assert ref_blocks.size == 0
        assert result.uncle_blocks == 0

    def test_warmup_blocks_reduce_accounted_totals(self):
        full = ChainSimulator(config(blocks=3000, warmup_blocks=0, seed=9)).run()
        trimmed = ChainSimulator(config(blocks=3000, warmup_blocks=500, seed=9)).run()
        assert trimmed.total_blocks < full.total_blocks


class TestStepwiseExecution:
    def test_manual_stepping_matches_run(self):
        auto = ChainSimulator(config(blocks=800, seed=3)).run()
        manual_simulator = ChainSimulator(config(blocks=800, seed=3))
        for _ in range(800):
            manual_simulator.step()
        manual_simulator.finalise()
        settlement = manual_simulator.settle()
        assert settlement.split.pool.total == pytest.approx(auto.pool_rewards.total)
        assert settlement.regular_blocks == auto.regular_blocks

    def test_race_invariants_hold_after_every_step(self):
        simulator = ChainSimulator(config(blocks=400, seed=13))
        for _ in range(400):
            simulator.step()
            assert simulator.race.published_count == len(simulator.race.honest_branch)

    def test_tree_records_pool_and_honest_blocks(self):
        simulator = ChainSimulator(config(alpha=0.4, blocks=2000, seed=2))
        simulator.run()
        pool_blocks = int(simulator.tree.kind_column()[1:].sum())
        assert len(simulator.tree) - 1 == 2000
        assert pool_blocks == pytest.approx(0.4 * 2000, rel=0.15)
