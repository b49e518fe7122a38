"""Unit tests for the event-driven network simulator."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chain.validation import validate_tree
from repro.network import NetworkSimulator, multi_pool_topology, single_pool_topology
from repro.network.events import DELIVER, MINE, EventQueue
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import NetworkSimulationResult
from repro.simulation.runner import run_once

FIXTURE_PATH = Path(__file__).parent.parent / "fixtures" / "network_fixtures.json"


def config(
    alpha=0.3,
    gamma=0.5,
    blocks=3000,
    seed=1,
    *,
    strategy="selfish",
    num_honest=4,
    latency="zero",
    topology=None,
) -> SimulationConfig:
    if topology is None:
        topology = single_pool_topology(
            alpha, strategy=strategy, num_honest=num_honest, latency=latency
        )
    return SimulationConfig(
        params=MiningParams(alpha=alpha, gamma=gamma),
        num_blocks=blocks,
        seed=seed,
        topology=topology,
    )


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, MINE)
        queue.push(1.0, DELIVER, block_id=1, dst=0)
        time, _seq, kind, block_id, dst = queue.pop()
        assert time == 1.0 and kind == DELIVER and block_id == 1 and dst == 0

    def test_equal_times_pop_in_scheduling_order(self):
        queue = EventQueue()
        first = queue.push(1.0, DELIVER, block_id=1, dst=0)
        second = queue.push(1.0, DELIVER, block_id=2, dst=0)
        assert first < second
        assert queue.pop()[3] == 1
        assert queue.pop()[3] == 2
        assert not queue

    def test_reserved_seqs_interleave_with_pushed_events(self):
        queue = EventQueue()
        before = queue.push(1.0, MINE)
        reserved = queue.reserve_seq()
        after = queue.push(1.0, DELIVER, block_id=5, dst=2)
        assert before < reserved < after
        assert len(queue) == 2  # reservations never enter the heap
        assert queue.pop()[1] == before
        assert queue.pop()[1] == after


class TestRunBasics:
    def test_mines_exactly_the_configured_blocks(self):
        result = NetworkSimulator(config(blocks=500)).run()
        assert result.total_blocks == 500
        assert result.num_events == 500

    def test_same_seed_is_bit_for_bit_identical(self):
        first = NetworkSimulator(config(seed=3, latency="exponential:0.2")).run()
        second = NetworkSimulator(config(seed=3, latency="exponential:0.2")).run()
        assert first.pool_rewards == second.pool_rewards
        assert first.tie_wins == second.tie_wins
        assert [m.rewards for m in first.miners] == [m.rewards for m in second.miners]

    def test_different_seeds_differ(self):
        first = NetworkSimulator(config(seed=3)).run()
        second = NetworkSimulator(config(seed=4)).run()
        assert first.pool_rewards != second.pool_rewards

    def test_finished_tree_is_structurally_valid(self):
        simulator = NetworkSimulator(config(blocks=1500, latency="exponential:0.3"))
        simulator.run()  # validate_chain=True already validates; re-check explicitly
        validate_tree(simulator.tree)

    def test_runner_backend_builds_network_simulator(self):
        result = run_once(config(blocks=400), backend="network")
        assert isinstance(result, NetworkSimulationResult)

    def test_miner_outcomes_cover_the_topology(self):
        result = NetworkSimulator(config(num_honest=3)).run()
        assert [m.name for m in result.miners] == ["pool", "honest-0", "honest-1", "honest-2"]
        assert sum(m.blocks_mined for m in result.miners) == result.num_events
        assert sum(m.rewards.total for m in result.miners) == pytest.approx(result.total_reward)
        assert result.miner_relative_revenue("pool") == pytest.approx(
            result.relative_pool_revenue
        )

    def test_unknown_miner_name_rejected(self):
        result = NetworkSimulator(config(blocks=300)).run()
        with pytest.raises(Exception, match="no miner named"):
            result.miner_relative_revenue("nobody")


class TestNetworkBehaviour:
    def test_all_honest_zero_latency_never_forks(self):
        result = NetworkSimulator(config(strategy="honest", blocks=2000)).run()
        assert result.stale_blocks == 0
        assert result.uncle_blocks == 0
        assert result.effective_gamma is None
        # The honest-strategy pool still accounts to the pool party (baseline).
        assert result.relative_pool_revenue == pytest.approx(0.3, abs=0.05)

    def test_all_honest_with_latency_forks(self):
        result = NetworkSimulator(
            config(strategy="honest", blocks=3000, latency="exponential:0.4")
        ).run()
        assert result.stale_blocks + result.uncle_blocks > 0

    def test_effective_gamma_tracks_configured_gamma_at_zero_latency(self):
        result = NetworkSimulator(config(gamma=0.9, blocks=8000, seed=5)).run()
        assert result.effective_gamma == pytest.approx(0.9, abs=0.08)
        low = NetworkSimulator(config(gamma=0.1, blocks=8000, seed=5)).run()
        assert low.effective_gamma == pytest.approx(0.1, abs=0.08)

    def test_latency_erodes_the_pools_tie_breaking_power(self):
        fast = NetworkSimulator(config(gamma=0.9, blocks=6000, seed=5)).run()
        slow = NetworkSimulator(
            config(gamma=0.9, blocks=6000, seed=5, latency="constant:0.4")
        ).run()
        assert slow.effective_gamma < fast.effective_gamma

    def test_eclipsed_victim_mines_on_stale_tips(self):
        """An honest miner behind slow links loses more blocks than its peers."""
        topology = single_pool_topology(
            0.25,
            num_honest=3,
            latency="zero",
            link_latencies={
                ("pool", "honest-0"): "constant:2.5",
                ("honest-1", "honest-0"): "constant:2.5",
                ("honest-2", "honest-0"): "constant:2.5",
            },
        )
        result = NetworkSimulator(
            config(alpha=0.25, blocks=6000, seed=2, topology=topology)
        ).run()
        by_name = {m.name: m for m in result.miners}
        victim = by_name["honest-0"]
        peers = [by_name["honest-1"], by_name["honest-2"]]
        victim_rate = victim.rewards.total / victim.blocks_mined
        peer_rate = sum(p.rewards.total for p in peers) / sum(p.blocks_mined for p in peers)
        assert victim_rate < peer_rate

    def test_two_pools_share_the_attacker_load(self):
        topology = multi_pool_topology(
            [(0.22, "selfish"), (0.22, "selfish")], num_honest=4, latency="exponential:0.1"
        )
        result = NetworkSimulator(config(alpha=0.22, blocks=6000, seed=9, topology=topology)).run()
        share_a = result.miner_relative_revenue("pool-0")
        share_b = result.miner_relative_revenue("pool-1")
        assert share_a + share_b == pytest.approx(result.relative_pool_revenue)
        assert 0.05 < share_a < 0.5 and 0.05 < share_b < 0.5

    def test_every_registered_strategy_runs_on_the_network_backend(self):
        from repro.strategies import available_strategies

        for strategy in available_strategies():
            result = NetworkSimulator(config(strategy=strategy, blocks=600)).run()
            assert result.total_blocks == 600

    def test_pool_blocks_attributed_to_pool_kind(self):
        simulator = NetworkSimulator(config(blocks=800))
        simulator.run()
        tree = simulator.tree
        pool_blocks = [
            tree.block(block_id)
            for block_id in range(1, len(tree))
            if tree.is_pool_block(block_id)
        ]
        assert pool_blocks
        assert all(block.miner_index == 0 for block in pool_blocks)


class TestPinnedFixtures:
    @pytest.fixture(scope="class")
    def fixtures(self):
        with FIXTURE_PATH.open() as handle:
            return json.load(handle)["fixtures"]

    def _run(self, name):
        if name == "single_selfish_exponential":
            return NetworkSimulator(
                config(
                    alpha=0.33,
                    blocks=3000,
                    seed=7,
                    topology=single_pool_topology(
                        0.33, strategy="selfish", num_honest=4, latency="exponential:0.2"
                    ),
                )
            ).run()
        return NetworkSimulator(
            SimulationConfig(
                params=MiningParams(alpha=0.25, gamma=0.5),
                num_blocks=3000,
                seed=11,
                topology=multi_pool_topology(
                    [(0.25, "selfish"), (0.2, "lead_stubborn")],
                    num_honest=4,
                    latency="constant:0.1",
                ),
            )
        ).run()

    @pytest.mark.parametrize("name", ["single_selfish_exponential", "two_pool_constant"])
    def test_deterministic_run_matches_pinned_fixture(self, fixtures, name):
        expected = fixtures[name]
        result = self._run(name)
        assert result.relative_pool_revenue == pytest.approx(
            expected["relative_pool_revenue"], abs=1e-12
        )
        assert result.pool_rewards.total == expected["pool_total"]
        assert result.honest_rewards.total == expected["honest_total"]
        assert result.regular_blocks == expected["regular_blocks"]
        assert result.uncle_blocks == expected["uncle_blocks"]
        assert result.stale_blocks == expected["stale_blocks"]
        assert result.tie_wins == expected["tie_wins"]
        assert result.tie_losses == expected["tie_losses"]
        for miner in result.miners:
            assert miner.rewards.total == expected["miner_totals"][miner.name]
