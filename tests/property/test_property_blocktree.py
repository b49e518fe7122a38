"""Property-based tests for the block-tree substrate.

The strategy builds random but *protocol-consistent* trees: every generated action
either extends a random existing block or forks off one, and uncle references are only
attached when :meth:`~repro.chain.arrays.ArrayBlockTree.select_uncles` allows them —
exactly how the simulators compose blocks.  The resulting trees must always satisfy
the structural validator and a set of derived invariants.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.fork_choice import best_tip_id
from repro.chain.rewards import settle_rewards
from repro.chain.validation import validate_tree
from repro.rewards.schedule import EthereumByzantiumSchedule

SCHEDULE = EthereumByzantiumSchedule()

# Each action is (parent_choice, miner_is_pool, try_reference_uncles).
actions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.booleans(), st.booleans()),
    min_size=1,
    max_size=40,
)


def build_tree(action_list) -> ArrayBlockTree:
    tree = ArrayBlockTree()
    for step, (parent_choice, is_pool, reference) in enumerate(action_list):
        parent_id = parent_choice % len(tree)
        uncle_ids: list[int] = []
        if reference:
            uncle_ids = tree.select_uncles(parent_id, max_distance=6, max_count=2)
        tree.add_block_id(
            parent_id,
            MinerKind.POOL if is_pool else MinerKind.HONEST,
            created_at=step,
            uncle_ids=uncle_ids,
        )
    return tree


def best_tip(tree: ArrayBlockTree) -> int:
    return best_tip_id(tree, published_only=True)


class TestTreeInvariants:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_generated_trees_always_validate(self, action_list):
        tree = build_tree(action_list)
        validate_tree(tree)

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_heights_equal_path_lengths(self, action_list):
        tree = build_tree(action_list)
        for block_id in range(len(tree)):
            assert tree.height_of(block_id) == len(tree.main_chain_ids(block_id)) - 1

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_every_non_genesis_block_descends_from_genesis(self, action_list):
        tree = build_tree(action_list)
        for block_id in range(1, len(tree)):
            assert tree.main_chain_ids(block_id)[0] == GENESIS_ID

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_best_tip_has_maximum_height(self, action_list):
        tree = build_tree(action_list)
        assert tree.height_of(best_tip(tree)) == int(tree.height_column().max())

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_chain_paths_follow_parent_pointers(self, action_list):
        tree = build_tree(action_list)
        for block_id in range(len(tree)):
            path = tree.main_chain_ids(block_id)
            assert [tree.parent_id_of(child) for child in path[1:]] == path[:-1]


class TestSettlementInvariants:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_every_block_is_classified_exactly_once(self, action_list):
        tree = build_tree(action_list)
        settlement = settle_rewards(tree, best_tip(tree), SCHEDULE)
        assert settlement.blocks_accounted() == settlement.total_blocks == len(tree) - 1

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_static_rewards_equal_main_chain_length(self, action_list):
        tree = build_tree(action_list)
        settlement = settle_rewards(tree, best_tip(tree), SCHEDULE)
        assert settlement.split.total_static == pytest.approx(float(settlement.regular_blocks))

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_total_rewards_are_bounded(self, action_list):
        # Every block can earn at most one static reward, one uncle reward (< 1) and
        # two nephew rewards (2/32), so the grand total is below 2x the block count.
        tree = build_tree(action_list)
        settlement = settle_rewards(tree, best_tip(tree), SCHEDULE)
        assert settlement.split.total <= 2.0 * settlement.total_blocks

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_uncle_counts_match_distance_histograms(self, action_list):
        tree = build_tree(action_list)
        settlement = settle_rewards(tree, best_tip(tree), SCHEDULE)
        assert sum(settlement.honest_uncle_distance_counts.values()) == settlement.honest_uncle_blocks
        assert sum(settlement.pool_uncle_distance_counts.values()) == settlement.pool_uncle_blocks
