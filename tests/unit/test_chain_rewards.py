"""Unit tests for end-of-run reward settlement."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.rewards import settle_rewards
from repro.errors import ChainStructureError, ParameterError
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule

SCHEDULE = EthereumByzantiumSchedule()


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST):
    block_ids = []
    for index in range(length):
        parent = tree.add_block_id(parent, miner, created_at=len(tree) + index)
        block_ids.append(parent)
    return block_ids


class TestStaticSettlement:
    def test_linear_chain_pays_one_static_reward_per_block(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 5)
        settlement = settle_rewards(tree, main[-1], SCHEDULE)
        assert settlement.regular_blocks == 5
        assert settlement.split.honest.static == pytest.approx(5.0)
        assert settlement.split.pool.total == 0.0
        assert settlement.uncle_blocks == 0
        assert settlement.stale_blocks == 0
        assert settlement.blocks_accounted() == settlement.total_blocks == 5

    def test_static_rewards_split_by_miner_kind(self):
        tree = ArrayBlockTree()
        first = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        second = tree.add_block_id(first, MinerKind.HONEST)
        settlement = settle_rewards(tree, second, SCHEDULE)
        assert settlement.split.pool.static == pytest.approx(1.0)
        assert settlement.split.honest.static == pytest.approx(1.0)
        assert settlement.pool_regular_blocks == 1
        assert settlement.honest_regular_blocks == 1

    def test_per_miner_accounting(self):
        tree = ArrayBlockTree()
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST, miner_index=3)
        second = tree.add_block_id(first, MinerKind.HONEST, miner_index=7)
        settlement = settle_rewards(tree, second, SCHEDULE)
        assert settlement.per_miner[(MinerKind.HONEST, 3)].static == pytest.approx(1.0)
        assert settlement.per_miner[(MinerKind.HONEST, 7)].static == pytest.approx(1.0)


class TestUncleSettlement:
    def build_tree_with_uncle(self, distance: int):
        """Main chain where a stale pool block is referenced at the given distance.

        The stale block sits at height 1 (a sibling of the first main-chain block), so
        a nephew at height ``distance + 1`` references it at exactly ``distance``.
        """
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, distance)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)  # height 1, sibling of main[0]
        nephew = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        assert tree.height_of(nephew) - tree.height_of(stale) == distance
        return tree, stale, nephew

    @pytest.mark.parametrize("distance", [1, 2, 4, 6])
    def test_uncle_and_nephew_rewards_follow_the_schedule(self, distance):
        tree, stale, nephew = self.build_tree_with_uncle(distance)
        settlement = settle_rewards(tree, nephew, SCHEDULE)
        assert settlement.uncle_blocks == 1
        assert settlement.pool_uncle_blocks == 1
        assert settlement.split.pool.uncle == pytest.approx(SCHEDULE.uncle_reward(distance))
        assert settlement.split.honest.nephew == pytest.approx(SCHEDULE.nephew_reward(distance))
        assert settlement.pool_uncle_distance_counts == {distance: 1}

    def test_honest_uncle_distance_histogram(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)  # honest stale block at height 1
        nephew = tree.add_block_id(main[-1], MinerKind.POOL, uncle_ids=[stale])
        settlement = settle_rewards(tree, nephew, SCHEDULE)
        assert settlement.honest_uncle_blocks == 1
        assert settlement.honest_uncle_distance_counts == {3: 1}
        assert settlement.split.pool.nephew == pytest.approx(SCHEDULE.nephew_reward(3))

    def test_unreferenced_stale_block_earns_nothing(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        tree.add_block_id(GENESIS_ID, MinerKind.POOL)  # stale, never referenced
        settlement = settle_rewards(tree, main[-1], SCHEDULE)
        assert settlement.uncle_blocks == 0
        assert settlement.stale_blocks == 1
        assert settlement.split.pool.total == 0.0

    def test_bitcoin_schedule_pays_no_uncle_rewards_even_when_referenced(self):
        tree, stale, nephew = self.build_tree_with_uncle(2)
        settlement = settle_rewards(tree, nephew, BitcoinSchedule())
        assert settlement.split.pool.uncle == 0.0
        assert settlement.split.honest.nephew == 0.0
        # The block still counts as referenced for classification purposes.
        assert settlement.uncle_blocks == 1


class TestStructureErrors:
    """Settlement's own checks, in its documented order."""

    def test_main_chain_block_referenced_as_uncle_raises(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        bad = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[main[0]])
        with pytest.raises(
            ChainStructureError,
            match=r"main-chain block 1 referenced as an uncle by block 3 \(slot 0\)",
        ):
            settle_rewards(tree, bad, SCHEDULE)

    def test_uncle_referenced_twice_along_main_chain_raises(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        other = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        first = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        second = tree.add_block_id(first, MinerKind.HONEST, uncle_ids=[other, stale])
        with pytest.raises(
            ChainStructureError,
            match=r"uncle 3 referenced twice along the main chain \(again by block 6, slot 1\)",
        ):
            settle_rewards(tree, second, SCHEDULE)

    def test_negative_distance_raises_parameter_error(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        low = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        bad = tree.add_block_id(low, MinerKind.HONEST, uncle_ids=[main[-1]])
        with pytest.raises(
            ParameterError, match=r"block 5 \(slot 0\) references uncle 3 at negative distance -1"
        ):
            settle_rewards(tree, bad, SCHEDULE)

    def test_main_chain_reference_wins_over_an_earlier_double_reference(self):
        # Two violations: block 5 references stale block 3 a second time, and
        # block 6 references its main-chain ancestor 1.  The main-chain check
        # runs first, so it reports block 6 although block 5 offends earlier.
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        first = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        middle = tree.add_block_id(first, MinerKind.HONEST, uncle_ids=[stale])
        last = tree.add_block_id(middle, MinerKind.HONEST, uncle_ids=[main[0]])
        assert (stale, first, middle, last) == (3, 4, 5, 6)
        with pytest.raises(
            ChainStructureError,
            match=r"main-chain block 1 referenced as an uncle by block 6 \(slot 0\)",
        ):
            settle_rewards(tree, last, SCHEDULE)

    def test_double_reference_wins_over_an_earlier_negative_distance(self):
        # Two violations: block 6 references uncle 5 from below (negative
        # distance), and block 7 references stale block 2 a second time.  The
        # double-reference check runs first, so it reports block 7.
        tree = ArrayBlockTree()
        base = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        first = tree.add_block_id(base, MinerKind.HONEST, uncle_ids=[stale])
        high = linear(tree, first, 2)[-1]  # height 4
        negative = tree.add_block_id(first, MinerKind.HONEST, uncle_ids=[high])  # height 3
        last = tree.add_block_id(negative, MinerKind.HONEST, uncle_ids=[stale])
        assert (stale, high, negative, last) == (2, 5, 6, 7)
        with pytest.raises(
            ChainStructureError, match=r"uncle 2 referenced twice .* \(again by block 7, slot 0\)"
        ):
            settle_rewards(tree, last, SCHEDULE)

    def test_references_below_the_warmup_are_not_checked(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        bad = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[main[0]])
        tip = linear(tree, bad, 2)[-1]
        settlement = settle_rewards(tree, tip, SCHEDULE, skip_heights_below=4)
        assert settlement.regular_blocks == 2


class TestOptions:
    def test_unknown_tip_rejected(self):
        tree = ArrayBlockTree()
        with pytest.raises(ChainStructureError, match="settlement tip 42 is not in the tree"):
            settle_rewards(tree, 42, SCHEDULE)

    def test_warmup_heights_excluded(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 6)
        settlement = settle_rewards(tree, main[-1], SCHEDULE, skip_heights_below=3)
        assert settlement.regular_blocks == 4  # heights 3, 4, 5, 6
        assert settlement.split.honest.static == pytest.approx(4.0)

    def test_pool_relative_revenue(self):
        tree = ArrayBlockTree()
        first = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        second = tree.add_block_id(first, MinerKind.HONEST)
        third = tree.add_block_id(second, MinerKind.HONEST)
        settlement = settle_rewards(tree, third, SCHEDULE)
        assert settlement.pool_relative_revenue == pytest.approx(1 / 3)
