"""Unit tests for :class:`repro.chain.arrays.ArrayBlockTree`."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import Block, GENESIS_ID, MinerKind, make_genesis
from repro.errors import ChainStructureError, UnknownBlockError


@pytest.fixture()
def tree() -> ArrayBlockTree:
    return ArrayBlockTree()


def build_linear_chain(tree: ArrayBlockTree, length: int, miner: MinerKind = MinerKind.HONEST):
    """Append ``length`` blocks on top of the genesis block and return their ids."""
    block_ids = []
    parent = GENESIS_ID
    for index in range(length):
        parent = tree.add_block_id(parent, miner, created_at=index)
        block_ids.append(parent)
    return block_ids


class TestInsertion:
    def test_new_tree_contains_only_genesis(self, tree):
        assert len(tree) == 1
        assert tree.block(GENESIS_ID) == make_genesis()

    def test_add_block_assigns_sequential_ids_and_heights(self, tree):
        block_ids = build_linear_chain(tree, 3)
        assert block_ids == [1, 2, 3]
        assert [tree.height_of(block_id) for block_id in block_ids] == [1, 2, 3]
        assert tree.next_block_id == 4

    def test_block_materialises_every_field(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        fork = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        nephew = tree.add_block_id(
            first, MinerKind.POOL, miner_index=2, created_at=7, uncle_ids=[fork]
        )
        assert tree.block(nephew) == Block(
            block_id=nephew,
            parent_id=first,
            height=2,
            miner=MinerKind.POOL,
            miner_index=2,
            created_at=7,
            uncle_ids=(fork,),
        )

    def test_block_unknown_id_rejected(self, tree):
        with pytest.raises(UnknownBlockError, match="block 5 is not in the tree"):
            tree.block(5)

    def test_add_block_unknown_parent_rejected(self, tree):
        with pytest.raises(UnknownBlockError, match="block 99 is not in the tree"):
            tree.add_block_id(99, MinerKind.HONEST)

    def test_add_block_unknown_uncle_rejected(self, tree):
        with pytest.raises(UnknownBlockError, match="uncle 55 is not in the tree"):
            tree.add_block_id(GENESIS_ID, MinerKind.HONEST, uncle_ids=[55])

    def test_duplicate_uncle_reference_rejected(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        fork = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        with pytest.raises(ChainStructureError, match="referenced twice by the same block"):
            tree.add_block_id(first, MinerKind.HONEST, uncle_ids=[fork, fork])

    def test_parent_as_uncle_rejected(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        with pytest.raises(ChainStructureError, match="its own parent"):
            tree.add_block_id(first, MinerKind.HONEST, uncle_ids=[first])

    def test_membership_and_scalar_accessors(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.POOL, created_at=4)
        assert first in tree and GENESIS_ID in tree
        assert 2 not in tree and -1 not in tree
        assert tree.is_pool_block(first) and not tree.is_pool_block(GENESIS_ID)
        assert tree.created_at_of(first) == 4

    def test_ids_at_height_in_creation_order(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        second = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        assert tree.ids_at_height(1) == [first, second]
        assert tree.count_at_height(1) == 2
        assert tree.ids_at_height(2) == []


class TestPublication:
    def test_blocks_published_by_default(self, tree):
        block_id = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        assert block_id in tree.published_ids

    def test_withheld_block_then_published(self, tree):
        block_id = tree.add_block_id(GENESIS_ID, MinerKind.POOL, published=False)
        assert block_id not in tree.published_ids
        tree.publish(block_id)
        assert block_id in tree.published_ids

    def test_unpublished_ids_listing(self, tree):
        visible = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        hidden = tree.add_block_id(GENESIS_ID, MinerKind.POOL, published=False)
        assert tree.unpublished_ids() == [hidden]
        assert tree.published_column().tolist() == [True, True, False]
        assert visible in tree.published_ids

    def test_published_column_follows_later_publication(self, tree):
        hidden = tree.add_block_id(GENESIS_ID, MinerKind.POOL, published=False)
        assert tree.published_column().tolist() == [True, False]
        tree.publish(hidden)
        assert tree.published_column().tolist() == [True, True]
        tree.add_block_id(hidden, MinerKind.POOL, published=False)
        assert tree.published_column().tolist() == [True, True, False]

    def test_publish_unknown_block_rejected(self, tree):
        with pytest.raises(UnknownBlockError):
            tree.publish(123)


class TestWalks:
    def test_main_chain_ids_returns_root_first_path(self, tree):
        block_ids = build_linear_chain(tree, 4)
        assert tree.main_chain_ids(block_ids[-1]) == [GENESIS_ID, 1, 2, 3, 4]

    def test_main_chain_ids_unknown_tip_rejected(self, tree):
        with pytest.raises(UnknownBlockError):
            tree.main_chain_ids(7)

    def test_parent_id_of_genesis_is_sentinel(self, tree):
        block_ids = build_linear_chain(tree, 2)
        assert tree.parent_id_of(block_ids[1]) == block_ids[0]
        assert tree.parent_id_of(GENESIS_ID) == -1

    def test_fork_point_of_two_branches(self, tree):
        block_ids = build_linear_chain(tree, 5)
        fork = tree.add_block_id(block_ids[1], MinerKind.POOL)
        deeper = tree.add_block_id(fork, MinerKind.POOL)
        for first, second, expected in [
            (block_ids[4], deeper, block_ids[1]),
            (deeper, block_ids[4], block_ids[1]),  # argument order is irrelevant
            (block_ids[4], block_ids[2], block_ids[2]),  # one chain contains the other
        ]:
            assert tree.fork_point_id(first, second) == expected

    def test_fork_point_of_a_block_with_itself(self, tree):
        block_ids = build_linear_chain(tree, 2)
        assert tree.fork_point_id(block_ids[1], block_ids[1]) == block_ids[1]

    def test_fork_point_of_disjoint_branches_is_genesis(self, tree):
        block_ids = build_linear_chain(tree, 2)
        other = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        assert tree.fork_point_id(block_ids[1], other) == GENESIS_ID

    def test_fork_point_unknown_block_rejected(self, tree):
        build_linear_chain(tree, 1)
        with pytest.raises(UnknownBlockError):
            tree.fork_point_id(1, 999)


class TestTipsAndHeights:
    def test_tips_of_linear_chain(self, tree):
        block_ids = build_linear_chain(tree, 3)
        assert tree.tip_ids() == [block_ids[-1]]

    def test_fork_produces_two_tips(self, tree):
        block_ids = build_linear_chain(tree, 2)
        fork = tree.add_block_id(block_ids[0], MinerKind.POOL)
        assert tree.tip_ids() == [block_ids[-1], fork]

    def test_published_only_tips_ignore_withheld_children(self, tree):
        block_ids = build_linear_chain(tree, 2)
        withheld = tree.add_block_id(block_ids[-1], MinerKind.POOL, published=False)
        assert tree.tip_ids(published_only=True) == [block_ids[-1]]
        assert tree.tip_ids() == [withheld]

    def test_published_only_tips_follow_publication(self, tree):
        block_ids = build_linear_chain(tree, 1)
        withheld = tree.add_block_id(block_ids[-1], MinerKind.POOL, published=False)
        fork = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        assert tree.tip_ids(published_only=True) == [block_ids[-1], fork]
        tree.publish(withheld)
        assert tree.tip_ids(published_only=True) == [withheld, fork]


class TestColumns:
    def test_columns_survive_geometric_growth(self):
        # A capacity below the block count forces several column growths.
        tree = ArrayBlockTree(capacity=2)
        parent = GENESIS_ID
        for index in range(40):
            miner = MinerKind.POOL if index % 3 == 0 else MinerKind.HONEST
            parent = tree.add_block_id(parent, miner, miner_index=index % 4)
            if index == 10:
                tree.height_column()  # a mid-run flush must not lose later appends
        assert tree.parent_column().tolist() == [-1, *range(40)]
        assert tree.height_column().tolist() == list(range(41))
        assert tree.kind_column().tolist() == [0] + [int(i % 3 == 0) for i in range(40)]
        assert tree.miner_index_column().tolist() == [-1] + [i % 4 for i in range(40)]

    def test_reference_columns_in_reference_order(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        forks = [tree.add_block_id(GENESIS_ID, MinerKind.POOL) for _ in range(2)]
        nephew = tree.add_block_id(first, MinerKind.HONEST, uncle_ids=forks[::-1])
        blocks, uncles = tree.reference_columns()
        assert blocks.tolist() == [nephew, nephew]
        assert uncles.tolist() == forks[::-1]

    def test_reference_columns_follow_later_references(self, tree):
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        assert tree.reference_columns()[0].tolist() == []
        nephew = tree.add_block_id(first, MinerKind.HONEST, uncle_ids=[stale])
        blocks, uncles = tree.reference_columns()
        assert (blocks.tolist(), uncles.tolist()) == ([nephew], [stale])
