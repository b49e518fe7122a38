"""Unit tests for the longest-chain fork choice."""

from __future__ import annotations

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.fork_choice import best_tip_id


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST, published=True):
    block_ids = []
    for index in range(length):
        parent = tree.add_block_id(
            parent, miner, created_at=len(tree) + index, published=published
        )
        block_ids.append(parent)
    return block_ids


class TestLongestChain:
    def test_single_chain_tip(self):
        tree = ArrayBlockTree()
        block_ids = linear(tree, GENESIS_ID, 3)
        assert best_tip_id(tree, published_only=True) == block_ids[-1]

    def test_longer_branch_wins(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 2)
        long = linear(tree, GENESIS_ID, 3, MinerKind.POOL)
        assert best_tip_id(tree, published_only=True) == long[-1]

    def test_ties_broken_by_creation_order(self):
        tree = ArrayBlockTree()
        first = linear(tree, GENESIS_ID, 2)
        linear(tree, GENESIS_ID, 2, MinerKind.POOL)
        assert best_tip_id(tree, published_only=True) == first[-1]

    def test_equal_creation_ties_broken_by_lowest_id(self):
        tree = ArrayBlockTree()
        late = tree.add_block_id(GENESIS_ID, MinerKind.HONEST, created_at=9)
        first = tree.add_block_id(GENESIS_ID, MinerKind.HONEST, created_at=5)
        second = tree.add_block_id(GENESIS_ID, MinerKind.POOL, created_at=5)
        assert best_tip_id(tree, published_only=True) == first
        assert first < second and late < first

    def test_published_only_ignores_withheld_branch(self):
        tree = ArrayBlockTree()
        public = linear(tree, GENESIS_ID, 2)
        withheld = linear(tree, GENESIS_ID, 4, MinerKind.POOL, published=False)
        assert best_tip_id(tree, published_only=True) == public[-1]
        assert best_tip_id(tree, published_only=False) == withheld[-1]

    def test_genesis_only_tree(self):
        tree = ArrayBlockTree()
        assert best_tip_id(tree, published_only=True) == GENESIS_ID
