"""Unit tests for the uncle-eligibility rules of ``ArrayBlockTree.select_uncles``."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST):
    block_ids = []
    for index in range(length):
        parent = tree.add_block_id(parent, miner, created_at=len(tree) + index)
        block_ids.append(parent)
    return block_ids


def uncles(tree: ArrayBlockTree, parent_id: int, *, max_distance=6, max_count=2, known=None):
    return tree.select_uncles(
        parent_id, max_distance=max_distance, max_count=max_count, known=known
    )


@pytest.fixture()
def forked_tree():
    """A main chain of length 6 with a stale sibling of block 1 (a classic uncle)."""
    tree = ArrayBlockTree()
    main = linear(tree, GENESIS_ID, 6)
    stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
    return tree, main, stale


class TestEligibility:
    def test_sibling_of_main_chain_block_is_eligible(self, forked_tree):
        tree, main, stale = forked_tree
        assert uncles(tree, main[0]) == [stale]

    def test_ancestor_is_not_an_uncle(self, forked_tree):
        # main[0] is a fork child (genesis has two children) but it is on the
        # chain a block mined on main[3] extends (rule 1).
        tree, main, stale = forked_tree
        assert uncles(tree, main[3]) == [stale]

    def test_genesis_is_never_an_uncle(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        assert uncles(tree, main[-1]) == []

    def test_distance_window_enforced(self, forked_tree):
        tree, main, stale = forked_tree
        # New block on main[5] has height 7; the stale block has height 1 => distance 6.
        assert uncles(tree, main[5]) == [stale]
        extended = tree.add_block_id(main[5], MinerKind.HONEST)
        # Now the distance would be 7: too far (rule 3).
        assert uncles(tree, extended) == []

    def test_uncle_whose_parent_is_off_chain_rejected(self, forked_tree):
        tree, main, stale = forked_tree
        # A child of the stale block is not a valid uncle for the main chain: its
        # parent is not part of the chain being extended (rule 2).
        stale_child = tree.add_block_id(stale, MinerKind.POOL)
        tree.add_block_id(stale, MinerKind.POOL)  # makes stale_child a fork child
        assert stale_child not in uncles(tree, main[3])

    def test_already_referenced_uncle_rejected(self, forked_tree):
        tree, main, stale = forked_tree
        nephew = tree.add_block_id(main[4], MinerKind.HONEST, uncle_ids=[stale])
        # main[5] (now a sibling of the nephew) is eligible; stale is not (rule 4).
        assert uncles(tree, nephew) == [main[5]]

    def test_future_block_not_eligible(self, forked_tree):
        tree, main, _ = forked_tree
        late_fork = tree.add_block_id(main[3], MinerKind.POOL)
        # From the point of view of a block mined on main[1] the fork at height 5 is
        # in the future (distance would be non-positive).
        assert late_fork not in uncles(tree, main[1])

    def test_custom_distance_window(self, forked_tree):
        tree, main, stale = forked_tree
        assert uncles(tree, main[3], max_distance=2) == []
        assert uncles(tree, main[1], max_distance=2) == [stale]

    def test_unknown_candidates_filtered(self, forked_tree):
        tree, main, stale = forked_tree
        assert uncles(tree, main[2], known=set()) == []
        assert uncles(tree, main[2], known={stale}) == [stale]


class TestSelection:
    def test_eligible_uncles_sorted_oldest_first(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 4)
        old_stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        young_stale = tree.add_block_id(main[1], MinerKind.POOL)
        assert uncles(tree, main[3]) == [old_stale, young_stale]

    def test_same_height_ordered_by_creation_then_id(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        late = tree.add_block_id(GENESIS_ID, MinerKind.POOL, created_at=50)
        early = tree.add_block_id(GENESIS_ID, MinerKind.POOL, created_at=40)
        assert uncles(tree, main[-1]) == [early, late]

    def test_per_block_cap(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        stales = [tree.add_block_id(GENESIS_ID, MinerKind.POOL) for _ in range(3)]
        assert uncles(tree, main[-1]) == stales[:2]  # rule 5
        assert uncles(tree, main[-1], max_count=3) == stales
        assert uncles(tree, main[-1], max_count=0) == []

    def test_candidates_outside_window_filtered(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 9)
        tree.add_block_id(GENESIS_ID, MinerKind.POOL)  # height 1
        assert uncles(tree, main[8]) == []

    def test_empty_window_selects_nothing(self, forked_tree):
        tree, main, _ = forked_tree
        assert uncles(tree, main[0], max_distance=0) == []

    def test_linear_chain_has_no_candidates(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        assert uncles(tree, main[1]) == []
