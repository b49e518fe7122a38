"""Unit tests for block-tree structural validation."""

from __future__ import annotations

import pytest

from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.validation import validate_tree
from repro.errors import ChainStructureError


def linear(tree: ArrayBlockTree, parent: int, length: int, miner=MinerKind.HONEST):
    block_ids = []
    for _ in range(length):
        parent = tree.add_block_id(parent, miner)
        block_ids.append(parent)
    return block_ids


class TestValidTrees:
    def test_empty_tree_is_valid(self):
        validate_tree(ArrayBlockTree())

    def test_linear_chain_is_valid(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 10)
        validate_tree(tree)

    def test_forked_tree_with_proper_uncle_reference_is_valid(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        validate_tree(tree)

    def test_uncle_referenced_on_two_branches_is_valid(self):
        # The same uncle referenced by two blocks that are not ancestors of
        # each other is not a double reference along any ancestry path.
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        tree.add_block_id(main[-1], MinerKind.POOL, uncle_ids=[stale])
        validate_tree(tree)


class TestViolations:
    def test_too_many_uncles_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stales = [tree.add_block_id(GENESIS_ID, MinerKind.POOL) for _ in range(3)]
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=stales)
        with pytest.raises(
            ChainStructureError, match=r"block 6 references 3 uncles \(protocol maximum is 2\)"
        ):
            validate_tree(tree, max_uncles_per_block=2)

    def test_distance_window_violation_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 8)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)  # height 1
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])  # distance 8
        with pytest.raises(
            ChainStructureError,
            match=r"block 10 \(slot 0\) references uncle 9 at distance 8 \(allowed range 1..6\)",
        ):
            validate_tree(tree)

    def test_ancestor_referenced_as_uncle_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[main[0]])
        with pytest.raises(
            ChainStructureError,
            match=r"block 4 \(slot 0\) references its own ancestor 1 as an uncle",
        ):
            validate_tree(tree)

    def test_uncle_with_off_chain_parent_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        stale_child = tree.add_block_id(stale, MinerKind.POOL)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale_child])
        with pytest.raises(
            ChainStructureError,
            match=r"uncle 5 referenced by block 6 \(slot 0\) is not a child of the block's ancestry",
        ):
            validate_tree(tree)

    def test_double_reference_along_ancestry_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        first_nephew = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        tree.add_block_id(first_nephew, MinerKind.HONEST, uncle_ids=[stale])
        with pytest.raises(
            ChainStructureError,
            match=r"uncle 3 referenced by block 5 \(slot 0\) was already referenced "
            r"by its ancestor 4",
        ):
            validate_tree(tree)

    def test_uncle_rules_can_be_disabled(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 8)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        # Too-far reference passes once protocol-rule checking is off.
        validate_tree(tree, enforce_uncle_rules=False)

    def test_genesis_reference_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[GENESIS_ID])
        with pytest.raises(
            ChainStructureError,
            match=r"block 3 \(slot 0\) references the genesis block as an uncle",
        ):
            validate_tree(tree)

    def test_lowest_slot_reported(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 8)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)  # height 1
        fresh = tree.add_block_id(main[5], MinerKind.POOL)  # height 7
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[fresh, stale])
        with pytest.raises(ChainStructureError, match=r"block 11 \(slot 1\) references uncle 9"):
            validate_tree(tree)

    def test_distance_check_wins_over_an_earlier_ancestry_violation(self):
        # Two violations: block 5 references its own ancestor 1, and the later
        # block 11 references stale block 10 from too far.  The distance check
        # runs before the ancestry checks, so it reports block 11 although
        # block 5 offends earlier.
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 4)
        bad_ancestry = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[main[0]])
        rest = linear(tree, bad_ancestry, 4)
        stale = tree.add_block_id(main[0], MinerKind.POOL)  # height 2
        too_far = tree.add_block_id(rest[-1], MinerKind.HONEST, uncle_ids=[stale])  # height 10
        assert (bad_ancestry, stale, too_far) == (5, 10, 11)
        with pytest.raises(
            ChainStructureError,
            match=r"block 11 \(slot 0\) references uncle 10 at distance 8",
        ):
            validate_tree(tree)


class TestSafetyChecks:
    """Structural checks ``add_block_id`` cannot violate, exercised on a corrupted tree."""

    def test_height_mismatch_detected(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 3)
        tree._heights[2] = 7
        with pytest.raises(ChainStructureError, match="block 2 has height 7, expected 2"):
            validate_tree(tree)

    def test_child_missing_from_parent_list_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        tree._children[main[0]].remove(main[1])
        with pytest.raises(
            ChainStructureError, match="block 2 missing from the children of its parent 1"
        ):
            validate_tree(tree)

    def test_stray_child_entry_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 3)
        tree._children[main[2]] = [main[1]]
        with pytest.raises(ChainStructureError, match="children lists hold 4 entries for 3"):
            validate_tree(tree)

    def test_malformed_genesis_detected(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 2)
        tree._heights[0] = 1
        with pytest.raises(ChainStructureError, match="malformed genesis block"):
            validate_tree(tree)

    def test_parent_created_after_child_detected(self):
        tree = ArrayBlockTree()
        linear(tree, GENESIS_ID, 3)
        tree._parents[2] = 3
        with pytest.raises(
            ChainStructureError, match="block 2 has parent 3, which is not a block created before it"
        ):
            validate_tree(tree)

    def test_self_reference_detected(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        nephew = tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        tree._ref_uncles[0] = nephew
        with pytest.raises(
            ChainStructureError, match=r"block 4 \(slot 0\) references itself as an uncle"
        ):
            validate_tree(tree)

    def test_parent_reference_detected_even_without_uncle_rules(self):
        tree = ArrayBlockTree()
        main = linear(tree, GENESIS_ID, 2)
        stale = tree.add_block_id(GENESIS_ID, MinerKind.POOL)
        tree.add_block_id(main[-1], MinerKind.HONEST, uncle_ids=[stale])
        tree._ref_uncles[0] = main[-1]
        with pytest.raises(
            ChainStructureError, match=r"block 4 \(slot 0\) references its parent as an uncle"
        ):
            validate_tree(tree, enforce_uncle_rules=False)
