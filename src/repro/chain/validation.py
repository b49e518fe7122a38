"""Structural validation of block trees.

:func:`validate_tree` checks the invariants that every other chain component relies
on.  The simulators call it (optionally) at the end of a run and the property-based
tests call it after every generated operation sequence, so a violation anywhere in
the pipeline surfaces as a precise error message rather than as a silently wrong
revenue number.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..constants import MAX_UNCLE_DISTANCE, MAX_UNCLES_PER_BLOCK
from ..errors import ChainStructureError
from .arrays import ArrayBlockTree
from .block import GENESIS_ID


def validate_tree(
    tree: ArrayBlockTree,
    *,
    max_uncles_per_block: int = MAX_UNCLES_PER_BLOCK,
    max_uncle_distance: int = MAX_UNCLE_DISTANCE,
    enforce_uncle_rules: bool = True,
) -> None:
    """Check structural and protocol invariants of ``tree``; raise on violation.

    The checks run in this order; the first failing one raises a
    :class:`~repro.errors.ChainStructureError` naming its lowest offending
    block id, or for the reference checks its lowest offending ``(referencing
    block id, slot)``:

    1. the genesis block is block 0 with height 0 and no parent;
    2. every non-genesis block has a parent created before it;
    3. every non-genesis block's height is its parent's height plus one;
    4. children lists and parent pointers agree: every non-genesis block is
       listed exactly once, under its parent;
    5. no block carries more than ``max_uncles_per_block`` references;
    6. no block references itself as an uncle;
    7. no block references its parent as an uncle;

    and, with ``enforce_uncle_rules``, the protocol rules of every reference:

    8. the uncle is not the genesis block;
    9. the referencing distance is within ``1..max_uncle_distance``;
    10. the uncle is not an ancestor of the referencing block;
    11. the uncle's parent is an ancestor of the referencing block;
    12. no ancestor of the referencing block references the same uncle.

    ``add_block_id`` cannot produce violations of checks 1-4, 6 and 7; they
    are kept as safety checks.  Every check is a vectorised pass over the
    tree's columns except the last, which walks only the references of
    uncles referenced more than once anywhere in the tree.
    """
    parents = tree.parent_column()
    heights = tree.height_column()
    count = len(parents)
    if count == 0 or parents[0] != -1 or heights[0] != 0:
        raise ChainStructureError("malformed genesis block")
    if count > 1:
        ids = np.arange(1, count)
        non_genesis_parents = parents[1:]
        orphaned = (non_genesis_parents < 0) | (non_genesis_parents >= ids)
        if orphaned.any():
            block_id = int(ids[np.argmax(orphaned)])
            raise ChainStructureError(
                f"block {block_id} has parent {int(parents[block_id])}, which is not "
                "a block created before it"
            )
        misplaced = heights[1:] != heights[non_genesis_parents] + 1
        if misplaced.any():
            block_id = int(ids[np.argmax(misplaced)])
            raise ChainStructureError(
                f"block {block_id} has height {int(heights[block_id])}, "
                f"expected {int(heights[parents[block_id]]) + 1}"
            )
    _check_children(tree, parents)

    ref_blocks, ref_uncles = tree.reference_columns()
    if ref_blocks.size == 0:
        return
    per_block = np.bincount(ref_blocks, minlength=count)
    if int(per_block.max()) > max_uncles_per_block:
        block_id = int(np.argmax(per_block > max_uncles_per_block))
        raise ChainStructureError(
            f"block {block_id} references {int(per_block[block_id])} uncles "
            f"(protocol maximum is {max_uncles_per_block})"
        )

    def fail_first(offending: np.ndarray, message: str) -> None:
        """Raise for the first offending reference, if any (``message`` is a format)."""
        if offending.any():
            block_id, slot, uncle_id = first_offending_reference(ref_blocks, ref_uncles, offending)
            raise ChainStructureError(
                message.format(
                    block=f"block {block_id} (slot {slot})",
                    uncle=uncle_id,
                    distance=int(heights[block_id] - heights[uncle_id]),
                )
            )

    fail_first(ref_uncles == ref_blocks, "{block} references itself as an uncle")
    fail_first(ref_uncles == parents[ref_blocks], "{block} references its parent as an uncle")
    if not enforce_uncle_rules:
        return
    fail_first(ref_uncles == GENESIS_ID, "{block} references the genesis block as an uncle")
    distances = heights[ref_blocks] - heights[ref_uncles]
    fail_first(
        (distances < 1) | (distances > max_uncle_distance),
        "{block} references uncle {uncle} at distance {distance} "
        f"(allowed range 1..{max_uncle_distance})",
    )

    # Ancestry rules, all references at once: `level` walks the referencing
    # blocks' ancestor chains in lockstep (k-th step = k-th ancestor of the
    # referencing block's parent), guarded against the -1 genesis sentinel.
    # An uncle at distance d must NOT be the (d-1)-th ancestor (it would be on
    # the chain) and its parent MUST be the d-th (a child of the chain).
    depth = int(distances.max())
    level = parents[ref_blocks]
    uncle_parents = parents[ref_uncles]
    uncle_on_chain = np.zeros(ref_blocks.size, dtype=bool)
    uncle_parent_on_chain = np.zeros(ref_blocks.size, dtype=bool)
    for step in range(depth):
        at_uncle_height = distances - 1 == step
        uncle_on_chain |= at_uncle_height & (level == ref_uncles)
        safe = np.where(level >= 0, level, 0)
        level = np.where(level >= 0, parents[safe], -1)
        uncle_parent_on_chain |= at_uncle_height & (level == uncle_parents)
    fail_first(uncle_on_chain, "{block} references its own ancestor {uncle} as an uncle")
    fail_first(
        ~uncle_parent_on_chain,
        "uncle {uncle} referenced by {block} is not a child of the block's ancestry",
    )

    # Double references along an ancestry path: only an uncle referenced more
    # than once anywhere in the tree can violate this, so scalar-walk exactly
    # those few references (bounded by the inclusion window) in reference
    # order, which makes the first hit the lowest (block, slot).
    unique_uncles, reference_counts = np.unique(ref_uncles, return_counts=True)
    if (reference_counts > 1).any():
        duplicated = set(unique_uncles[reference_counts > 1].tolist())
        parent_list = tree._parents
        height_list = tree._heights
        uncle_tuples = tree._uncle_tuples
        for block_id, uncle_id in zip(ref_blocks.tolist(), ref_uncles.tolist()):
            if uncle_id not in duplicated:
                continue
            uncle_height = height_list[uncle_id]
            ancestor = parent_list[block_id]
            while True:
                if uncle_id in uncle_tuples[ancestor]:
                    slot = uncle_tuples[block_id].index(uncle_id)
                    raise ChainStructureError(
                        f"uncle {uncle_id} referenced by block {block_id} (slot {slot}) "
                        f"was already referenced by its ancestor {ancestor}"
                    )
                if height_list[ancestor] < uncle_height or ancestor == GENESIS_ID:
                    break
                ancestor = parent_list[ancestor]


def first_offending_reference(
    ref_blocks: np.ndarray, ref_uncles: np.ndarray, offending: np.ndarray
) -> tuple[int, int, int]:
    """``(referencing block id, slot, uncle id)`` of the first offending reference.

    The columns are in reference order (block id ascending, slot order within
    a block, every reference of a block present), so the first flagged entry
    is the lowest ``(block, slot)`` and its slot is its offset from the
    block's first entry.
    """
    index = int(np.argmax(offending))
    block_id = int(ref_blocks[index])
    slot = index - int(np.searchsorted(ref_blocks, block_id))
    return block_id, slot, int(ref_uncles[index])


def _check_children(tree: ArrayBlockTree, parents: np.ndarray) -> None:
    """Children lists and parent pointers agree (check 4 of :func:`validate_tree`)."""
    count = len(parents)
    children_map = tree._children
    entries = len(children_map)
    bucket_sizes = np.fromiter(map(len, children_map.values()), dtype=np.int64, count=entries)
    total_children = int(bucket_sizes.sum())
    child_arr = np.fromiter(
        chain.from_iterable(children_map.values()), dtype=np.int64, count=total_children
    )
    child_parents = np.repeat(
        np.fromiter(children_map.keys(), dtype=np.int64, count=entries), bucket_sizes
    )
    in_range = (child_arr > 0) & (child_arr < count)
    listed = child_arr[in_range]
    listed_under_parent = np.zeros(count, dtype=bool)
    listed_under_parent[listed[parents[listed] == child_parents[in_range]]] = True
    missing = ~listed_under_parent[1:]
    if missing.any():
        block_id = int(np.argmax(missing)) + 1
        raise ChainStructureError(
            f"block {block_id} missing from the children of its parent {int(parents[block_id])}"
        )
    if total_children != count - 1:
        raise ChainStructureError(
            f"children lists hold {total_children} entries for {count - 1} non-genesis blocks"
        )
