"""The flat, array-backed block tree shared by both simulators' hot paths.

:class:`ArrayBlockTree` stores the per-block columns — parent, height, miner
kind, miner index, creation stamp, publication flag and fixed-width uncle
slots — in preallocated, geometrically grown numpy arrays instead of one
:class:`~repro.chain.block.Block` object per block.  Blocks are addressed by
id throughout; :meth:`ArrayBlockTree.block` materialises a ``Block`` record
for tests and diagnostics only.

Storage layout
--------------

Each column is a preallocated numpy array grown geometrically (capacity
doubles when exhausted), paired with a plain Python-list *write tail* of the
same values.  Appends go to the list (a list append plus the amortised bulk
copy is cheaper than an element-wise numpy store, and scalar reads from a
list avoid the numpy-scalar boxing tax on the simulators' per-event walks);
the numpy side is brought up to date in one vectorised slice assignment the
moment a vectorised consumer asks for a column view.  Uncle references are
kept both as per-block tuples (for the scalar eligibility walk) and as flat
``(referencing block, uncle)`` id arrays in reference order (for the
vectorised settlement and validation); the publication flag lives in a
Python set (the simulators' shared membership structure) and is lowered to a
boolean column on demand.

The per-event protocol both simulators drive — ``add_block_id`` /
``height_of`` / ``parent_id_of`` / ``is_pool_block`` / ``fork_point_id`` /
``select_uncles`` / ``ids_at_height`` — runs without any ``Block``
construction.  A dict-of-``Block`` reference tree in the test suite grows in
lockstep with this one and cross-checks blocks, uncle selection, fork points
and settlement.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

import numpy as np

from ..errors import ChainStructureError, UnknownBlockError
from .block import Block, GENESIS_ID, MinerKind, make_genesis

#: Initial column capacity when the caller gives no sizing hint.
_DEFAULT_CAPACITY = 1024


class ArrayBlockTree:
    """An append-only block tree backed by flat per-column arrays."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        capacity = max(int(capacity), 16)
        genesis = make_genesis()
        # Scalar write tails (the per-event hot path reads and appends these).
        self._parents: list[int] = [-1]
        self._heights: list[int] = [0]
        self._pool_flags: list[bool] = [False]
        self._miner_indices: list[int] = [genesis.miner_index]
        self._created: list[int] = [genesis.created_at]
        self._uncle_tuples: list[tuple[int, ...]] = [()]
        # Bound appends of the six per-block tails: the list objects are never
        # replaced (growth only ever appends), so the bound methods stay valid
        # and save a per-column method lookup on every add_block_id.
        self._append_parent = self._parents.append
        self._append_height = self._heights.append
        self._append_pool_flag = self._pool_flags.append
        self._append_miner_index = self._miner_indices.append
        self._append_created = self._created.append
        self._append_uncle_tuple = self._uncle_tuples.append
        # Flat uncle-reference lists in reference order (block id ascending,
        # slot order within a block) — the vectorised settlement's input.
        self._ref_blocks: list[int] = []
        self._ref_uncles: list[int] = []
        # Preallocated numpy columns, synced from the tails at `_flushed`.
        self._capacity = capacity
        self._parent_arr = np.empty(capacity, dtype=np.int64)
        self._height_arr = np.empty(capacity, dtype=np.int64)
        self._kind_arr = np.empty(capacity, dtype=np.int64)
        self._miner_arr = np.empty(capacity, dtype=np.int64)
        self._flushed = 0
        self._published_cache: np.ndarray | None = None
        self._ref_cache: tuple[np.ndarray, np.ndarray] | None = None
        # Auxiliary indexes, maintained incrementally (children lists are
        # created lazily — most blocks are leaves).  A block can only ever be
        # an uncle if its parent has at least two children (rules 1 and 2 of
        # select_uncles), so those few "fork children" are indexed by height.
        self._children: dict[int, list[int]] = {}
        self._published: set[int] = {GENESIS_ID}
        self._by_height: dict[int, list[int]] = {0: [GENESIS_ID]}
        self._fork_children_by_height: dict[int, list[int]] = {}
        # Sorted heights with at least one uncle candidate, the bucket lists in
        # the same order (sharing list objects with _fork_children_by_height),
        # and the highest such height: select_uncles answers "window empty" in
        # one compare and jumps straight to the (typically one or two)
        # occupied heights without hashing.
        self._fork_heights: list[int] = []
        self._fork_buckets: list[list[int]] = []
        self._max_fork_height = 0

    # ------------------------------------------------------------------ basic access
    def __len__(self) -> int:
        return len(self._heights)

    def __contains__(self, block_id: int) -> bool:
        return 0 <= block_id < len(self._heights)

    def block(self, block_id: int) -> Block:
        """Materialise the block with identifier ``block_id``."""
        if not 0 <= block_id < len(self._heights):
            raise UnknownBlockError(f"block {block_id} is not in the tree")
        parent_id = self._parents[block_id]
        return Block(
            block_id=block_id,
            parent_id=None if parent_id < 0 else parent_id,
            height=self._heights[block_id],
            miner=MinerKind.POOL if self._pool_flags[block_id] else MinerKind.HONEST,
            miner_index=self._miner_indices[block_id],
            created_at=self._created[block_id],
            uncle_ids=self._uncle_tuples[block_id],
        )

    @property
    def published_ids(self) -> set[int]:
        """The live set of published block ids (shared membership structure)."""
        return self._published

    @property
    def next_block_id(self) -> int:
        """Identifier the next added block will receive (ids are sequential)."""
        return len(self._heights)

    def count_at_height(self, height: int) -> int:
        """Number of blocks at ``height`` (cheap no-fork check for hot paths)."""
        return len(self._by_height.get(height, ()))

    # ------------------------------------------------------------------ insertion
    def add_block_id(
        self,
        parent_id: int,
        miner: MinerKind,
        *,
        miner_index: int = 0,
        created_at: int = 0,
        uncle_ids: Iterable[int] = (),
        published: bool = True,
    ) -> int:
        """Append a new block on top of ``parent_id`` and return its id.

        Structural checks only: the parent and every referenced uncle must
        already be in the tree, and a block cannot reference the same uncle
        twice or its own parent.  The protocol's eligibility rules are
        :meth:`select_uncles`'s job.  No ``Block`` object is built; this is
        both simulators' insertion hot path.
        """
        heights = self._heights
        count = len(heights)
        if not 0 <= parent_id < count:
            raise UnknownBlockError(f"block {parent_id} is not in the tree")
        uncle_tuple = tuple(uncle_ids)
        if uncle_tuple:
            for position, uncle_id in enumerate(uncle_tuple):
                if not 0 <= uncle_id < count:
                    raise UnknownBlockError(f"uncle {uncle_id} is not in the tree")
                if uncle_id in uncle_tuple[:position]:
                    raise ChainStructureError(
                        f"uncle {uncle_id} referenced twice by the same block"
                    )
                if uncle_id == parent_id:
                    raise ChainStructureError(
                        "a block cannot reference its own parent as an uncle"
                    )
            ref_blocks = self._ref_blocks
            ref_uncles = self._ref_uncles
            for uncle_id in uncle_tuple:
                ref_blocks.append(count)
                ref_uncles.append(uncle_id)

        block_id = count
        height = heights[parent_id] + 1
        self._append_parent(parent_id)
        self._append_height(height)
        self._append_pool_flag(miner is MinerKind.POOL)
        self._append_miner_index(miner_index)
        self._append_created(created_at)
        self._append_uncle_tuple(uncle_tuple)

        children = self._children
        siblings = children.get(parent_id)
        if siblings is None:
            children[parent_id] = [block_id]
        else:
            siblings.append(block_id)
            fork_children = self._fork_children_by_height
            if len(siblings) == 2:
                # The parent just forked: its first child becomes a candidate too.
                first_child = siblings[0]
                first_height = heights[first_child]
                bucket = fork_children.get(first_height)
                if bucket is None:
                    bucket = [first_child]
                    fork_children[first_height] = bucket
                    position = bisect_left(self._fork_heights, first_height)
                    self._fork_heights.insert(position, first_height)
                    self._fork_buckets.insert(position, bucket)
                else:
                    bucket.append(first_child)
            bucket = fork_children.get(height)
            if bucket is None:
                bucket = [block_id]
                fork_children[height] = bucket
                position = bisect_left(self._fork_heights, height)
                self._fork_heights.insert(position, height)
                self._fork_buckets.insert(position, bucket)
            else:
                bucket.append(block_id)
            if height > self._max_fork_height:
                self._max_fork_height = height
        by_height = self._by_height.get(height)
        if by_height is None:
            self._by_height[height] = [block_id]
        else:
            by_height.append(block_id)
        if published:
            self._published.add(block_id)
        self._published_cache = None
        return block_id

    # ------------------------------------------------------------------ publication
    def publish(self, block_id: int) -> None:
        """Mark ``block_id`` as published (visible to honest miners)."""
        if not 0 <= block_id < len(self._heights):
            raise UnknownBlockError(f"block {block_id} is not in the tree")
        self._published.add(block_id)
        self._published_cache = None

    def unpublished_ids(self) -> list[int]:
        """Ids of the still-unpublished blocks, ascending."""
        published = self._published
        return [bid for bid in range(len(self._heights)) if bid not in published]

    # ------------------------------------------------------------------ scalar protocol
    def height_of(self, block_id: int) -> int:
        """Height of ``block_id`` (unchecked scalar accessor; hot path)."""
        return self._heights[block_id]

    def parent_id_of(self, block_id: int) -> int:
        """Parent id of ``block_id``; ``-1`` for the genesis block (hot path)."""
        return self._parents[block_id]

    def is_pool_block(self, block_id: int) -> bool:
        """True when ``block_id`` was mined by a pool (hot path)."""
        return self._pool_flags[block_id]

    def created_at_of(self, block_id: int) -> int:
        """Creation stamp of ``block_id`` (hot path)."""
        return self._created[block_id]

    def ids_at_height(self, height: int) -> list[int]:
        """Block ids at ``height`` in creation order (read-only; hot path)."""
        return self._by_height.get(height, [])

    def fork_point_id(self, first_id: int, second_id: int) -> int:
        """Id of the deepest common ancestor of two blocks (lockstep descent)."""
        heights = self._heights
        count = len(heights)
        if not 0 <= first_id < count or not 0 <= second_id < count:
            raise UnknownBlockError("fork point of a block that is not in the tree")
        parents = self._parents
        first_height = heights[first_id]
        second_height = heights[second_id]
        while first_height > second_height:
            first_id = parents[first_id]
            first_height -= 1
        while second_height > first_height:
            second_id = parents[second_id]
            second_height -= 1
        while first_id != second_id:
            first_id = parents[first_id]
            second_id = parents[second_id]
        return first_id

    def select_uncles(
        self,
        parent_id: int,
        *,
        max_distance: int,
        max_count: int,
        known=None,
    ) -> list[int]:
        """Uncle references for a block mined on ``parent_id``, protocol-capped.

        A block ``U`` may be referenced as an uncle by a new block ``B`` mined
        on ``parent_id`` when all of the following hold (the Ethereum rules):

        1. ``U`` is not ``B`` itself and not an ancestor of ``B`` — it is a
           *stale* block from ``B``'s point of view;
        2. ``U``'s parent *is* an ancestor of ``B`` (an uncle must be a direct
           child of the chain being extended);
        3. the referencing distance ``height(B) - height(U)`` is at least 1
           and at most ``max_distance`` (6 in Ethereum);
        4. ``U`` has not already been referenced by an ancestor of ``B``;
        5. ``B`` carries at most ``max_count`` references (2 in Ethereum).

        The composing miner must also know ``U``: ``known`` is its membership
        set (honest miners know the blocks delivered to them), and ``None``
        means the full tree, the pool's view.  Eligible blocks are returned
        oldest first by ``(height, created_at, block_id)`` before the cap of
        rule 5, which maximises the chance of a reference landing before its
        window expires — the "reference all (unreferenced) uncle blocks"
        behaviour of the paper's Algorithm 1.

        One fused pass: the fork-children height index supplies the
        candidates inside the window (rule 3), and a single ancestor walk over
        the parent column settles rules 1, 2 and 4.
        """
        if max_count <= 0 or max_distance <= 0:
            return []
        heights = self._heights
        new_height = heights[parent_id] + 1
        low = new_height - max_distance
        if low < 1:
            low = 1
        if self._max_fork_height < low:
            return []  # no candidate anywhere in (or above) the window
        fork_heights = self._fork_heights
        index = bisect_left(fork_heights, low)
        total = len(fork_heights)
        if index >= total or fork_heights[index] >= new_height:
            return []

        # Candidate survival is independent per candidate and the result is
        # canonically ordered below, so the rules run per occupied height
        # bucket with no intermediate candidate list.  One lazy ancestor walk
        # serves every rule check: chain[k] is the ancestor at height
        # ``new_height - 1 - k``, descending only as deep as the lowest bucket
        # can probe (two heights below it, floored at the window / genesis) —
        # every membership question becomes one indexed compare.
        fork_buckets = self._fork_buckets
        parents = self._parents
        uncle_tuples = self._uncle_tuples
        chain: list[int] = [parent_id]
        append = chain.append
        floor = fork_heights[index] - 2
        if floor < low - 1:
            floor = low - 1
        if floor < 0:
            floor = 0
        ancestor = parent_id
        height = new_height - 1
        while height > floor and ancestor:
            ancestor = parents[ancestor]
            append(ancestor)
            height -= 1
        walk_last = len(chain) - 1

        selected: list[int] = []
        while index < total:
            bucket_height = fork_heights[index]
            if bucket_height >= new_height:
                break
            offset = new_height - 1 - bucket_height
            for candidate in fork_buckets[index]:
                # Rule 1: the uncle must not be on the chain being extended.
                if chain[offset] == candidate:
                    continue
                # Rule 2: the uncle's parent must be on the chain being extended.
                if chain[offset + 1] != parents[candidate]:
                    continue
                # The composing miner must know the candidate (None = full view).
                if known is not None and candidate not in known:
                    continue
                # Rule 4: not already referenced by an ancestor of the new block
                # (scan stops at the first ancestor below the uncle's parent).
                limit = offset + 2
                if limit > walk_last:
                    limit = walk_last
                referenced = False
                for position in range(limit + 1):
                    if candidate in uncle_tuples[chain[position]]:
                        referenced = True
                        break
                if not referenced:
                    selected.append(candidate)
            index += 1

        if len(selected) > 1:
            created = self._created
            selected.sort(key=lambda bid: (heights[bid], created[bid], bid))
        return selected[:max_count]

    # ------------------------------------------------------------------ chains and tips
    def main_chain_ids(self, tip_id: int) -> list[int]:
        """Ids of the path genesis → ``tip_id`` inclusive (one parent-column walk)."""
        if not 0 <= tip_id < len(self._heights):
            raise UnknownBlockError(f"block {tip_id} is not in the tree")
        parents = self._parents
        chain = [0] * (self._heights[tip_id] + 1)
        position = len(chain) - 1
        block_id = tip_id
        while position >= 0:
            chain[position] = block_id
            block_id = parents[block_id]
            position -= 1
        return chain

    def tip_ids(self, *, published_only: bool = False) -> list[int]:
        """Ids of the leaf blocks, ascending, optionally among published ones.

        With ``published_only`` a published block whose only children are
        unpublished still counts as a tip: it is the deepest block an honest
        miner can see on that branch.  One boolean pass over the parent column.
        """
        count = len(self._heights)
        parent = self.parent_column()
        if published_only:
            published = self.published_column()
            has_visible_child = np.zeros(count, dtype=bool)
            has_visible_child[parent[1:][published[1:]]] = True
            mask = published & ~has_visible_child
        else:
            has_child = np.zeros(count, dtype=bool)
            has_child[parent[1:]] = True
            mask = ~has_child
        return np.nonzero(mask)[0].tolist()

    # ------------------------------------------------------------------ column views
    def _flush(self) -> None:
        """Bring the numpy columns up to date with the scalar write tails."""
        count = len(self._heights)
        flushed = self._flushed
        if flushed == count:
            return
        if count > self._capacity:
            capacity = self._capacity
            while capacity < count:
                capacity *= 2
            self._capacity = capacity
            for name in ("_parent_arr", "_height_arr", "_kind_arr", "_miner_arr"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:flushed] = getattr(self, name)[:flushed]
                setattr(self, name, grown)
        self._parent_arr[flushed:count] = self._parents[flushed:]
        self._height_arr[flushed:count] = self._heights[flushed:]
        self._kind_arr[flushed:count] = self._pool_flags[flushed:]
        self._miner_arr[flushed:count] = self._miner_indices[flushed:]
        self._flushed = count

    def parent_column(self) -> np.ndarray:
        """Parent ids as int64 (``-1`` for genesis); read-only view."""
        self._flush()
        return self._parent_arr[: len(self._heights)]

    def height_column(self) -> np.ndarray:
        """Heights as int64; read-only view."""
        self._flush()
        return self._height_arr[: len(self._heights)]

    def kind_column(self) -> np.ndarray:
        """Miner kinds as int64 (``1`` pool, ``0`` honest); read-only view."""
        self._flush()
        return self._kind_arr[: len(self._heights)]

    def miner_index_column(self) -> np.ndarray:
        """Per-party miner indices as int64; read-only view."""
        self._flush()
        return self._miner_arr[: len(self._heights)]

    def published_column(self) -> np.ndarray:
        """Publication flags as a boolean column (rebuilt lazily from the set)."""
        cached = self._published_cache
        if cached is not None:
            return cached
        count = len(self._heights)
        column = np.zeros(count, dtype=bool)
        if self._published:
            column[np.fromiter(self._published, dtype=np.int64, count=len(self._published))] = True
        self._published_cache = column
        return column

    def reference_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(referencing block ids, uncle ids)`` arrays in reference order.

        Reference order is ascending referencing-block id with slot order
        within a block — which is also main-chain order for any chain's refs,
        because a parent's id is always smaller than its child's.
        """
        cached = self._ref_cache
        count = len(self._ref_blocks)
        if cached is not None and len(cached[0]) == count:
            return cached
        columns = (
            np.asarray(self._ref_blocks, dtype=np.int64),
            np.asarray(self._ref_uncles, dtype=np.int64),
        )
        self._ref_cache = columns
        return columns
