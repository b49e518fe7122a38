"""A dict-of-``Block`` reference tree: the lockstep oracle for ``ArrayBlockTree``.

Everything here is written as the protocol states it, with no indexes and no
vectorisation, so that the production tree's optimised paths have something
independent to agree with:

* :meth:`ReferenceTree.select_uncles` applies the uncle rules to *every* known
  block (the production tree only looks at its fork-children index);
* :meth:`ReferenceTree.fork_point_id` intersects full ancestor sets;
* :meth:`ReferenceTree.tip_ids` scans children lists block by block;
* :func:`settle_walk` credits rewards block by block along the main chain, in
  the order the vectorised settlement must reproduce bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.chain.block import Block, GENESIS_ID, MinerKind, make_genesis
from repro.chain.rewards import ChainSettlement
from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.rewards.schedule import RewardSchedule


class ReferenceTree:
    """An append-only tree of ``Block`` records keyed by id."""

    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {GENESIS_ID: make_genesis()}
        self.children: dict[int, list[int]] = {GENESIS_ID: []}
        self.published_ids: set[int] = {GENESIS_ID}

    def __len__(self) -> int:
        return len(self.blocks)

    def add_block(
        self,
        parent_id: int,
        miner: MinerKind,
        *,
        miner_index: int = 0,
        created_at: int = 0,
        uncle_ids: Iterable[int] = (),
        published: bool = True,
    ) -> int:
        """Append a block on ``parent_id`` and return its (sequential) id."""
        block_id = len(self.blocks)
        self.blocks[block_id] = Block(
            block_id=block_id,
            parent_id=parent_id,
            height=self.blocks[parent_id].height + 1,
            miner=miner,
            miner_index=miner_index,
            created_at=created_at,
            uncle_ids=tuple(uncle_ids),
        )
        self.children[block_id] = []
        self.children[parent_id].append(block_id)
        if published:
            self.published_ids.add(block_id)
        return block_id

    def publish(self, block_id: int) -> None:
        self.published_ids.add(block_id)

    def unpublished_ids(self) -> list[int]:
        return sorted(set(self.blocks) - self.published_ids)

    def ancestors(self, block_id: int) -> Iterator[Block]:
        """``block_id`` itself, then its ancestors down to genesis."""
        block = self.blocks[block_id]
        yield block
        while block.parent_id is not None:
            block = self.blocks[block.parent_id]
            yield block

    def select_uncles(
        self, parent_id: int, *, max_distance: int, max_count: int, known=None
    ) -> list[int]:
        """Rules 1-5 of ``ArrayBlockTree.select_uncles``, checked for every known block."""
        chain = list(self.ancestors(parent_id))
        chain_ids = {block.block_id for block in chain}
        new_height = chain[0].height + 1
        eligible = [
            block
            for block in self.blocks.values()
            if (known is None or block.block_id in known)
            and not block.is_genesis
            and 1 <= new_height - block.height <= max_distance  # rule 3
            and block.block_id not in chain_ids  # rule 1
            and block.parent_id in chain_ids  # rule 2
            and not any(block.block_id in ancestor.uncle_ids for ancestor in chain)  # rule 4
        ]
        eligible.sort(key=lambda block: (block.height, block.created_at, block.block_id))
        return [block.block_id for block in eligible[:max_count]]  # rule 5

    def fork_point_id(self, first_id: int, second_id: int) -> int:
        first_path = {block.block_id for block in self.ancestors(first_id)}
        for block in self.ancestors(second_id):
            if block.block_id in first_path:
                return block.block_id
        raise AssertionError("every block descends from genesis")

    def tip_ids(self, *, published_only: bool = False) -> list[int]:
        """Leaves; with ``published_only``, published blocks with no published child."""
        tips = []
        for block_id in sorted(self.blocks):
            if published_only and block_id not in self.published_ids:
                continue
            children = self.children[block_id]
            if published_only:
                children = [child for child in children if child in self.published_ids]
            if not children:
                tips.append(block_id)
        return tips

    def best_tip_id(self, *, published_only: bool) -> int:
        """Highest tip, then earliest creation, then lowest id."""
        tips = [self.blocks[tip] for tip in self.tip_ids(published_only=published_only)]
        best_height = max(block.height for block in tips)
        return min(
            (block for block in tips if block.height == best_height),
            key=lambda block: (block.created_at, block.block_id),
        ).block_id


def settle_walk(
    tree: ReferenceTree,
    tip_id: int,
    schedule: RewardSchedule,
    *,
    skip_heights_below: int = 0,
) -> ChainSettlement:
    """Settle ``tip_id``'s chain block by block (the reference for ``settle_rewards``)."""
    main_chain = list(tree.ancestors(tip_id))[::-1]
    main_ids = {block.block_id for block in main_chain}

    # One (static, uncle, nephew) slot triple per miner and per party, credited
    # in chain order with slot order within a block.
    per_miner_slots: dict[tuple[MinerKind, int], list[float]] = {}
    party_slots = {MinerKind.POOL: [0.0, 0.0, 0.0], MinerKind.HONEST: [0.0, 0.0, 0.0]}

    def credit(block: Block, slot: int, amount: float) -> None:
        per_miner_slots.setdefault((block.miner, block.miner_index), [0.0, 0.0, 0.0])[slot] += amount
        party_slots[block.miner][slot] += amount

    referenced: dict[int, int] = {}  # uncle id -> referencing distance
    regular = {MinerKind.POOL: 0, MinerKind.HONEST: 0}
    for block in main_chain:
        if block.is_genesis or block.height < skip_heights_below:
            continue
        credit(block, 0, schedule.static_reward)
        regular[block.miner] += 1
        for uncle_id in block.uncle_ids:
            uncle = tree.blocks[uncle_id]
            assert uncle_id not in main_ids and uncle_id not in referenced
            distance = block.height - uncle.height
            referenced[uncle_id] = distance
            if uncle.height >= skip_heights_below:
                credit(uncle, 1, schedule.uncle_reward(distance))
                credit(block, 2, schedule.nephew_reward(distance))

    uncles = {MinerKind.POOL: 0, MinerKind.HONEST: 0}
    distance_counts: dict[MinerKind, dict[int, int]] = {MinerKind.POOL: {}, MinerKind.HONEST: {}}
    stale = 0
    total = 0
    for block in tree.blocks.values():
        if block.is_genesis or block.height < skip_heights_below:
            continue
        total += 1
        if block.block_id in main_ids:
            continue
        if block.block_id in referenced:
            distance = referenced[block.block_id]
            uncles[block.miner] += 1
            counts = distance_counts[block.miner]
            counts[distance] = counts.get(distance, 0) + 1
        else:
            stale += 1

    def rewards(slots: list[float]) -> PartyRewards:
        return PartyRewards(static=slots[0], uncle=slots[1], nephew=slots[2])

    return ChainSettlement(
        split=RevenueSplit(
            pool=rewards(party_slots[MinerKind.POOL]),
            honest=rewards(party_slots[MinerKind.HONEST]),
        ),
        per_miner={key: rewards(slots) for key, slots in per_miner_slots.items()},
        regular_blocks=regular[MinerKind.POOL] + regular[MinerKind.HONEST],
        pool_regular_blocks=regular[MinerKind.POOL],
        honest_regular_blocks=regular[MinerKind.HONEST],
        uncle_blocks=uncles[MinerKind.POOL] + uncles[MinerKind.HONEST],
        pool_uncle_blocks=uncles[MinerKind.POOL],
        honest_uncle_blocks=uncles[MinerKind.HONEST],
        stale_blocks=stale,
        total_blocks=total,
        honest_uncle_distance_counts=dict(sorted(distance_counts[MinerKind.HONEST].items())),
        pool_uncle_distance_counts=dict(sorted(distance_counts[MinerKind.POOL].items())),
    )
