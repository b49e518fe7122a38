"""Block objects for the simulated Ethereum-style chain.

A block records who mined it (the selfish pool or an honest miner), its parent, its
height, the event index at which it was created, and the uncle references it carries.
The simulators store blocks as columns of :class:`repro.chain.arrays.ArrayBlockTree`,
which also holds all mutable bookkeeping (children, publication status); a
:class:`Block` record is materialised from it by id for tests and diagnostics.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

#: Identifier of the genesis block every tree starts from.
GENESIS_ID = 0


class MinerKind(enum.Enum):
    """Who mined a block: the selfish pool or some honest miner."""

    POOL = "pool"
    HONEST = "honest"

    @property
    def is_pool(self) -> bool:
        """True for blocks mined by the selfish pool."""
        return self is MinerKind.POOL

    @property
    def is_honest(self) -> bool:
        """True for blocks mined by honest miners."""
        return self is MinerKind.HONEST


class Block(NamedTuple):
    """One block of the simulated chain: an immutable, value-compared record.

    Attributes
    ----------
    block_id:
        Unique integer identifier assigned by the tree (creation order).
    parent_id:
        Identifier of the parent block, or ``None`` for the genesis block.
    height:
        Distance from the genesis block (genesis has height 0).
    miner:
        Which party mined the block.
    miner_index:
        Index of the individual miner within its party (0 for the pool; honest miners
        are numbered so that per-miner statistics can be collected).
    created_at:
        Index of the mining event that created the block (a logical clock).
    uncle_ids:
        Identifiers of the uncle blocks this block references.
    """

    block_id: int
    parent_id: int | None
    height: int
    miner: MinerKind
    miner_index: int = 0
    created_at: int = 0
    uncle_ids: tuple[int, ...] = ()

    @property
    def is_genesis(self) -> bool:
        """True for the genesis block (no parent)."""
        return self.parent_id is None

    def __str__(self) -> str:
        owner = "G" if self.is_genesis else ("P" if self.miner.is_pool else "H")
        return f"Block#{self.block_id}[h={self.height},{owner}]"


def make_genesis() -> Block:
    """Create the genesis block shared by every simulated tree.

    The genesis block is attributed to an honest "miner -1" purely so that it never
    contributes to any party's reward statistics (settlement skips it explicitly).
    """
    return Block(
        block_id=GENESIS_ID,
        parent_id=None,
        height=0,
        miner=MinerKind.HONEST,
        miner_index=-1,
        created_at=-1,
        uncle_ids=(),
    )
