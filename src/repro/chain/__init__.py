"""Blockchain substrate: blocks, the block tree, fork choice, validation and settlement.

The discrete-event simulators of :mod:`repro.simulation` and :mod:`repro.network` are
built on top of this subpackage, which knows nothing about mining strategies: it only
implements the data structures and protocol rules of an Ethereum-style chain with
uncle references — the array-backed block tree with its uncle-eligibility rules
(:meth:`ArrayBlockTree.select_uncles`), longest-chain fork choice, structural
validation, and the end-of-run reward settlement that pays static, uncle and nephew
rewards along the main chain.
"""

from .arrays import ArrayBlockTree
from .block import Block, GENESIS_ID, MinerKind
from .fork_choice import best_tip_id
from .rewards import ChainSettlement, settle_rewards
from .validation import validate_tree

__all__ = [
    "ArrayBlockTree",
    "Block",
    "ChainSettlement",
    "GENESIS_ID",
    "MinerKind",
    "best_tip_id",
    "settle_rewards",
    "validate_tree",
]
