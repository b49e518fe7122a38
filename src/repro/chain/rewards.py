"""End-of-run reward settlement over a finished block tree.

Given the final tree and the winning tip, settlement pays

* the static reward to the miner of every main-chain block,
* for every uncle reference carried by a main-chain block: the distance-dependent
  uncle reward to the uncle's miner and the nephew reward to the referencing block's
  miner.

It also classifies every block (regular / referenced uncle / plain stale) and collects
the per-distance histogram of honest referenced uncles, which is what Table II of the
paper reports.  The result is a :class:`ChainSettlement` that the simulation metrics
convert into the same revenue containers the analytical model produces, so that the
two can be compared number for number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ChainStructureError, ParameterError
from ..rewards.breakdown import PartyRewards, RevenueSplit
from ..rewards.schedule import RewardSchedule
from .arrays import ArrayBlockTree
from .block import MinerKind
from .validation import first_offending_reference


@dataclass(frozen=True)
class ChainSettlement:
    """The outcome of settling one finished block tree."""

    split: RevenueSplit
    per_miner: Mapping[tuple[MinerKind, int], PartyRewards]
    regular_blocks: int
    pool_regular_blocks: int
    honest_regular_blocks: int
    uncle_blocks: int
    pool_uncle_blocks: int
    honest_uncle_blocks: int
    stale_blocks: int
    total_blocks: int
    honest_uncle_distance_counts: Mapping[int, int] = field(default_factory=dict)
    pool_uncle_distance_counts: Mapping[int, int] = field(default_factory=dict)

    @property
    def main_chain_length(self) -> int:
        """Number of non-genesis blocks on the main chain."""
        return self.regular_blocks

    @property
    def pool_relative_revenue(self) -> float:
        """The pool's share of all settled rewards."""
        return self.split.pool_share()

    def blocks_accounted(self) -> int:
        """Regular + uncle + stale; must equal ``total_blocks`` (tests assert this)."""
        return self.regular_blocks + self.uncle_blocks + self.stale_blocks


def settle_rewards(
    tree: ArrayBlockTree,
    tip_id: int,
    schedule: RewardSchedule,
    *,
    skip_heights_below: int = 0,
) -> ChainSettlement:
    """Settle rewards for the chain ending at ``tip_id``.

    Parameters
    ----------
    tree:
        The finished block tree.
    tip_id:
        Identifier of the main-chain tip (normally the longest published tip).
    schedule:
        Reward schedule used for static/uncle/nephew amounts.
    skip_heights_below:
        Blocks at heights below this value are excluded from both rewards and counts.
        The simulator uses it to discard a warm-up prefix so that long-run averages are
        not biased by the empty-tree start.

    Only the references carried by the included main-chain blocks are settled.
    Before anything is paid, they are checked in this order, and the first
    failing check raises for its lowest offending ``(referencing block id,
    slot)``:

    1. the tip is in the tree (:class:`~repro.errors.ChainStructureError`);
    2. no main-chain block is referenced as an uncle (``ChainStructureError``);
    3. no uncle is referenced twice along the main chain — the second
       reference offends (``ChainStructureError``);
    4. no referencing distance is negative
       (:class:`~repro.errors.ParameterError`, as a schedule raises for one).

    The settlement is vectorised over the tree's columns.  Its floats are
    bit-identical to crediting block by block along the main chain: main-chain
    ids strictly increase towards the tip (a parent's id is smaller than its
    child's), so the tree's flat reference columns filtered to the included
    main blocks are already in chain order; and ``np.bincount`` accumulates
    float weights sequentially in input order, so every per-slot sum is the
    same sequence of additions.
    """
    if tip_id not in tree:
        raise ChainStructureError(f"settlement tip {tip_id} is not in the tree")
    skip = skip_heights_below
    heights = tree.height_column()
    kinds = tree.kind_column()
    miner_idx = tree.miner_index_column()
    count = len(heights)

    main_ids = np.asarray(tree.main_chain_ids(tip_id), dtype=np.int64)
    is_main = np.zeros(count, dtype=bool)
    is_main[main_ids] = True
    # Included main blocks (non-genesis, above the warm-up skip), chain order.
    m_ids = main_ids[1:]
    if skip > 0:
        m_ids = m_ids[heights[m_ids] >= skip]

    # Settled reference pairs: those of the included main blocks, in chain
    # order with slot order within a block.
    ref_blocks, ref_uncles = tree.reference_columns()
    included_main = np.zeros(count, dtype=bool)
    included_main[m_ids] = True
    ref_mask = included_main[ref_blocks]
    r_blocks = ref_blocks[ref_mask]
    r_uncles = ref_uncles[ref_mask]

    distances = heights[r_blocks] - heights[r_uncles]
    if r_uncles.size:
        on_main = is_main[r_uncles]
        if on_main.any():
            block_id, slot, uncle_id = first_offending_reference(r_blocks, r_uncles, on_main)
            raise ChainStructureError(
                f"main-chain block {uncle_id} referenced as an uncle by block "
                f"{block_id} (slot {slot})"
            )
        if np.unique(r_uncles).size != r_uncles.size:
            _, first_seen = np.unique(r_uncles, return_index=True)
            repeated = np.ones(r_uncles.size, dtype=bool)
            repeated[first_seen] = False
            block_id, slot, uncle_id = first_offending_reference(r_blocks, r_uncles, repeated)
            raise ChainStructureError(
                f"uncle {uncle_id} referenced twice along the main chain "
                f"(again by block {block_id}, slot {slot})"
            )
        if int(distances.min()) < 0:
            block_id, slot, uncle_id = first_offending_reference(r_blocks, r_uncles, distances < 0)
            raise ParameterError(
                f"block {block_id} (slot {slot}) references uncle {uncle_id} at "
                f"negative distance {heights[block_id] - heights[uncle_id]}"
            )

    # Price the encountered distances once (and only those — a custom schedule
    # must not be probed at distances no reference has).
    if distances.size:
        max_distance = int(distances.max())
        uncle_table = np.zeros(max_distance + 1, dtype=np.float64)
        nephew_table = np.zeros(max_distance + 1, dtype=np.float64)
        for distance in np.unique(distances):
            distance = int(distance)
            uncle_table[distance] = schedule.uncle_reward(distance)
            nephew_table[distance] = schedule.nephew_reward(distance)
    else:
        uncle_table = nephew_table = np.zeros(1, dtype=np.float64)

    # Rewarded references: the uncle itself must clear the warm-up skip.
    if skip > 0:
        pay_mask = heights[r_uncles] >= skip
        pr_blocks = r_blocks[pay_mask]
        pr_uncles = r_uncles[pay_mask]
        pay_distances = distances[pay_mask]
    else:
        pr_blocks = r_blocks
        pr_uncles = r_uncles
        pay_distances = distances
    uncle_amounts = uncle_table[pay_distances]
    nephew_amounts = nephew_table[pay_distances]

    static_reward = schedule.static_reward
    m_kinds = kinds[m_ids]
    static_weights = np.full(m_ids.size, static_reward, dtype=np.float64)
    static_by_party = np.bincount(m_kinds, weights=static_weights, minlength=2)
    uncle_by_party = np.bincount(kinds[pr_uncles], weights=uncle_amounts, minlength=2)
    nephew_by_party = np.bincount(kinds[pr_blocks], weights=nephew_amounts, minlength=2)
    pool_regular = int(np.count_nonzero(m_kinds))
    honest_regular = int(m_ids.size) - pool_regular

    # Per-miner totals via composite (kind, miner_index) codes; +1 absorbs the
    # genesis sentinel index -1 (creditable when skip == 0 pays a genesis uncle).
    stride = int(miner_idx.max()) + 2
    codes = 2 * stride
    static_codes = m_kinds * stride + miner_idx[m_ids] + 1
    uncle_codes = kinds[pr_uncles] * stride + miner_idx[pr_uncles] + 1
    nephew_codes = kinds[pr_blocks] * stride + miner_idx[pr_blocks] + 1
    static_by_code = np.bincount(static_codes, weights=static_weights, minlength=codes)
    uncle_by_code = np.bincount(uncle_codes, weights=uncle_amounts, minlength=codes)
    nephew_by_code = np.bincount(nephew_codes, weights=nephew_amounts, minlength=codes)
    credited = np.union1d(np.union1d(static_codes, uncle_codes), nephew_codes)
    per_miner: dict[tuple[MinerKind, int], PartyRewards] = {}
    for code in credited:
        code = int(code)
        per_miner[
            (MinerKind.POOL if code >= stride else MinerKind.HONEST, code % stride - 1)
        ] = PartyRewards(
            static=float(static_by_code[code]),
            uncle=float(uncle_by_code[code]),
            nephew=float(nephew_by_code[code]),
        )

    # Classification: every non-genesis block above the skip is regular (on the
    # main chain), a referenced uncle, or plain stale.
    included = heights >= skip
    included[0] = False
    total = int(np.count_nonzero(included))
    referenced_flag = np.zeros(count, dtype=bool)
    referenced_flag[r_uncles] = True
    classified_ids = np.nonzero(included & referenced_flag)[0]
    distance_of = np.zeros(count, dtype=np.int64)
    distance_of[r_uncles] = distances
    classified_kinds = kinds[classified_ids]
    classified_distances = distance_of[classified_ids]
    pool_uncles = int(np.count_nonzero(classified_kinds))
    honest_uncles = int(classified_ids.size) - pool_uncles
    stale = total - int(m_ids.size) - pool_uncles - honest_uncles

    pool = PartyRewards(
        static=float(static_by_party[1]),
        uncle=float(uncle_by_party[1]),
        nephew=float(nephew_by_party[1]),
    )
    honest = PartyRewards(
        static=float(static_by_party[0]),
        uncle=float(uncle_by_party[0]),
        nephew=float(nephew_by_party[0]),
    )
    return ChainSettlement(
        split=RevenueSplit(pool=pool, honest=honest),
        per_miner=per_miner,
        regular_blocks=pool_regular + honest_regular,
        pool_regular_blocks=pool_regular,
        honest_regular_blocks=honest_regular,
        uncle_blocks=pool_uncles + honest_uncles,
        pool_uncle_blocks=pool_uncles,
        honest_uncle_blocks=honest_uncles,
        stale_blocks=stale,
        total_blocks=total,
        honest_uncle_distance_counts=_distance_histogram(
            classified_distances[classified_kinds == 0]
        ),
        pool_uncle_distance_counts=_distance_histogram(
            classified_distances[classified_kinds == 1]
        ),
    )


def _distance_histogram(distances: np.ndarray) -> dict[int, int]:
    """``{distance: count}`` ascending by distance."""
    values, counts = np.unique(distances, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}
