"""The protocol-following (honest mining) baseline.

Under the paper's network model the broadcast delay is negligible, so a fully honest
system produces no stale blocks at all: every block is regular, every miner earns
exactly its hash-power share of the static rewards, and there are no uncle or nephew
rewards to distribute.  The pool's honest revenue is therefore simply ``alpha`` (per
unit of difficulty-normalised time), the straight line labelled "Honest Mining" in
Fig. 8 and the reference against which profitability thresholds are computed.
"""

from __future__ import annotations

from ..params import MiningParams
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule


def honest_relative_revenue(params: MiningParams) -> float:
    """The pool's revenue share when everyone follows the protocol (equals ``alpha``)."""
    return params.alpha


def honest_absolute_revenue(params: MiningParams, schedule: RewardSchedule | None = None) -> float:
    """The pool's absolute revenue per difficulty-normalised time unit under honest mining.

    With zero propagation delay there are no stale blocks, so the regular-block rate
    already equals the total block rate and both scenarios normalise identically; the
    result is ``alpha`` times the static reward (``alpha`` with the paper's ``Ks = 1``).
    """
    if schedule is None:
        schedule = EthereumByzantiumSchedule()
    return params.alpha * schedule.static_reward
