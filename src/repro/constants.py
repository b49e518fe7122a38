"""Protocol constants used throughout the reproduction.

The values mirror the Ethereum Byzantium release referenced by the paper (Section II-C
and Section III-B) and the Bitcoin conventions used for the Eyal–Sirer baseline.

All rewards in this package are expressed as fractions of the static block reward
``Ks`` (the paper normalises ``Ks = 1``), so the ether denomination below is only used
when a caller explicitly asks for absolute ether amounts.
"""

from __future__ import annotations

from typing import Final

#: Static block reward of the Byzantium release, in ether (paper, Section III-B).
BYZANTIUM_STATIC_REWARD_ETH: Final[float] = 3.0

#: Static block reward used by the analysis once normalised (``Ks = 1``).
NORMALISED_STATIC_REWARD: Final[float] = 1.0

#: Maximum referencing distance for which an uncle still earns a reward.
#: An uncle referenced at distance ``d`` earns ``(8 - d) / 8`` of the static reward
#: for ``1 <= d <= MAX_UNCLE_DISTANCE`` and nothing beyond that.
MAX_UNCLE_DISTANCE: Final[int] = 6

#: Denominator of the distance-based uncle reward formula ``(8 - d) / 8``.
UNCLE_REWARD_DENOMINATOR: Final[int] = 8

#: Nephew reward per referenced uncle, as a fraction of the static reward (1/32).
NEPHEW_REWARD_FRACTION: Final[float] = 1.0 / 32.0

#: Maximum number of uncle references a single block may carry (Ethereum protocol).
MAX_UNCLES_PER_BLOCK: Final[int] = 2

#: Default truncation of the Markov state space.  The paper (footnote 3) truncates the
#: private-branch length at 200 states and reports that this is accurate for
#: ``alpha <= 0.45``.
DEFAULT_STATE_TRUNCATION: Final[int] = 200

#: Default tie-breaking parameter gamma when honest miners use the uniform rule.
UNIFORM_TIE_BREAK_GAMMA: Final[float] = 0.5

#: Target number of blocks per simulation run in the paper's evaluation (Section V).
PAPER_BLOCKS_PER_RUN: Final[int] = 100_000

#: Number of simulation runs averaged in the paper's evaluation (Section V).
PAPER_NUM_RUNS: Final[int] = 10

#: Number of miners in the paper's simulated system (Section V).
PAPER_NUM_MINERS: Final[int] = 1_000
