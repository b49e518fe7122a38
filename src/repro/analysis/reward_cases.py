"""Probabilistic reward tracking per state transition (Appendix B, Cases 1-12).

Every transition of the selfish-mining chain corresponds to the creation of exactly
one new block, the *target block*.  The destiny of that block (regular, uncle or plain
stale), the referencing distance if it becomes an uncle, and the identity of the miner
that eventually earns the corresponding nephew reward cannot in general be read off
the transition itself — but, as the paper observes, their *probabilities* can, because
the future of the race only depends on the state the transition leads to.

:func:`transition_rewards` turns a labelled transition into a
:class:`TransitionRewards` record containing

* the probability the target block ends up regular / referenced uncle,
* the uncle referencing distance (when applicable),
* the expected static, uncle and nephew rewards credited to the selfish pool and to
  honest miners.

The twelve cases map one-to-one onto
:class:`~repro.markov.transitions.TransitionKind`.  The key derived quantities, straight
from the paper's Appendix B:

* a pool block mined while the pool already leads (cases 3, 6) is regular with
  probability 1 (Lemma 1);
* the pool's very first withheld block (case 2) is regular with probability
  ``alpha + alpha*beta + beta**2*gamma`` and otherwise becomes an uncle at distance 1,
  with the nephew reward going to honest miners;
* the honest block that forces a tie (case 4) is regular with probability
  ``beta*(1-gamma)`` and otherwise an uncle at distance 1, with the nephew reward
  going to the pool with probability ``alpha`` and to honest miners with probability
  ``beta*gamma``;
* an honest block mined against a pool lead of ``d >= 2`` (cases 7-10) always becomes
  an uncle at distance ``d``; its nephew reward goes to honest miners with probability
  ``beta**(d-1) * (1 + alpha*beta*(1-gamma))`` and to the pool otherwise;
* honest blocks that extend a losing honest branch (cases 11, 12) earn nothing.

:func:`fold_rewards` is the one place those records are summed: given one weight
per transition — a Monte Carlo visit count, or the long-run frequency
``pi(source) * rate`` — it settles the whole set as a single
``weights @ component_matrix`` product over :data:`REWARD_COMPONENTS`.  The
analytical model, the MDP policy evaluator and the compiled-table Monte Carlo
backend all settle through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import StateSpaceError
from ..markov.transitions import SelfishTransition, TransitionKind
from ..params import MiningParams
from ..rewards.breakdown import PartyRewards
from ..rewards.schedule import RewardSchedule

#: Component order of :meth:`TransitionRewards.component_vector`.  The first six
#: entries are the per-party reward breakdown, the rest the block-classification
#: probabilities a Monte Carlo run accumulates per event.  :func:`fold_rewards`
#: settles a set of transitions as one ``weights @ matrix`` product over them.
REWARD_COMPONENTS = (
    "pool_static",
    "pool_uncle",
    "pool_nephew",
    "honest_static",
    "honest_uncle",
    "honest_nephew",
    "regular",
    "pool_regular",
    "honest_regular",
    "uncle",
    "pool_uncle_blocks",
    "honest_uncle_blocks",
    "stale",
)


@dataclass(frozen=True)
class TransitionRewards:
    """Expected rewards attached to the target block of one transition.

    Attributes
    ----------
    transition:
        The labelled transition this record describes.
    pool, honest:
        Expected static/uncle/nephew rewards credited to each party, conditional on
        the transition happening (i.e. *not* yet weighted by the stationary
        probability of the source state or by the transition rate).
    regular_probability:
        Probability the target block ends up on the system main chain.
    uncle_probability:
        Probability the target block ends up as a *referenced* uncle (a stale block
        whose parent is regular and whose referencing distance is within the
        schedule's maximum).
    uncle_distance:
        The referencing distance the block would have as an uncle, or ``None`` when it
        can never become one.
    pool_mined_probability:
        Probability the target block was mined by the selfish pool (0, 1, or ``alpha``
        for the tie-resolution case where either side may mine it).
    """

    transition: SelfishTransition
    pool: PartyRewards
    honest: PartyRewards
    regular_probability: float
    uncle_probability: float
    uncle_distance: int | None
    pool_mined_probability: float

    @property
    def stale_probability(self) -> float:
        """Probability the target block ends up neither regular nor a referenced uncle."""
        return max(0.0, 1.0 - self.regular_probability - self.uncle_probability)

    def component_vector(self) -> tuple[float, ...]:
        """The record's per-event contributions in :data:`REWARD_COMPONENTS` order.

        Each entry is exactly the amount a scalar Monte Carlo accumulator adds to
        the corresponding total when this transition fires once, so
        ``visit_count * component`` reproduces repeated scalar accumulation up to
        float reassociation.
        """
        pool_mined = self.pool_mined_probability
        regular = self.regular_probability
        uncle = self.uncle_probability
        return (
            self.pool.static,
            self.pool.uncle,
            self.pool.nephew,
            self.honest.static,
            self.honest.uncle,
            self.honest.nephew,
            regular,
            regular * pool_mined,
            regular * (1.0 - pool_mined),
            uncle,
            uncle * pool_mined,
            uncle * (1.0 - pool_mined),
            self.stale_probability,
        )

    def distance_contributions(self) -> tuple[tuple[bool, int, float], ...]:
        """Per-event referenced-uncle mass by miner and distance.

        Each entry is ``(pool_mined, distance, value)``: the probability the target
        block becomes a referenced uncle at ``distance`` mined by the pool
        (``pool_mined``) or by honest miners.  Empty when it can never be one.
        """
        distance = self.uncle_distance
        uncle = self.uncle_probability
        pool_mined = self.pool_mined_probability
        if distance is None or uncle <= 0.0:
            return ()
        contributions: list[tuple[bool, int, float]] = []
        if pool_mined < 1.0:
            contributions.append((False, distance, uncle * (1.0 - pool_mined)))
        if pool_mined > 0.0:
            contributions.append((True, distance, uncle * pool_mined))
        return tuple(contributions)


@dataclass(frozen=True)
class RewardTotals:
    """Weighted totals of a set of transition records (one scalar per component).

    With visit counts as weights these are a Monte Carlo run's accumulated
    rewards and block counts; with ``pi(source) * rate`` weights they are the
    long-run rates per unit time.  The two reward triples and the seven block
    fields follow :data:`REWARD_COMPONENTS` order.
    """

    pool: PartyRewards
    honest: PartyRewards
    regular_blocks: float
    pool_regular_blocks: float
    honest_regular_blocks: float
    uncle_blocks: float
    pool_uncle_blocks: float
    honest_uncle_blocks: float
    stale_blocks: float
    honest_uncle_distance_counts: dict[int, float]
    pool_uncle_distance_counts: dict[int, float]


def fold_rewards(
    weights: Sequence[float],
    components: Sequence[tuple[float, ...]] | np.ndarray,
    distance_rows: Sequence[Sequence[tuple[bool, int, float]]],
) -> RewardTotals:
    """Settle weighted transition records into :class:`RewardTotals`.

    ``weights[k]`` weighs the ``k``-th record, whose
    :meth:`~TransitionRewards.component_vector` is ``components[k]`` and whose
    :meth:`~TransitionRewards.distance_contributions` is ``distance_rows[k]``.  The
    component totals are one ``weights @ components`` product; the per-distance
    maps are accumulated in record order, skipping zero weights.
    """
    matrix = np.asarray(components, dtype=np.float64).reshape(-1, len(REWARD_COMPONENTS))
    totals = (np.asarray(weights, dtype=np.float64) @ matrix).tolist()
    honest_distance: dict[int, float] = {}
    pool_distance: dict[int, float] = {}
    for weight, contributions in zip(weights, distance_rows):
        if not weight:
            continue
        for pool_mined, distance, value in contributions:
            target = pool_distance if pool_mined else honest_distance
            target[distance] = target.get(distance, 0.0) + weight * value
    return RewardTotals(
        PartyRewards(*totals[0:3]),
        PartyRewards(*totals[3:6]),
        *totals[6:],
        honest_uncle_distance_counts=dict(sorted(honest_distance.items())),
        pool_uncle_distance_counts=dict(sorted(pool_distance.items())),
    )


def _nephew_honest_probability(params: MiningParams, distance: int) -> float:
    """Probability honest miners win the nephew reward of an uncle at ``distance``.

    Appendix B (Cases 7-10): honest miners must first push the race back to ``(0, 0)``
    without the pool finding a block (probability ``beta**(distance-2)`` when the lead
    is ``distance``... folded into ``beta**(distance-1)`` below together with the final
    step), and then win the block that does the referencing, which they do with
    probability ``beta * (1 + alpha*beta*(1-gamma))``.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    if distance < 2:
        raise StateSpaceError(f"nephew race requires a pool lead of at least 2, got distance {distance}")
    probability = beta ** (distance - 1) * (1.0 + alpha * beta * (1.0 - gamma))
    # Guard against round-off pushing the value a hair above 1 for tiny alpha.
    return min(1.0, probability)


def _case_1(params: MiningParams, schedule: RewardSchedule, transition: SelfishTransition) -> TransitionRewards:
    """Honest block extends the consensus chain; it is regular with certainty."""
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(),
        honest=PartyRewards(static=schedule.static_reward),
        regular_probability=1.0,
        uncle_probability=0.0,
        uncle_distance=None,
        pool_mined_probability=0.0,
    )


def _case_2(params: MiningParams, schedule: RewardSchedule, transition: SelfishTransition) -> TransitionRewards:
    """The pool withholds its first block of a new race.

    Regular with probability ``alpha + alpha*beta + beta**2*gamma``; otherwise an
    uncle at distance 1 whose nephew reward goes to honest miners.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    regular_probability = alpha + alpha * beta + beta * beta * gamma
    uncle_probability = beta * beta * (1.0 - gamma)
    uncle_reward = schedule.uncle_reward(1)
    nephew_reward = schedule.nephew_reward(1)
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(
            static=schedule.static_reward * regular_probability,
            uncle=uncle_reward * uncle_probability,
        ),
        honest=PartyRewards(nephew=nephew_reward * uncle_probability),
        regular_probability=regular_probability,
        uncle_probability=uncle_probability if schedule.includable(1) else 0.0,
        uncle_distance=1,
        pool_mined_probability=1.0,
    )


def _pool_certain_regular(
    params: MiningParams, schedule: RewardSchedule, transition: SelfishTransition
) -> TransitionRewards:
    """Pool block mined on an existing lead; regular with probability 1 (Lemma 1)."""
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(static=schedule.static_reward),
        honest=PartyRewards(),
        regular_probability=1.0,
        uncle_probability=0.0,
        uncle_distance=None,
        pool_mined_probability=1.0,
    )


def _case_4(params: MiningParams, schedule: RewardSchedule, transition: SelfishTransition) -> TransitionRewards:
    """An honest block forces a 1-vs-1 tie.

    Regular with probability ``beta*(1-gamma)``; otherwise an uncle at distance 1.
    The nephew reward goes to the pool with probability ``alpha`` (it references the
    uncle from its winning block) and to honest miners with probability ``beta*gamma``.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    regular_probability = beta * (1.0 - gamma)
    uncle_probability = alpha + beta * gamma
    uncle_reward = schedule.uncle_reward(1)
    nephew_reward = schedule.nephew_reward(1)
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(nephew=nephew_reward * alpha),
        honest=PartyRewards(
            static=schedule.static_reward * regular_probability,
            uncle=uncle_reward * uncle_probability,
            nephew=nephew_reward * beta * gamma,
        ),
        regular_probability=regular_probability,
        uncle_probability=uncle_probability if schedule.includable(1) else 0.0,
        uncle_distance=1,
        pool_mined_probability=0.0,
    )


def _case_5(params: MiningParams, schedule: RewardSchedule, transition: SelfishTransition) -> TransitionRewards:
    """The 1-vs-1 tie resolves; whoever mines the resolving block gets a regular block."""
    alpha, beta = params.alpha, params.beta
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(static=schedule.static_reward * alpha),
        honest=PartyRewards(static=schedule.static_reward * beta),
        regular_probability=1.0,
        uncle_probability=0.0,
        uncle_distance=None,
        pool_mined_probability=alpha,
    )


def _honest_becomes_uncle(
    params: MiningParams,
    schedule: RewardSchedule,
    transition: SelfishTransition,
    distance: int,
) -> TransitionRewards:
    """Cases 7-10: an honest block loses to the pool's lead and becomes an uncle.

    The block is an uncle at ``distance`` with certainty; the nephew reward goes to
    honest miners with probability ``beta**(distance-1) * (1 + alpha*beta*(1-gamma))``.
    """
    uncle_reward = schedule.uncle_reward(distance)
    nephew_reward = schedule.nephew_reward(distance)
    honest_nephew_probability = _nephew_honest_probability(params, distance)
    pool_nephew_probability = 1.0 - honest_nephew_probability
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(nephew=nephew_reward * pool_nephew_probability),
        honest=PartyRewards(
            uncle=uncle_reward,
            nephew=nephew_reward * honest_nephew_probability,
        ),
        regular_probability=0.0,
        uncle_probability=1.0 if schedule.includable(distance) else 0.0,
        uncle_distance=distance,
        pool_mined_probability=0.0,
    )


def _no_reward(params: MiningParams, schedule: RewardSchedule, transition: SelfishTransition) -> TransitionRewards:
    """Cases 11 and 12: an honest block on a losing honest branch earns nothing."""
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(),
        honest=PartyRewards(),
        regular_probability=0.0,
        uncle_probability=0.0,
        uncle_distance=None,
        pool_mined_probability=0.0,
    )


def transition_rewards(
    transition: SelfishTransition,
    params: MiningParams,
    schedule: RewardSchedule,
) -> TransitionRewards:
    """Return the expected-reward record for ``transition`` (Appendix B case analysis)."""
    kind = transition.kind
    source = transition.source

    if kind is TransitionKind.HONEST_EXTENDS_CONSENSUS:
        return _case_1(params, schedule, transition)
    if kind is TransitionKind.POOL_HIDES_FIRST_BLOCK:
        return _case_2(params, schedule, transition)
    if kind is TransitionKind.POOL_BUILDS_LEAD_OF_TWO:
        return _pool_certain_regular(params, schedule, transition)
    if kind is TransitionKind.HONEST_FORCES_TIE:
        return _case_4(params, schedule, transition)
    if kind is TransitionKind.TIE_RESOLVED:
        return _case_5(params, schedule, transition)
    if kind is TransitionKind.POOL_EXTENDS_PRIVATE_LEAD:
        return _pool_certain_regular(params, schedule, transition)
    if kind is TransitionKind.HONEST_ON_PREFIX_LONG_LEAD:
        return _honest_becomes_uncle(params, schedule, transition, distance=source.lead)
    if kind is TransitionKind.HONEST_ON_PREFIX_LEAD_TWO:
        return _honest_becomes_uncle(params, schedule, transition, distance=2)
    if kind is TransitionKind.HONEST_CLOSES_LEAD_TWO:
        return _honest_becomes_uncle(params, schedule, transition, distance=2)
    if kind is TransitionKind.HONEST_FORKS_LONG_LEAD:
        return _honest_becomes_uncle(params, schedule, transition, distance=source.private)
    if kind is TransitionKind.HONEST_ON_HONEST_BRANCH:
        return _no_reward(params, schedule, transition)
    if kind is TransitionKind.HONEST_ON_HONEST_LEAD_TWO:
        return _no_reward(params, schedule, transition)
    raise StateSpaceError(f"unhandled transition kind {kind!r}")
