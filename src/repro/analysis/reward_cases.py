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

Each case's formula is written once, as a row function of the parameter point and
the schedule's rewards at the row's uncle distance.  :func:`transition_rewards`
wraps one row in a record.  :class:`RewardRows` compiles a fixed list of
transitions instead: the transitions that share a case formula and distance
(:func:`row_key`) share a row, so the analytical model computes each of its 65
distinct rows once per parameter point (at ``max_lead = 60``) and gathers them
per transition, rather than building 300 records.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import StateSpaceError
from ..markov.state import State
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

#: A record's fields as one tuple, the form the Appendix-B row formulas return:
#: the pool's static, uncle and nephew rewards, the honest miners' three, then the
#: regular, referenced-uncle and pool-mined probabilities.
RowFields = tuple[float, float, float, float, float, float, float, float, float]


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
        pool, honest = self.pool, self.honest
        return _component_row(
            (
                pool.static,
                pool.uncle,
                pool.nephew,
                honest.static,
                honest.uncle,
                honest.nephew,
                self.regular_probability,
                self.uncle_probability,
                self.pool_mined_probability,
            )
        )

    def distance_contributions(self) -> tuple[tuple[bool, int, float], ...]:
        """Per-event referenced-uncle mass by miner and distance.

        Each entry is ``(pool_mined, distance, value)``: the probability the target
        block becomes a referenced uncle at ``distance`` mined by the pool
        (``pool_mined``) or by honest miners.  Empty when it can never be one.
        """
        return _distance_row(self.uncle_distance, self.uncle_probability, self.pool_mined_probability)


def _component_row(fields: RowFields) -> tuple[float, ...]:
    """A row's :data:`REWARD_COMPONENTS` from its record fields (see :data:`RowFields`)."""
    regular, uncle, pool_mined = fields[6:]
    return (
        *fields[:6],
        regular,
        regular * pool_mined,
        regular * (1.0 - pool_mined),
        uncle,
        uncle * pool_mined,
        uncle * (1.0 - pool_mined),
        max(0.0, 1.0 - regular - uncle),
    )


def _distance_row(
    distance: int | None, uncle: float, pool_mined: float
) -> tuple[tuple[bool, int, float], ...]:
    """A row's referenced-uncle mass by miner (:meth:`TransitionRewards.distance_contributions`)."""
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

    Appendix B (Cases 7-10): honest miners first bring the race back to ``(0, 0)``
    without the pool finding a block, with probability ``beta**(distance-2)``, and
    then mine the block that references the uncle, with probability
    ``beta*(1 + alpha*beta*(1-gamma))``.  The product is
    ``beta**(distance-1) * (1 + alpha*beta*(1-gamma))``.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    if distance < 2:
        raise StateSpaceError(f"nephew race requires a pool lead of at least 2, got distance {distance}")
    probability = beta ** (distance - 1) * (1.0 + alpha * beta * (1.0 - gamma))
    # Guard against round-off pushing the value a hair above 1 for tiny alpha.
    return min(1.0, probability)


#: A schedule resolved at one uncle distance ``d``: ``(static_reward,
#: uncle_reward(d), nephew_reward(d), includable(d))``.  The row formulas below
#: take it instead of the schedule, so a compiled model asks the schedule once
#: per distance rather than once per record.
ScheduleTerms = tuple[float, float, float, bool]


def _case_1(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """Honest block extends the consensus chain; it is regular with certainty."""
    return (0.0, 0.0, 0.0, terms[0], 0.0, 0.0, 1.0, 0.0, 0.0)


def _case_2(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """The pool withholds its first block of a new race.

    Regular with probability ``alpha + alpha*beta + beta**2*gamma``; otherwise an
    uncle at distance 1 whose nephew reward goes to honest miners.
    """
    static, uncle_reward, nephew_reward, includable = terms
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    regular_probability = alpha + alpha * beta + beta * beta * gamma
    uncle_probability = beta * beta * (1.0 - gamma)
    return (
        static * regular_probability,
        uncle_reward * uncle_probability,
        0.0,
        0.0,
        0.0,
        nephew_reward * uncle_probability,
        regular_probability,
        uncle_probability if includable else 0.0,
        1.0,
    )


def _pool_certain_regular(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """Pool block mined on an existing lead; regular with probability 1 (Lemma 1)."""
    return (terms[0], 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def _case_4(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """An honest block forces a 1-vs-1 tie.

    Regular with probability ``beta*(1-gamma)``; otherwise an uncle at distance 1.
    The nephew reward goes to the pool with probability ``alpha`` (it references the
    uncle from its winning block) and to honest miners with probability ``beta*gamma``.
    """
    static, uncle_reward, nephew_reward, includable = terms
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    regular_probability = beta * (1.0 - gamma)
    uncle_probability = alpha + beta * gamma
    return (
        0.0,
        0.0,
        nephew_reward * alpha,
        static * regular_probability,
        uncle_reward * uncle_probability,
        nephew_reward * beta * gamma,
        regular_probability,
        uncle_probability if includable else 0.0,
        0.0,
    )


def _case_5(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """The 1-vs-1 tie resolves; whoever mines the resolving block gets a regular block."""
    static = terms[0]
    alpha, beta = params.alpha, params.beta
    return (static * alpha, 0.0, 0.0, static * beta, 0.0, 0.0, 1.0, 0.0, alpha)


def _honest_becomes_uncle(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """Cases 7-10: an honest block loses to the pool's lead and becomes an uncle.

    The block is an uncle at ``distance`` with certainty; the nephew reward goes to
    honest miners with probability ``beta**(distance-1) * (1 + alpha*beta*(1-gamma))``.
    """
    _, uncle_reward, nephew_reward, includable = terms
    honest_nephew_probability = _nephew_honest_probability(params, distance)
    pool_nephew_probability = 1.0 - honest_nephew_probability
    return (
        0.0,
        0.0,
        nephew_reward * pool_nephew_probability,
        0.0,
        uncle_reward,
        nephew_reward * honest_nephew_probability,
        0.0,
        1.0 if includable else 0.0,
        0.0,
    )


def _no_reward(params: MiningParams, terms: ScheduleTerms, distance: int | None) -> RowFields:
    """Cases 11 and 12: an honest block on a losing honest branch earns nothing."""
    return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


_LEAD = attrgetter("lead")
_PRIVATE = attrgetter("private")

#: Each kind's row formula and its uncle distance: a number, ``None`` when the
#: target block can never be an uncle, or read off the source state.
_ROW_OF_KIND = {
    TransitionKind.HONEST_EXTENDS_CONSENSUS: (_case_1, None),
    TransitionKind.POOL_HIDES_FIRST_BLOCK: (_case_2, 1),
    TransitionKind.POOL_BUILDS_LEAD_OF_TWO: (_pool_certain_regular, None),
    TransitionKind.HONEST_FORCES_TIE: (_case_4, 1),
    TransitionKind.TIE_RESOLVED: (_case_5, None),
    TransitionKind.POOL_EXTENDS_PRIVATE_LEAD: (_pool_certain_regular, None),
    TransitionKind.HONEST_ON_PREFIX_LONG_LEAD: (_honest_becomes_uncle, _LEAD),
    TransitionKind.HONEST_ON_PREFIX_LEAD_TWO: (_honest_becomes_uncle, 2),
    TransitionKind.HONEST_CLOSES_LEAD_TWO: (_honest_becomes_uncle, 2),
    TransitionKind.HONEST_FORKS_LONG_LEAD: (_honest_becomes_uncle, _PRIVATE),
    TransitionKind.HONEST_ON_HONEST_BRANCH: (_no_reward, None),
    TransitionKind.HONEST_ON_HONEST_LEAD_TWO: (_no_reward, None),
}


def row_key(kind: TransitionKind, source: State) -> tuple[Callable[..., RowFields], int | None]:
    """The row formula of a ``kind`` transition out of ``source``, and its uncle distance.

    Two transitions with the same key have the same record fields at every
    parameter point: the cases that share a formula share it, and cases 7-10
    depend on the source state only through the distance.
    """
    entry = _ROW_OF_KIND.get(kind)
    if entry is None:
        raise StateSpaceError(f"unhandled transition kind {kind!r}")
    row, distance = entry
    return row, distance(source) if callable(distance) else distance


def _resolve_schedule(schedule: RewardSchedule, distance: int | None) -> ScheduleTerms:
    """``(static, uncle_reward, nephew_reward, includable)`` of ``schedule`` at ``distance``."""
    if distance is None:
        return schedule.static_reward, 0.0, 0.0, False
    return (
        schedule.static_reward,
        schedule.uncle_reward(distance),
        schedule.nephew_reward(distance),
        schedule.includable(distance),
    )


def transition_rewards(
    transition: SelfishTransition,
    params: MiningParams,
    schedule: RewardSchedule,
) -> TransitionRewards:
    """Return the expected-reward record for ``transition`` (Appendix B case analysis)."""
    row, distance = row_key(transition.kind, transition.source)
    fields = row(params, _resolve_schedule(schedule, distance), distance)
    return TransitionRewards(
        transition=transition,
        pool=PartyRewards(*fields[0:3]),
        honest=PartyRewards(*fields[3:6]),
        regular_probability=fields[6],
        uncle_probability=fields[7],
        uncle_distance=distance,
        pool_mined_probability=fields[8],
    )


class RewardRows:
    """The Appendix-B rows of a fixed list of transitions under one schedule, compiled once.

    ``moves`` gives each transition's source state and kind.  Each transition
    gets a row key (:func:`row_key`); transitions sharing a key share a row, so
    the lumped chain's 300 transitions at ``max_lead = 60`` have 65 rows.  The
    schedule is resolved here, once per distinct uncle distance, so a schedule
    whose rewards are invalid at a distance the transitions reach raises its
    :class:`~repro.errors.ParameterError` on construction.

    :meth:`gather` computes every row once at a parameter point and reads the
    rows off per transition.  They equal the
    :meth:`~TransitionRewards.component_vector` and
    :meth:`~TransitionRewards.distance_contributions` of
    :func:`transition_rewards` at those transitions, value for value.
    """

    def __init__(self, moves: Iterable[tuple[State, TransitionKind]], schedule: RewardSchedule) -> None:
        keys = [row_key(kind, source) for source, kind in moves]
        position = {key: index for index, key in enumerate(dict.fromkeys(keys))}
        #: Each transition's row, as a position in the distinct rows.
        self.key_index = np.array([position[key] for key in keys], dtype=np.intp)
        distances = dict.fromkeys(distance for _, distance in position)
        resolved = {distance: _resolve_schedule(schedule, distance) for distance in distances}
        self._rows = [(row, distance, resolved[distance]) for row, distance in position]

    def gather(
        self, params: MiningParams, indices: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, list[tuple[tuple[bool, int, float], ...]]]:
        """The component rows and distance rows of the transitions at ``indices``, at ``params``."""
        components = []
        distance_rows = []
        for row, distance, terms in self._rows:
            fields = row(params, terms, distance)
            components.append(_component_row(fields))
            distance_rows.append(_distance_row(distance, fields[7], fields[8]))
        keys = self.key_index[indices]
        return np.array(components, dtype=np.float64)[keys], [distance_rows[key] for key in keys.tolist()]
