"""Long-run revenue rates of the selfish pool and honest miners (Section IV-E.1).

:class:`RevenueModel` combines the three ingredients of the analysis:

1. the lumped Markov chain and its stationary distribution (:mod:`repro.markov`),
2. the per-transition expected rewards (:mod:`repro.analysis.reward_cases`),
3. a reward schedule (:mod:`repro.rewards.schedule`),

and produces :class:`RevenueRates`: time-average reward rates, block-classification
rates (regular / uncle), and the distance profile of honest uncles.  These are the
quantities behind every figure and table of the paper's evaluation.

The computation is a single weighted sum: for every transition ``t`` out of state
``s``, the expected reward record of ``t`` is weighted by ``pi(s) * rate(t)`` — the
long-run frequency of that transition — and the weighted records are settled by
:func:`~repro.analysis.reward_cases.fold_rewards`.  :func:`stationary_rates` does
this for any chain given by state indices; the MDP policy evaluator calls it too,
on the chain a decision table induces on the same lumped space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ..markov.state import LumpedSpace
from ..markov.transitions import LumpedChain
from ..params import MiningParams
from ..rewards.breakdown import PartyRewards, RevenueSplit
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from .reward_cases import RewardRows, fold_rewards


@dataclass(frozen=True)
class RevenueRates:
    """Long-run per-unit-time reward and block rates at one ``(alpha, gamma)`` point.

    Attributes
    ----------
    params:
        The parameter point the rates were computed for.
    split:
        Reward rates by party and type; ``split.pool.static`` is the paper's
        ``r_b^s``, ``split.honest.uncle`` is ``r_u^h``, and so on.
    regular_rate:
        Rate at which regular (main-chain) blocks are created, ``r_b^s + r_b^h`` when
        the static reward is 1.
    uncle_rate:
        Rate at which *referenced* uncles are created (pool + honest).
    pool_uncle_rate, honest_uncle_rate:
        The same, broken down by the uncle's miner.
    honest_uncle_distance_rates:
        Rate of honest referenced-uncle creation by referencing distance.
    stale_rate:
        Rate of blocks that end up neither regular nor referenced uncles.
    truncation_mass:
        Stationary probability of the truncation boundary, the states whose pool
        extension self-loops (lead ``max_lead``).  It measures how much the
        truncation distorts the rates; 0 for rates not computed from a truncated
        chain.
    """

    params: MiningParams
    split: RevenueSplit
    regular_rate: float
    uncle_rate: float
    pool_uncle_rate: float
    honest_uncle_rate: float
    honest_uncle_distance_rates: Mapping[int, float] = field(default_factory=dict)
    stale_rate: float = 0.0
    truncation_mass: float = 0.0

    @property
    def pool(self) -> PartyRewards:
        """Reward rates of the selfish pool (``r_b^s``, ``r_u^s``, ``r_n^s``)."""
        return self.split.pool

    @property
    def honest(self) -> PartyRewards:
        """Reward rates of honest miners (``r_b^h``, ``r_u^h``, ``r_n^h``)."""
        return self.split.honest

    @property
    def total_revenue_rate(self) -> float:
        """The paper's ``r_total`` (Eq. 10)."""
        return self.split.total

    @property
    def relative_pool_revenue(self) -> float:
        """The pool's share ``Rs`` of the total revenue (Section IV-E.1)."""
        return self.split.pool_share()

    @property
    def block_rate(self) -> float:
        """Total block creation rate; equals 1 under the paper's time rescaling."""
        return self.regular_rate + self.uncle_rate + self.stale_rate

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary of the headline rates (handy for tables and CSV dumps)."""
        return {
            "alpha": self.params.alpha,
            "gamma": self.params.gamma,
            "pool_static": self.pool.static,
            "pool_uncle": self.pool.uncle,
            "pool_nephew": self.pool.nephew,
            "honest_static": self.honest.static,
            "honest_uncle": self.honest.uncle,
            "honest_nephew": self.honest.nephew,
            "regular_rate": self.regular_rate,
            "uncle_rate": self.uncle_rate,
            "stale_rate": self.stale_rate,
            "relative_pool_revenue": self.relative_pool_revenue,
        }


def stationary_rates(
    params: MiningParams,
    probabilities: Sequence[float],
    sources: Sequence[int],
    rates: Sequence[float],
    rows_for: Callable[[np.ndarray], tuple[np.ndarray, Sequence[Sequence[tuple[bool, int, float]]]]],
    boundary: Sequence[int],
) -> RevenueRates:
    """Long-run rates of a chain from its solved stationary ``probabilities``.

    Transition ``k`` leaves state index ``sources[k]`` at ``rates[k]`` and is
    weighted by its long-run frequency ``probabilities[sources[k]] * rates[k]``.
    ``rows_for(live)`` is asked once, for the indices of the transitions whose
    weight is non-zero, and returns their Appendix-B component rows and
    distance rows (as :meth:`~repro.analysis.reward_cases.RewardRows.gather`
    does); the weighted rows are settled by
    :func:`~repro.analysis.reward_cases.fold_rewards`.  ``boundary`` lists the
    indices of the truncation boundary, whose mass is
    :attr:`RevenueRates.truncation_mass`.
    """
    weights = np.asarray(probabilities)[sources] * np.asarray(rates)
    live = np.flatnonzero(weights)
    components, distance_rows = rows_for(live)
    totals = fold_rewards(weights[live].tolist(), components, distance_rows)
    return RevenueRates(
        params=params,
        split=RevenueSplit(pool=totals.pool, honest=totals.honest),
        regular_rate=totals.regular_blocks,
        uncle_rate=totals.uncle_blocks,
        pool_uncle_rate=totals.pool_uncle_blocks,
        honest_uncle_rate=totals.honest_uncle_blocks,
        honest_uncle_distance_rates=totals.honest_uncle_distance_counts,
        stale_rate=totals.stale_blocks,
        truncation_mass=sum(probabilities[index] for index in boundary),
    )


class RevenueModel:
    """The analytical revenue engine for one reward schedule and truncation level.

    The paper's chain over ``(Ls, Lh)`` is solved in its exact ``(lead, forked)``
    lumping (:class:`~repro.markov.state.LumpedSpace`): ``2 * max_lead + 1``
    states instead of ``O(max_lead**2)``.  Each transition out of ``(i, j)``, its
    rate, the class it lands in and its Appendix-B record depend on ``(i, j)`` only
    through the lead ``d = i - j`` and whether ``j == 0``:

    * cases 7 and 11 both go to lead ``d - 1`` with ``j >= 1``;
    * case 10 goes from ``(d, 0)`` to lead ``d - 1``, forked;
    * a record reads the source state only through its uncle distance
      (:func:`~repro.analysis.reward_cases.row_key`): ``source.lead`` in case 7
      and ``source.private`` in case 10, where ``j == 0`` makes it equal to the
      lead.

    So the chain is strongly lumpable, and solving the representatives gives the
    rates of the unlumped chain with its lead capped instead of its private branch.

    Neither the chain's structure nor which Appendix-B row each transition
    takes depends on ``(alpha, gamma)``.  The model compiles both once: the
    chain as a :class:`~repro.markov.transitions.LumpedChain`, and its
    transitions' row keys, with the schedule resolved once per uncle distance,
    as a :class:`~repro.analysis.reward_cases.RewardRows` (65 distinct rows for
    300 transitions at ``max_lead = 60``).  A parameter point then computes its
    transitions' rates, runs one banded elimination
    (:func:`~repro.markov.stationary.banded_solve`, ``O(max_lead)`` and without
    scipy: in this state order every inflow comes from a neighbouring lead),
    computes each keyed row once with its own ``alpha``, ``beta`` and
    ``gamma``, gathers the rows per transition of non-zero weight and folds
    them.  A schedule that pays a negative reward at a distance the chain
    reaches raises :class:`~repro.errors.ParameterError` on construction.

    Parameters
    ----------
    schedule:
        Reward schedule (defaults to the Ethereum Byzantium rules).
    max_lead:
        Cap on the pool's lead; a pool block at the cap self-loops.  The lead is a
        biased random walk, so the boundary mass
        (:attr:`RevenueRates.truncation_mass`) is about ``(alpha / beta) **
        max_lead`` whatever gamma is.  Measured at ``alpha = 0.45``, the same for
        every gamma: 8.7e-7 at ``max_lead = 60`` (``Rs`` off by 9.5e-7 at
        ``gamma = 0.5``) and 5.5e-19 at 200; at ``alpha = 0.3`` and
        ``max_lead = 60``, 3.4e-23.

    One model serves any number of parameter points, in any order.
    """

    #: Default truncation level; see the class docstring.
    DEFAULT_MAX_LEAD = 60

    def __init__(self, schedule: RewardSchedule | None = None, *, max_lead: int = DEFAULT_MAX_LEAD) -> None:
        self.schedule = schedule if schedule is not None else EthereumByzantiumSchedule()
        self.max_lead = int(max_lead)
        self.chain = LumpedChain(LumpedSpace(self.max_lead))
        self.rewards = RewardRows([(source, kind) for source, _, kind in self.chain.edges], self.schedule)

    def revenue_rates(self, params: MiningParams) -> RevenueRates:
        """Compute the long-run revenue and block rates at ``params``."""
        chain = self.chain
        rates = chain.rates(params)
        probabilities, _ = chain.solve(rates)
        rows_for = partial(self.rewards.gather, params)
        return stationary_rates(params, probabilities, chain.sources, rates, rows_for, chain.boundary)

    def relative_pool_revenue(self, params: MiningParams) -> float:
        """Convenience wrapper returning only the pool's relative revenue ``Rs``."""
        return self.revenue_rates(params).relative_pool_revenue

    def describe(self) -> str:
        """Short human-readable description of the engine configuration."""
        return f"RevenueModel(schedule={type(self.schedule).__name__}, max_lead={self.max_lead})"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
