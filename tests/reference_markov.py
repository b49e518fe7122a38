"""Scalar oracles for the Markov layer: Monte Carlo, stationary solve and revenue.

* :func:`scalar_markov_run` is the per-event Markov Monte Carlo, the oracle for
  ``MarkovMonteCarlo``: one uniform draw per event picks the next transition by
  cumulative rate, and the expected rewards of Appendix B are added to running
  totals event by event.  The compiled-table walk must sample the identical
  transition sequence from the same seed and agree on every total to
  float-reassociation accuracy.
* :func:`solve_power_iteration` iterates the uniformised transition matrix, an
  independent cross-check of the sparse direct ``stationary_distribution``.
* :func:`scalar_revenue_rates` accumulates the long-run rates one transition at a
  time, the oracle for the ``fold_rewards`` product ``RevenueModel`` settles with.
* :func:`full_chain_revenue_rates` solves the unlumped ``(Ls, Lh)`` chain of
  Section IV-C, its private branch capped at ``max_lead``
  (:func:`build_selfish_mining_chain`), and folds it with ``stationary_rates``: the
  oracle for the exact ``(lead, forked)`` lumping ``RevenueModel`` solves, and for
  the MDP, which walks the same ``(Ls, Lh)`` space.
* :class:`BitcoinSelfishMiningModel` is Eyal and Sirer's 1-D Bitcoin chain with
  their deterministic reward tracking, solved numerically: the oracle for the
  closed forms ``repro.analysis.bitcoin`` ships and for the 2-D model under a
  Bitcoin-style reward schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np
from scipy import sparse

from repro.analysis.revenue import RevenueModel, RevenueRates, stationary_rates
from repro.analysis.reward_cases import record_rows, transition_rewards
from repro.errors import ConvergenceError, ParameterError
from repro.markov.chain import MarkovChain, Transition
from repro.markov.state import LumpedSpace, State, StateSpace
from repro.markov.stationary import StationaryResult, stationary_distribution
from repro.markov.transitions import SelfishTransition, selfish_mining_transitions, transitions_from_state
from repro.params import MiningParams
from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.simulation.config import SimulationConfig
from repro.simulation.fast import UNBOUNDED_LEAD
from repro.simulation.metrics import SimulationResult
from repro.simulation.rng import RandomSource


def scalar_markov_run(
    config: SimulationConfig, *, trace: list[int] | None = None
) -> tuple[SimulationResult, State]:
    """Run ``config`` (strategy ``"selfish"`` or ``"honest"``); return the result and final state."""
    rng = RandomSource(config.seed)
    state = State(0, 0)
    if config.strategy_name == "honest":
        static = config.schedule.static_reward
        pool_blocks = sum(rng.pool_mines_next(config.params.alpha) for _ in range(config.num_blocks))
        honest_blocks = config.num_blocks - pool_blocks
        result = SimulationResult(
            config=config,
            pool_rewards=PartyRewards(static=pool_blocks * static),
            honest_rewards=PartyRewards(static=honest_blocks * static),
            regular_blocks=float(config.num_blocks),
            pool_regular_blocks=float(pool_blocks),
            honest_regular_blocks=float(honest_blocks),
            uncle_blocks=0.0,
            pool_uncle_blocks=0.0,
            honest_uncle_blocks=0.0,
            stale_blocks=0.0,
            total_blocks=float(config.num_blocks),
            num_events=config.num_blocks,
        )
        return result, state

    transitions: dict[State, list] = {}
    pool = PartyRewards()
    honest = PartyRewards()
    totals = dict.fromkeys(
        ("regular", "pool_regular", "honest_regular", "uncle", "pool_uncle", "honest_uncle", "stale"),
        0.0,
    )
    distance_counts: dict[str, dict[int, float]] = {"pool": {}, "honest": {}}
    for _ in range(config.num_blocks):
        if state not in transitions:
            transitions[state] = list(
                transitions_from_state(state, params=config.params, max_lead=UNBOUNDED_LEAD)
            )
        draw = rng.uniform()
        cumulative = 0.0
        transition = transitions[state][-1]
        for candidate in transitions[state]:
            cumulative += candidate.rate
            if draw < cumulative:
                transition = candidate
                break
        record = transition_rewards(transition, config.params, config.schedule)
        pool = pool + record.pool
        honest = honest + record.honest
        pool_mined = record.pool_mined_probability
        totals["regular"] += record.regular_probability
        totals["pool_regular"] += record.regular_probability * pool_mined
        totals["honest_regular"] += record.regular_probability * (1.0 - pool_mined)
        totals["uncle"] += record.uncle_probability
        totals["pool_uncle"] += record.uncle_probability * pool_mined
        totals["honest_uncle"] += record.uncle_probability * (1.0 - pool_mined)
        totals["stale"] += record.stale_probability
        distance = record.uncle_distance
        if distance is not None and record.uncle_probability > 0.0:
            for party, share in (("pool", pool_mined), ("honest", 1.0 - pool_mined)):
                if share > 0.0:
                    counts = distance_counts[party]
                    counts[distance] = counts.get(distance, 0.0) + record.uncle_probability * share
        state = transition.target
        if trace is not None:
            trace.append(state.encode())

    result = SimulationResult(
        config=config,
        pool_rewards=pool,
        honest_rewards=honest,
        regular_blocks=totals["regular"],
        pool_regular_blocks=totals["pool_regular"],
        honest_regular_blocks=totals["honest_regular"],
        uncle_blocks=totals["uncle"],
        pool_uncle_blocks=totals["pool_uncle"],
        honest_uncle_blocks=totals["honest_uncle"],
        stale_blocks=totals["stale"],
        total_blocks=float(config.num_blocks),
        num_events=config.num_blocks,
        honest_uncle_distance_counts=dict(sorted(distance_counts["honest"].items())),
        pool_uncle_distance_counts=dict(sorted(distance_counts["pool"].items())),
    )
    return result, state


def solve_power_iteration(
    chain: MarkovChain, *, tolerance: float = 1e-12, max_iterations: int = 200_000
) -> StationaryResult:
    """Stationary distribution by iterating the uniformised matrix ``P = I + Q / q``."""
    size = len(chain)
    generator = chain.generator_matrix()
    uniform_rate = float(np.asarray(chain.rate_matrix().sum(axis=1)).max())
    transition = sparse.identity(size, format="csr") + generator / uniform_rate
    distribution = np.full(size, 1.0 / size)
    for _ in range(max_iterations):
        updated = np.asarray(distribution @ transition).ravel()
        updated /= updated.sum()
        change = float(np.max(np.abs(updated - distribution)))
        distribution = updated
        if change < tolerance:
            return StationaryResult(
                chain=chain,
                probabilities=tuple(distribution.tolist()),
                residual=float(np.max(np.abs(distribution @ generator))),
            )
    raise ConvergenceError(f"power iteration did not converge within {max_iterations} iterations")


def scalar_revenue_rates(model: RevenueModel, params: MiningParams) -> RevenueRates:
    """``model``'s long-run rates at ``params``, accumulated one transition at a time."""
    space = LumpedSpace(model.max_lead)
    labelled = selfish_mining_transitions(params, space)
    chain = MarkovChain(space.states, [t.as_transition() for t in labelled])
    stationary = stationary_distribution(chain)
    probabilities = stationary.as_mapping()

    pool = PartyRewards()
    honest = PartyRewards()
    regular_rate = 0.0
    uncle_rate = 0.0
    pool_uncle_rate = 0.0
    honest_uncle_rate = 0.0
    stale_rate = 0.0
    distance_rates: dict[int, float] = {}

    for transition in labelled:
        weight = probabilities.get(transition.source, 0.0) * transition.rate
        if weight == 0.0:
            continue
        record = transition_rewards(transition, params, model.schedule)
        pool = pool + record.pool.scaled(weight)
        honest = honest + record.honest.scaled(weight)
        regular_rate += weight * record.regular_probability
        uncle_rate += weight * record.uncle_probability
        stale_rate += weight * record.stale_probability
        pool_uncle_rate += weight * record.uncle_probability * record.pool_mined_probability
        honest_mined = 1.0 - record.pool_mined_probability
        honest_uncle_rate += weight * record.uncle_probability * honest_mined
        if record.uncle_distance is not None and record.uncle_probability > 0.0 and honest_mined > 0.0:
            distance = record.uncle_distance
            distance_rates[distance] = distance_rates.get(distance, 0.0) + (
                weight * record.uncle_probability * honest_mined
            )

    return RevenueRates(
        params=params,
        split=RevenueSplit(pool=pool, honest=honest),
        regular_rate=regular_rate,
        uncle_rate=uncle_rate,
        pool_uncle_rate=pool_uncle_rate,
        honest_uncle_rate=honest_uncle_rate,
        honest_uncle_distance_rates=dict(sorted(distance_rates.items())),
        stale_rate=stale_rate,
        truncation_mass=sum(stationary.probability(state) for state in space if space.on_boundary(state)),
    )


def full_chain_transitions(params: MiningParams, space: StateSpace) -> list[SelfishTransition]:
    """Every transition of the ``(Ls, Lh)`` chain with the private branch capped at ``space.max_lead``."""
    transitions: list[SelfishTransition] = []
    for state in space:
        transitions.extend(transitions_from_state(state, params, max_lead=space.max_lead))
    return transitions


def build_selfish_mining_chain(
    params: MiningParams, *, max_lead: int | None = None, space: StateSpace | None = None
) -> MarkovChain[State]:
    """The truncated ``(Ls, Lh)`` chain of Section IV-C; ``max_lead`` is ignored when ``space`` is given."""
    if space is None:
        space = StateSpace(max_lead) if max_lead is not None else StateSpace()
    labelled = full_chain_transitions(params, space)
    chain = MarkovChain(space.states, [t.as_transition() for t in labelled])
    chain.validate(expect_unit_exit_rate=True)
    return chain


def full_chain_revenue_rates(model: RevenueModel, params: MiningParams) -> RevenueRates:
    """``model``'s rates at ``params`` on the unlumped ``(Ls, Lh)`` chain capped at ``model.max_lead``."""
    space = StateSpace(model.max_lead)
    labelled = full_chain_transitions(params, space)
    chain = MarkovChain(space.states, [t.as_transition() for t in labelled])
    return stationary_rates(
        params,
        stationary_distribution(chain).probabilities,
        [space.index_of(t.source) for t in labelled],
        [t.rate for t in labelled],
        partial(record_rows, lambda k: transition_rewards(labelled[k], params, model.schedule)),
        space.boundary_indices(),
    )


#: Default truncation of the pool's lead in the 1-D Bitcoin chain.
DEFAULT_BITCOIN_TRUNCATION = 200

#: Label of the Bitcoin chain's "two competing branches of length one" state.
TIE_STATE = "tie"


@dataclass(frozen=True)
class BitcoinRevenue:
    """Outcome of the numerical Eyal–Sirer model at one parameter point."""

    params: MiningParams
    pool_rate: float
    honest_rate: float
    stale_rate: float

    @property
    def total_published_rate(self) -> float:
        """Rate of blocks that end up in the main chain (pool + honest)."""
        return self.pool_rate + self.honest_rate

    @property
    def relative_pool_revenue(self) -> float:
        """The pool's share of main-chain blocks (Eyal–Sirer's revenue measure)."""
        total = self.total_published_rate
        return self.pool_rate / total if total > 0 else 0.0

    @property
    def absolute_pool_revenue(self) -> float:
        """Pool revenue per main-chain block after difficulty re-targeting.

        In Bitcoin this equals the relative revenue (Section IV-E.2 of the paper).
        """
        return self.relative_pool_revenue


class BitcoinSelfishMiningModel:
    """Numerical Eyal–Sirer model: 1-D Markov chain plus deterministic reward tracking.

    States are the pool's lead ``0, 1, 2, ..., max_lead`` plus the tie state ``0'``
    reached when an honest block catches up with a lead of one.  Rewards are tracked
    per transition exactly as in the original paper (rewards are attributed to blocks
    whose destiny is already decided at the transition):

    * lead 0, honest block: honest earn 1;
    * tie, pool block: pool earns 2;
    * tie, honest block on the pool's branch (prob ``gamma``): pool 1, honest 1;
    * tie, honest block on the honest branch (prob ``1-gamma``): honest 2;
    * lead 2, honest block: pool earns 2 (it overrides with its whole branch);
    * lead > 2, honest block: pool earns 1 (the oldest private block is now safe).
    """

    def __init__(self, *, max_lead: int = DEFAULT_BITCOIN_TRUNCATION) -> None:
        if max_lead < 3:
            raise ParameterError(f"max_lead must be at least 3, got {max_lead}")
        self.max_lead = int(max_lead)

    # ------------------------------------------------------------------ chain
    def states(self) -> list[object]:
        """State list: integer leads plus the tie marker."""
        return [0, TIE_STATE] + list(range(1, self.max_lead + 1))

    def transitions(self, params: MiningParams) -> list[Transition[object]]:
        """All transitions of the 1-D chain at ``params``."""
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        transitions: list[Transition[object]] = [
            Transition(0, 1, alpha, label="pool_hides_first"),
            Transition(0, 0, beta, label="honest_extends"),
            Transition(1, 2, alpha, label="pool_extends"),
            Transition(1, TIE_STATE, beta, label="honest_catches_up"),
            Transition(TIE_STATE, 0, alpha, label="pool_wins_tie"),
            Transition(TIE_STATE, 0, beta * gamma, label="honest_on_pool_branch"),
            Transition(TIE_STATE, 0, beta * (1.0 - gamma), label="honest_on_honest_branch"),
            Transition(2, 0, beta, label="pool_overrides"),
        ]
        for lead in range(2, self.max_lead + 1):
            target = lead + 1 if lead + 1 <= self.max_lead else lead
            transitions.append(Transition(lead, target, alpha, label="pool_extends"))
        for lead in range(3, self.max_lead + 1):
            transitions.append(Transition(lead, lead - 1, beta, label="honest_chips_lead"))
        return transitions

    def build_chain(self, params: MiningParams) -> MarkovChain[object]:
        """Build the truncated 1-D chain."""
        chain = MarkovChain(self.states(), self.transitions(params))
        chain.validate(expect_unit_exit_rate=True)
        return chain

    # ------------------------------------------------------------------ revenue
    def revenue(self, params: MiningParams) -> BitcoinRevenue:
        """Solve the chain and apply the deterministic reward attribution."""
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        chain = self.build_chain(params)
        stationary = stationary_distribution(chain)
        probabilities: Mapping[object, float] = stationary.as_mapping()

        pi_zero = probabilities[0]
        pi_tie = probabilities[TIE_STATE]
        pi_two = probabilities[2]

        pool_rate = 0.0
        honest_rate = 0.0

        # Lead 0: an honest block is immediately final.
        honest_rate += beta * pi_zero
        # Tie: three resolutions.
        pool_rate += alpha * pi_tie * 2.0
        pool_rate += beta * gamma * pi_tie * 1.0
        honest_rate += beta * gamma * pi_tie * 1.0
        honest_rate += beta * (1.0 - gamma) * pi_tie * 2.0
        # Lead 2: the pool overrides with its full branch of two blocks.
        pool_rate += beta * pi_two * 2.0
        # Lead > 2: each honest block lets the pool bank one previously private block.
        for lead in range(3, self.max_lead + 1):
            pool_rate += beta * probabilities.get(lead, 0.0) * 1.0

        total_block_rate = 1.0  # one block per transition after rescaling
        published_rate = pool_rate + honest_rate
        stale_rate = max(0.0, total_block_rate - published_rate)
        return BitcoinRevenue(
            params=params, pool_rate=pool_rate, honest_rate=honest_rate, stale_rate=stale_rate
        )

    def relative_pool_revenue(self, params: MiningParams) -> float:
        """Pool revenue share from the numerical model."""
        return self.revenue(params).relative_pool_revenue

    def profitable_threshold(self, gamma: float, *, tolerance: float = 1e-6) -> float:
        """Numerically invert the model to find the profitability threshold for ``gamma``.

        The result should agree with :func:`bitcoin_threshold` up to the tolerance; the
        test-suite asserts that it does.
        """
        low, high = 1e-4, 0.4999

        def gain(alpha: float) -> float:
            params = MiningParams(alpha=alpha, gamma=gamma)
            return self.relative_pool_revenue(params) - alpha

        if gain(low) >= 0:
            return low
        if gain(high) < 0:
            return high
        while high - low > tolerance:
            middle = 0.5 * (low + high)
            if gain(middle) >= 0:
                high = middle
            else:
                low = middle
        return 0.5 * (low + high)
