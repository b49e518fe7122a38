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
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import sparse

from repro.analysis.revenue import RevenueModel, RevenueRates, stationary_rates
from repro.analysis.reward_cases import record_rows, transition_rewards
from repro.errors import ConvergenceError
from repro.markov.chain import MarkovChain
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
