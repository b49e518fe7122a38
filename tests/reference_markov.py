"""The per-event scalar Markov Monte Carlo: the oracle for ``MarkovMonteCarlo``.

One uniform draw per event picks the next transition by cumulative rate, and the
expected rewards of Appendix B are added to running totals event by event.  The
compiled-table walk must sample the identical transition sequence from the same
seed and agree on every total to float-reassociation accuracy.
"""

from __future__ import annotations

from repro.analysis.reward_cases import transition_rewards
from repro.markov.state import State
from repro.markov.transitions import transitions_from_state
from repro.rewards.breakdown import PartyRewards
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
