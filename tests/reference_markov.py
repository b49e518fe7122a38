"""Scalar oracles for the Markov layer: Monte Carlo, stationary solve, revenue and the MDP.

* :func:`scalar_markov_run` is the per-event Markov Monte Carlo, the oracle for
  ``MarkovMonteCarlo``: one uniform draw per event picks the next transition by
  cumulative rate, and the expected rewards of Appendix B are added to running
  totals event by event.  The compiled-table walk must sample the identical
  transition sequence from the same seed and agree on every total to
  float-reassociation accuracy.
* :func:`solve_power_iteration` iterates the uniformised transition matrix, an
  independent cross-check of the sparse direct ``stationary_distribution``.
  :func:`banded_solve` is the elimination on Python ``{column: value}`` rows,
  the oracle the compiled ``EliminationPlan`` replays bit for bit, and
  :func:`banded_stationary_distribution` runs it on a ``MarkovChain``, so it
  and the sparse direct solve can be compared on the same chain.
* :func:`scalar_revenue_rates` accumulates the long-run rates one transition at a
  time, the oracle for the ``fold_rewards`` product ``RevenueModel`` settles with.
* :class:`StateSpace` is the unlumped ``(Ls, Lh)`` space with the private branch
  capped at ``max_lead``.  :func:`full_chain_revenue_rates` solves the chain of
  Section IV-C on it (:func:`build_selfish_mining_chain`) and folds it with
  ``stationary_rates``: the oracle for the exact ``(lead, forked)`` lumping
  ``RevenueModel`` solves.
* :func:`full_space_optimal_policy` solves the withhold/override MDP on that
  unlumped space (relative value iteration in a Dinkelbach loop, each policy
  evaluated by a SuperLU solve and one record per transition): the oracle for
  the lumped ``MdpSolver``, whose optimum must take the same decision at every
  state of a class.
* :class:`BitcoinSelfishMiningModel` is Eyal and Sirer's 1-D Bitcoin chain with
  their deterministic reward tracking, solved numerically: the oracle for the
  closed forms ``repro.analysis.bitcoin`` ships and for the 2-D model under a
  Bitcoin-style reward schedule.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.revenue import RevenueModel, RevenueRates, stationary_rates
from repro.analysis.reward_cases import REWARD_COMPONENTS, TransitionRewards, transition_rewards
from repro.errors import ConvergenceError, ParameterError, SolverError, StateSpaceError
from repro.markov.chain import MarkovChain, Transition
from repro.markov.state import LumpedSpace, State
from repro.markov.stationary import StationaryResult, _clean_distribution, stationary_distribution
from repro.markov.transitions import SelfishTransition, selfish_mining_transitions, transitions_from_state
from repro.mdp.model import PoolDecision, available_decisions, decision_transitions
from repro.params import MiningParams
from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.rewards.schedule import RewardSchedule
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


def banded_solve(size: int, moves: Sequence[tuple[int, int, float]]) -> tuple[tuple[float, ...], float]:
    """Solve ``pi Q = 0, sum(pi) = 1`` by Gaussian elimination on Python rows.

    The chain has states ``0 .. size - 1`` and ``Q``'s off-diagonal entries
    come from ``moves``, ``(source, target, rate)`` triples without self-loops;
    repeated pairs add up.  Returns the probabilities and the residual
    ``max |pi Q|``.  The system, the anchor, the elimination order and the
    checks are ``repro.markov.stationary.EliminationPlan``'s: here each row is
    one ``{column: value}`` dictionary, eliminated in place.
    """
    rows: list[dict[int, float]] = [{} for _ in range(size)]
    for source, target, rate in moves:
        rows[target][source] = rows[target].get(source, 0.0) + rate
        rows[source][source] = rows[source].get(source, 0.0) - rate
    rows[0] = {0: 1.0}
    rhs = [0.0] * size
    rhs[0] = 1.0
    for i in range(1, size):
        row = rows[i]
        pending = [column for column in row if column < i]
        heapq.heapify(pending)
        while pending:
            k = heapq.heappop(pending)
            factor = row.pop(k) / rows[k][k]
            for column, value in rows[k].items():
                if column > k:
                    if column not in row and column < i:
                        heapq.heappush(pending, column)
                    row[column] = row.get(column, 0.0) - factor * value
            rhs[i] -= factor * rhs[k]
        if not row.get(i):
            raise SolverError(f"zero pivot at state index {i} (anchor state starved?)")
    solution = [0.0] * size
    for i in range(size - 1, -1, -1):
        row = rows[i]
        upper = sum(value * solution[column] for column, value in row.items() if column > i)
        solution[i] = (rhs[i] - upper) / row[i]
    if not all(math.isfinite(value) for value in solution):
        raise SolverError("banded solve produced non-finite values (anchor state starved?)")
    probabilities = _clean_distribution(np.asarray(solution)).tolist()
    net_inflow = [0.0] * size
    for source, target, rate in moves:
        flow = probabilities[source] * rate
        net_inflow[target] += flow
        net_inflow[source] -= flow
    return tuple(probabilities), max(abs(value) for value in net_inflow)


def banded_stationary_distribution(chain: MarkovChain) -> StationaryResult:
    """The stationary distribution of ``chain`` by ``banded_solve``, self-loops dropped.

    The chain must be banded in its state order, as ``banded_solve`` explains.
    """
    index = chain.index_of
    moves = [
        (index(t.source), index(t.target), t.rate) for t in chain.transitions if t.source != t.target
    ]
    probabilities, residual = banded_solve(len(chain), moves)
    return StationaryResult(chain=chain, probabilities=probabilities, residual=residual)


def solve_power_iteration(
    chain: MarkovChain, *, tolerance: float = 1e-12, max_iterations: int = 200_000
) -> StationaryResult:
    """Stationary distribution by iterating the uniformised matrix ``P = I + Q / q``."""
    from scipy import sparse

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


def enumerate_states(max_lead: int) -> list[State]:
    """All reachable ``(Ls, Lh)`` states with ``Ls <= max_lead``, in ``State.encode`` order.

    The three special states first, then the ``(i, j)`` states ordered by ``i`` and
    then ``j``.  ``max_lead`` must be at least 2.
    """
    if max_lead < 2:
        raise StateSpaceError(f"max_lead must be at least 2, got {max_lead}")
    states: list[State] = [State(0, 0), State(1, 0), State(1, 1)]
    for i in range(2, max_lead + 1):
        for j in range(0, i - 1):  # j <= i - 2
            states.append(State(i, j))
    return states


class StateSpace:
    """The unlumped ``(Ls, Lh)`` states with the private branch capped at ``max_lead``, indexed.

    The pool's extension out of a state with ``Ls == max_lead`` self-loops
    (:meth:`on_boundary`).
    """

    def __init__(self, max_lead: int) -> None:
        self.max_lead = int(max_lead)
        self.states = tuple(enumerate_states(self.max_lead))
        self._index = {state: position for position, state in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __contains__(self, state: State) -> bool:
        return state in self._index

    def index_of(self, state: State) -> int:
        """The dense index of ``state``; raise if it is not in the space."""
        try:
            return self._index[state]
        except KeyError as exc:
            raise StateSpaceError(f"state {state} is not in the truncated state space") from exc

    def state_at(self, index: int) -> State:
        """The state stored at dense ``index``."""
        try:
            return self.states[index]
        except IndexError as exc:
            raise StateSpaceError(f"index {index} out of range for state space of size {len(self)}") from exc

    def on_boundary(self, state: State) -> bool:
        """True if the pool's extension out of ``state`` self-loops (``Ls == max_lead``)."""
        return state.private == self.max_lead

    def boundary_indices(self) -> list[int]:
        """Indices of the states :meth:`on_boundary` picks, in index order."""
        return [position for position, state in enumerate(self.states) if self.on_boundary(state)]

    def describe(self) -> str:
        """Short human-readable summary of the truncated space."""
        return f"StateSpace(max_lead={self.max_lead}, states={len(self)})"


def record_rows(
    record_for: Callable[[int], TransitionRewards], indices: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, list[tuple[tuple[bool, int, float], ...]]]:
    """The component and distance rows of the records ``record_for(k)`` for ``k`` in ``indices``.

    The per-record counterpart of ``RewardRows.gather``, for chains whose records
    are built one transition at a time.
    """
    components = np.empty((len(indices), len(REWARD_COMPONENTS)))
    distance_rows = []
    for row, k in enumerate(indices):
        record = record_for(k)
        components[row] = record.component_vector()
        distance_rows.append(record.distance_contributions())
    return components, distance_rows


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
        space = StateSpace(max_lead)
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


@dataclass(frozen=True)
class FullSpaceOptimum:
    """The optimal withhold/override policy on the unlumped ``(Ls, Lh)`` space."""

    decisions: dict[State, PoolDecision]
    rates: RevenueRates

    @property
    def share(self) -> float:
        """The pool's optimal relative revenue."""
        return self.rates.relative_pool_revenue


def full_space_optimal_policy(
    params: MiningParams, schedule: RewardSchedule, *, max_lead: int, tolerance: float = 1e-10
) -> FullSpaceOptimum:
    """Solve the withhold/override MDP of ``repro.mdp`` on ``StateSpace(max_lead)``.

    Each state offers the actions ``available_decisions`` lists, with the
    transitions ``decision_transitions`` gives under the private cap
    ``max_lead``.  Relative value iteration on ``pool - rho * total`` proposes a
    greedy policy (ties keep withhold); each proposal is evaluated exactly by a
    SuperLU solve of its chain and the fold of its transitions' records, and the
    evaluated share becomes the next ``rho`` until the policy stops improving.
    """
    from scipy import sparse

    space = StateSpace(max_lead)
    actions: list[tuple[PoolDecision, list[SelfishTransition], list[TransitionRewards]]] = []
    offsets = [0]
    rows, cols, probabilities = [], [], []
    for state in space:
        for decision in available_decisions(state):
            transitions = decision_transitions(state, params, decision, max_lead=max_lead)
            for transition in transitions:
                rows.append(len(actions))
                cols.append(space.index_of(transition.target))
                probabilities.append(transition.rate)
            records = [transition_rewards(t, params, schedule) for t in transitions]
            actions.append((decision, transitions, records))
        offsets.append(len(actions))
    matrix = sparse.csr_matrix((probabilities, (rows, cols)), shape=(len(actions), len(space)))
    pool = np.array([sum(t.rate * r.pool.total for t, r in zip(ts, rs)) for _, ts, rs in actions])
    total = np.array(
        [sum(t.rate * (r.pool.total + r.honest.total) for t, r in zip(ts, rs)) for _, ts, rs in actions]
    )
    starts = np.array(offsets[:-1])

    def evaluate(policy: list[int]) -> RevenueRates:
        transitions = [t for flat in policy for t in actions[flat][1]]
        records = [r for flat in policy for r in actions[flat][2]]
        chain = MarkovChain(space.states, [t.as_transition() for t in transitions])
        return stationary_rates(
            params,
            stationary_distribution(chain).probabilities,
            [space.index_of(t.source) for t in transitions],
            [t.rate for t in transitions],
            partial(record_rows, records.__getitem__),
            space.boundary_indices(),
        )

    def greedy(q: np.ndarray) -> list[int]:
        return [start + int(np.argmax(q[start:stop])) for start, stop in zip(offsets, offsets[1:])]

    # Algorithm 1: each state's first action, withhold or the tie's forced override.
    policy = offsets[:-1]
    rates = evaluate(policy)
    values = np.zeros(len(space))
    for _ in range(50):
        rewards = pool - rates.relative_pool_revenue * total
        for _ in range(200_000):
            best = np.maximum.reduceat(rewards + matrix @ values, starts)
            delta = best - values
            values = best - best[0]
            if float(delta.max() - delta.min()) < tolerance:
                break
        else:
            raise ConvergenceError("relative value iteration did not converge")
        improved = greedy(rewards + matrix @ values)
        if improved == policy:
            break
        improved_rates = evaluate(improved)
        if improved_rates.relative_pool_revenue <= rates.relative_pool_revenue + 1e-12:
            break
        policy, rates = improved, improved_rates
    else:
        raise ConvergenceError("policy improvement did not stabilise")
    return FullSpaceOptimum(
        decisions={state: actions[flat][0] for state, flat in zip(space, policy)}, rates=rates
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
