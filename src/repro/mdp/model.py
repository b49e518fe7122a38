"""The action-conditioned transition model behind the optimal-strategy MDP.

The paper's Markov chain (:mod:`repro.markov.transitions`) hard-codes Algorithm 1:
at every state the pool's response to each mining event is fixed.  This module
relaxes exactly the responses that can be relaxed *without leaving the paper's
state space or invalidating its Appendix-B reward records*, turning the chain
into a Markov decision process:

* **Pool-event decision** (:class:`PoolDecision`).  When the pool mines a block it
  either keeps withholding (``WITHHOLD`` — the transition the paper's chain takes,
  cases 2/3/6) or publishes its entire private branch and claims the race
  (``OVERRIDE`` — the race resets to ``(0, 0)`` and the fresh block is a certain
  regular block, the Lemma-1 record).  At ``(0, 0)`` the override reading is
  "publish immediately", i.e. honest mining, so the protocol-following pool is one
  corner of the policy space.
* **Honest-event responses stay pinned** to Algorithm 1 (adopt behind, match the
  tie, override a lead of one, answer deeper leads by revealing one block).  These
  are the responses under which the Appendix-B destiny probabilities (case 2's
  ``alpha + alpha*beta + beta^2*gamma``, the nephew races of cases 7-10) were
  derived; relaxing them would both leave the truncated ``(Ls, Lh)`` state space
  (stubborn-style ties live at ``lead <= 1``, which the space does not encode) and
  silently invalidate the per-transition reward records.

Exactness.  Case 2's destiny decomposition conditions only on *which* party mines
the next block and on the forced tie behaviour, so it is exact under every policy
expressible here; cases 3/6 are certain regular blocks under withholding *and*
under any later override (Lemma 1).  The records of cases 7-10 embed the selfish
continuation of the race (uncle distance, nephew race), so policies that override
from a deep lead are scored slightly conservatively — the honest side is credited
the full selfish-continuation uncle value even though an early override may push
the reference beyond the inclusion window.  The policies the solver actually
extracts (Algorithm 1 above the profitability threshold, honest mining below it)
use no such transition, so their values are exact — the property and integration
suites pin this against :class:`~repro.markov.chain.MarkovChain` and against
Monte-Carlo runs of the extracted strategy.

The compiled arrays hold one flat row per ``(state, decision)`` pair: the sparse
successor distribution and the expected one-step pool/total reward, so the
solver's Bellman sweeps are plain sparse mat-vecs plus a segmented max.  Each
:class:`MdpAction` also keeps its Appendix-B records; the exact evaluation of a
policy settles them through :func:`repro.analysis.revenue.stationary_rates`, the
fold the analytical model uses, rather than through these one-step sums.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..analysis.reward_cases import TransitionRewards, transition_rewards
from ..errors import StateSpaceError
from ..markov.state import State, StateSpace, ZERO_STATE
from ..markov.transitions import SelfishTransition, TransitionKind, transitions_from_state
from ..params import MiningParams
from ..rewards.schedule import RewardSchedule

#: Transition kinds fired by the pool's own mining events (cases 2, 3 and 6).  The
#: tie resolution (case 5) folds both parties into one transition and is therefore
#: not a free decision point.
POOL_EVENT_KINDS = frozenset(
    {
        TransitionKind.POOL_HIDES_FIRST_BLOCK,
        TransitionKind.POOL_BUILDS_LEAD_OF_TWO,
        TransitionKind.POOL_EXTENDS_PRIVATE_LEAD,
    }
)

#: Integer code of the 1-vs-1 tie state ``(1, 1)`` (see ``State.encode``): the one
#: state whose pool-event response is forced (winning the tie is case 5's
#: resolution; withholding the tie-breaking block would leave the state space).
TIE_STATE_CODE = State(1, 1).encode()


class PoolDecision(enum.Enum):
    """What the pool does with a block it just mined (the MDP's action axis)."""

    WITHHOLD = "withhold"
    OVERRIDE = "override"


def available_decisions(state: State) -> tuple[PoolDecision, ...]:
    """The pool-event decisions available at ``state``.

    Every state offers both decisions except the 1-vs-1 tie ``(1, 1)``, where the
    pool's fresh block resolves the race (case 5) and only ``OVERRIDE`` keeps the
    process inside the paper's state space.
    """
    if state == State(1, 1):
        return (PoolDecision.OVERRIDE,)
    return (PoolDecision.WITHHOLD, PoolDecision.OVERRIDE)


def decision_transitions(
    state: State,
    params: MiningParams,
    decision: PoolDecision,
    *,
    max_lead: int,
) -> list[SelfishTransition]:
    """Outgoing transitions of ``state`` when the pool-event response is ``decision``.

    ``WITHHOLD`` reproduces the paper's chain verbatim.  ``OVERRIDE`` replaces the
    pool-event transition with a jump to ``(0, 0)`` tagged
    :attr:`~repro.markov.transitions.TransitionKind.POOL_EXTENDS_PRIVATE_LEAD`, whose
    reward record is the Lemma-1 "certain regular pool block" — exactly what a
    published-and-winning block earns.  Honest-event transitions are identical
    under both decisions.
    """
    base = list(transitions_from_state(state, params, max_lead=max_lead))
    if decision is PoolDecision.WITHHOLD:
        if state == State(1, 1):
            raise StateSpaceError(
                f"state {state} has no withhold decision: the tie-breaking block "
                "must be published to stay inside the truncated state space"
            )
        return base
    if state == State(1, 1):
        # The tie resolution already is the override: case 5 as enumerated.
        return base
    return [
        SelfishTransition(state, ZERO_STATE, t.rate, TransitionKind.POOL_EXTENDS_PRIVATE_LEAD)
        if t.kind in POOL_EVENT_KINDS
        else t
        for t in base
    ]


def policy_transitions_from_state(
    state: State,
    params: MiningParams,
    override_codes: frozenset[int] | set[int],
    *,
    max_lead: int,
) -> list[SelfishTransition]:
    """Transition function of the chain induced by a decision table.

    ``override_codes`` holds the :meth:`~repro.markov.state.State.encode` codes of
    the states whose pool-event response is ``OVERRIDE``; every other state
    withholds (the Algorithm-1 default, which is also the fallback of
    :class:`~repro.strategies.optimal.OptimalStrategy` outside its table).  This is
    the enumerator the compiled-table Monte Carlo backend walks when simulating an
    optimal policy.
    """
    if state == State(1, 1):
        decision = PoolDecision.OVERRIDE
    elif state.encode() in override_codes:
        decision = PoolDecision.OVERRIDE
    else:
        decision = PoolDecision.WITHHOLD
    return decision_transitions(state, params, decision, max_lead=max_lead)


@dataclass(frozen=True)
class MdpAction:
    """One ``(state, decision)`` pair with its transitions and reward records."""

    state: State
    decision: PoolDecision
    transitions: tuple[SelfishTransition, ...]
    records: tuple[TransitionRewards, ...]

    @property
    def expected_pool_reward(self) -> float:
        """Expected pool reward of one step under this action."""
        return sum(t.rate * r.pool.total for t, r in zip(self.transitions, self.records))

    @property
    def expected_total_reward(self) -> float:
        """Expected system-wide reward of one step under this action."""
        return sum(
            t.rate * (r.pool.total + r.honest.total)
            for t, r in zip(self.transitions, self.records)
        )


class MdpModel:
    """Compiled action-conditioned transition tables over the truncated state space.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` parameter point.
    schedule:
        Reward schedule the per-transition records are evaluated under.
    max_lead:
        Truncation of the state space (same semantics as the analytical chain:
        the pool-extension transition self-loops at the boundary).
    """

    def __init__(self, params: MiningParams, schedule: RewardSchedule, *, max_lead: int) -> None:
        self.params = params
        self.schedule = schedule
        self.space = StateSpace(max_lead)
        self._compile()

    def _compile(self) -> None:
        from scipy import sparse

        space = self.space
        actions: list[MdpAction] = []
        offsets = [0]
        rows: list[int] = []
        cols: list[int] = []
        probabilities: list[float] = []
        pool_rewards: list[float] = []
        total_rewards: list[float] = []
        for state in space:
            for decision in available_decisions(state):
                transitions = tuple(
                    decision_transitions(state, self.params, decision, max_lead=space.max_lead)
                )
                records = tuple(
                    transition_rewards(t, self.params, self.schedule) for t in transitions
                )
                action = MdpAction(
                    state=state, decision=decision, transitions=transitions, records=records
                )
                flat_index = len(actions)
                actions.append(action)
                for transition in transitions:
                    rows.append(flat_index)
                    cols.append(space.index_of(transition.target))
                    probabilities.append(transition.rate)
                pool_rewards.append(action.expected_pool_reward)
                total_rewards.append(action.expected_total_reward)
            offsets.append(len(actions))
        self.actions: tuple[MdpAction, ...] = tuple(actions)
        #: ``action_offsets[i]:action_offsets[i+1]`` are the flat actions of state i.
        self.action_offsets = np.asarray(offsets, dtype=np.int64)
        self.transition_matrix = sparse.coo_matrix(
            (probabilities, (rows, cols)), shape=(len(actions), len(space))
        ).tocsr()
        self.pool_rewards = np.asarray(pool_rewards, dtype=np.float64)
        self.total_rewards = np.asarray(total_rewards, dtype=np.float64)

    # ------------------------------------------------------------------ accessors
    @property
    def num_states(self) -> int:
        """Number of states in the truncated space."""
        return len(self.space)

    @property
    def num_actions(self) -> int:
        """Number of flat ``(state, decision)`` pairs."""
        return len(self.actions)

    def actions_of(self, state: State) -> tuple[MdpAction, ...]:
        """All actions available at ``state``."""
        index = self.space.index_of(state)
        start, stop = self.action_offsets[index], self.action_offsets[index + 1]
        return self.actions[start:stop]

    def flat_index(self, state_index: int, decision: PoolDecision) -> int:
        """Flat action index of ``decision`` at the state with dense ``state_index``."""
        start, stop = self.action_offsets[state_index], self.action_offsets[state_index + 1]
        for flat in range(start, stop):
            if self.actions[flat].decision is decision:
                return int(flat)
        state = self.space.state_at(state_index)
        raise StateSpaceError(f"state {state} offers no {decision.value!r} decision")

    def selfish_policy(self) -> np.ndarray:
        """Flat action indices of Algorithm 1 (withhold everywhere it is allowed)."""
        return np.asarray(
            [
                self.flat_index(
                    index,
                    PoolDecision.OVERRIDE
                    if self.space.state_at(index) == State(1, 1)
                    else PoolDecision.WITHHOLD,
                )
                for index in range(self.num_states)
            ],
            dtype=np.int64,
        )

    def honest_policy(self) -> np.ndarray:
        """Flat action indices of protocol-following mining (override everywhere).

        Only the ``(0, 0)`` entry is ever reached — an overriding pool never builds
        a lead — but the table is total so the induced chain is well defined.
        """
        return np.asarray(
            [self.flat_index(index, PoolDecision.OVERRIDE) for index in range(self.num_states)],
            dtype=np.int64,
        )

    def describe(self) -> str:
        """Short human-readable summary of the compiled model."""
        return (
            f"MdpModel(states={self.num_states}, actions={self.num_actions}, "
            f"{self.params.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
