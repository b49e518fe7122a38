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
  derived; relaxing them would both leave the paper's state space
  (stubborn-style ties live at ``lead <= 1``, which the space does not encode) and
  silently invalidate the per-transition reward records.

Exactness.  Case 2's destiny decomposition conditions only on *which* party mines
the next block and on the forced tie behaviour, so it is exact under every policy
expressible here; cases 3/6 are certain regular blocks under withholding *and*
under any later override (Lemma 1).  The records of cases 7-10 embed the selfish
continuation of the race (uncle distance, nephew race), so policies that override
from a deep lead are scored slightly conservatively — the honest side is credited
the full selfish-continuation uncle value even though an early override may push
the reference beyond the inclusion window.  The policies the solver extracts
(Algorithm 1 above the profitability threshold, honest mining below it, on every
point of the sweep the README reports) use no such transition, so their values
are exact: the unit and property suites pin the selfish-pinned evaluation to
:class:`~repro.analysis.revenue.RevenueModel` field for field, and the
integration suite pins the extracted strategy against Monte-Carlo runs.

The model lives on the analytical model's state space, the ``(lead, forked)``
lumping :class:`~repro.markov.state.LumpedSpace` with the pool's lead capped at
``max_lead``.  A decision table that decides alike on every state of a class
induces a chain that lumps exactly as Algorithm 1's does (see
:class:`~repro.analysis.revenue.RevenueModel`): an override jumps to ``(0, 0)``
from any state, and its record, the certain regular block, reads nothing of the
source.  So each representative takes its actions from
:func:`decision_transitions` with the private cap ``max_lead + public`` and its
targets mapped through :meth:`~repro.markov.state.LumpedSpace.representative`,
exactly as :class:`~repro.markov.transitions.LumpedChain` builds its edges:
withholding at every state reproduces ``LumpedChain.edges`` in order.  That the
optimum of the unlumped ``(Ls, Lh)`` process is class-measurable, so nothing is
lost by solving the lumped one, is checked by the test suite against a
full-space solve.

:class:`MdpModel` compiles every action's transitions into flat edge arrays,
so scoring every action against a value vector is a gather and a segmented sum.
"""

from __future__ import annotations

import enum

import numpy as np

from ..analysis.reward_cases import RewardRows
from ..errors import StateSpaceError
from ..markov.state import LumpedSpace, State, ZERO_STATE
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
    the class representatives (:meth:`~repro.markov.state.LumpedSpace.representative`)
    whose pool-event response is ``OVERRIDE``; every other state withholds (the
    Algorithm-1 default, which is also the fallback of
    :class:`~repro.strategies.optimal.OptimalStrategy` outside its table).  This is
    the enumerator the compiled-table Monte Carlo backend walks when simulating an
    optimal policy.
    """
    if state == State(1, 1) or LumpedSpace.representative(state).encode() in override_codes:
        decision = PoolDecision.OVERRIDE
    else:
        decision = PoolDecision.WITHHOLD
    return decision_transitions(state, params, decision, max_lead=max_lead)


class MdpModel:
    """Compiled action-conditioned transition tables over the lumped state space.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` parameter point.
    schedule:
        Reward schedule the Appendix-B rows are evaluated under.
    max_lead:
        Cap on the pool's lead, as in
        :class:`~repro.analysis.revenue.RevenueModel`: a withheld pool block at
        lead ``max_lead`` self-loops.

    Attributes
    ----------
    space:
        The :class:`~repro.markov.state.LumpedSpace`.
    decisions:
        The decision of each flat action.
    action_offsets:
        ``action_offsets[i]:action_offsets[i+1]`` are the flat actions of state ``i``.
    edges:
        ``(source, target, kind)`` of every transition of every action, in flat
        action order; ``edge_offsets[a]:edge_offsets[a+1]`` are action ``a``'s.
    sources, targets, rates:
        The edges' state indices and rates.
    rewards:
        The :class:`~repro.analysis.reward_cases.RewardRows` of the edges.
    pool_rewards, total_rewards:
        Expected one-step pool and system-wide reward of each flat action.
    """

    def __init__(self, params: MiningParams, schedule: RewardSchedule, *, max_lead: int) -> None:
        self.params = params
        self.schedule = schedule
        self.space = LumpedSpace(max_lead)
        self._compile()

    def _compile(self) -> None:
        space = self.space
        decisions: list[PoolDecision] = []
        action_offsets = [0]
        edge_offsets = [0]
        transitions: list[SelfishTransition] = []
        for state in space:
            for decision in available_decisions(state):
                transitions += decision_transitions(
                    state, self.params, decision, max_lead=space.max_lead + state.public
                )
                decisions.append(decision)
                edge_offsets.append(len(transitions))
            action_offsets.append(len(decisions))
        self.decisions: tuple[PoolDecision, ...] = tuple(decisions)
        self.action_offsets = np.asarray(action_offsets, dtype=np.intp)
        self.edge_offsets = np.asarray(edge_offsets, dtype=np.intp)
        self.edges: list[tuple[State, State, TransitionKind]] = [
            (t.source, space.representative(t.target), t.kind) for t in transitions
        ]
        self.sources = np.array([space.index_of(source) for source, _, _ in self.edges], dtype=np.intp)
        self.targets = np.array([space.index_of(target) for _, target, _ in self.edges], dtype=np.intp)
        self.rates = np.array([t.rate for t in transitions], dtype=np.float64)
        self.rewards = RewardRows([(t.source, t.kind) for t in transitions], self.schedule)
        components, _ = self.rewards.gather(self.params, np.arange(len(transitions)))
        # Columns 0-2 are the pool's static/uncle/nephew rewards, 3-5 the honest miners'.
        weighted = self.rates[:, None] * components[:, :6]
        self.pool_rewards = np.add.reduceat(weighted[:, :3].sum(axis=1), self.edge_offsets[:-1])
        self.total_rewards = np.add.reduceat(weighted.sum(axis=1), self.edge_offsets[:-1])

    # ------------------------------------------------------------------ accessors
    @property
    def num_states(self) -> int:
        """Number of states in the lumped space."""
        return len(self.space)

    @property
    def num_actions(self) -> int:
        """Number of flat ``(state, decision)`` pairs."""
        return len(self.decisions)

    def expected_values(self, values: np.ndarray) -> np.ndarray:
        """Each flat action's expected next-state value under the state ``values``."""
        return np.add.reduceat(self.rates * values[self.targets], self.edge_offsets[:-1])

    def policy_edges(self, policy: np.ndarray) -> np.ndarray:
        """The edge indices of the flat actions in ``policy``, in order."""
        offsets = self.edge_offsets.tolist()
        return np.array(
            [edge for flat in policy.tolist() for edge in range(offsets[flat], offsets[flat + 1])],
            dtype=np.intp,
        )

    def flat_index(self, state_index: int, decision: PoolDecision) -> int:
        """Flat action index of ``decision`` at the state with dense ``state_index``."""
        start, stop = self.action_offsets[state_index], self.action_offsets[state_index + 1]
        for flat in range(start, stop):
            if self.decisions[flat] is decision:
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
            dtype=np.intp,
        )

    def honest_policy(self) -> np.ndarray:
        """Flat action indices of protocol-following mining (override everywhere).

        Only the ``(0, 0)`` entry is ever reached — an overriding pool never builds
        a lead — but the table is total so the induced chain is well defined.
        """
        return np.asarray(
            [self.flat_index(index, PoolDecision.OVERRIDE) for index in range(self.num_states)],
            dtype=np.intp,
        )

    def describe(self) -> str:
        """Short human-readable summary of the compiled model."""
        return (
            f"MdpModel(states={self.num_states}, actions={self.num_actions}, "
            f"{self.params.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
