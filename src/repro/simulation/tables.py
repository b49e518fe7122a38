"""Compiled transition tables for the Markov Monte Carlo backend.

The scalar :class:`~repro.simulation.fast.MarkovMonteCarlo` loop re-derives the full
Appendix-B reward record and performs about a dozen floating-point accumulations on
*every* sampled event, even though a 100 000-block run only ever visits a few dozen
distinct states and transitions.  This module moves all of that per-event work to
compile time:

* every visited :class:`~repro.markov.state.State` is integer-encoded
  (:meth:`State.encode`) and compiled — once — into a *state row*: the running
  cumulative probabilities of its outgoing transitions (in enumeration order, summed
  exactly as the scalar sampler sums them) plus direct references to the successor
  rows;
* every distinct transition gets one global index and one row of a numpy *reward
  matrix* holding its :data:`~repro.analysis.reward_cases.REWARD_COMPONENTS` vector
  — each :class:`~repro.analysis.reward_cases.TransitionRewards` component is
  computed once per transition instead of once per event.  On the paper's chain,
  and on the chain of an optimal policy (whose decisions are looked up by class),
  a state's records depend only on its ``(lead, forked)`` class, so the rows are
  computed once per class and shared by every state of it (480 selfish runs of
  2,000 blocks evaluated 14,455 records this way instead of 38,092 per state);
* the chain walk then only compares a buffered uniform draw against the cumulative
  thresholds and increments an integer visit count, and a whole run is settled at
  the end by :func:`~repro.analysis.reward_cases.fold_rewards` — a single
  ``counts @ reward_matrix`` product, the fold the analytical model settles its
  long-run rates with.

Because the thresholds are the scalar sampler's partial sums and the uniforms come
from the same :class:`~repro.simulation.rng.RandomSource` stream, the sampled
transition sequence for a given seed is *identical* to the scalar backend's; only
the reward totals are reassociated (count-times-value instead of repeated
addition), which the regression tests bound at 1e-9 relative error.

States are compiled lazily as the walk first reaches them, so no truncation level
has to be chosen up front.  Thresholds, targets and transition indices stay per
state, so the settlement sums the same rows in the same order as a per-state
compilation and is bit-identical to it.  The reward records cost one evaluation per
visited class.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..analysis.reward_cases import REWARD_COMPONENTS, RewardTotals, fold_rewards, transition_rewards
from ..markov.state import State, decode_state
from ..markov.transitions import SelfishTransition, transitions_from_state
from ..params import MiningParams
from ..rewards.schedule import RewardSchedule
from .rng import RandomSource

# Positions of the row fields inside the plain-list state rows.  Lists beat a
# dataclass here: the walk unpacks one row per event and list unpacking is the
# cheapest structure CPython offers for that.
_THRESHOLDS, _TARGETS, _BASE, _LAST, _CODE = range(5)

#: Uniform draws fetched from the random source per walk chunk.
WALK_CHUNK = 8192


class CompiledTransitionTables:
    """Lazily compiled per-state transition and reward tables.

    Parameters
    ----------
    params:
        The ``(alpha, gamma)`` parameter point.
    schedule:
        Reward schedule the per-transition reward vectors are evaluated under.
    max_lead:
        Truncation forwarded to the transition enumeration (the Monte Carlo
        backends use an effectively unbounded value).
    transitions:
        Optional replacement transition enumerator (``state -> transitions``).
        Defaults to the paper's Algorithm-1 chain
        (:func:`~repro.markov.transitions.transitions_from_state`); the optimal
        strategy passes the chain induced by its solved policy
        (:func:`~repro.mdp.model.policy_transitions_from_state`) so the same walk
        and settlement machinery simulates any withhold/override decision table.
        Either way a state's reward rows are computed once per ``(lead,
        forked)`` class, so the enumerator must give every state of a class
        transitions of the same kinds with the same uncle distances, as both of
        these do.
    """

    def __init__(
        self,
        params: MiningParams,
        schedule: RewardSchedule,
        *,
        max_lead: int,
        transitions: Callable[[State], list[SelfishTransition]] | None = None,
    ) -> None:
        self.params = params
        self.schedule = schedule
        self.max_lead = max_lead
        self._transitions_of = (
            transitions
            if transitions is not None
            else partial(transitions_from_state, params=params, max_lead=max_lead)
        )
        self._rows: dict[int, list] = {}
        self._transitions: list[SelfishTransition] = []
        self._component_rows: list[tuple[float, ...]] = []
        self._distance_rows: list[tuple[tuple[bool, int, float], ...]] = []
        # (lead, forked) class -> its (component rows, distance rows).
        self._class_rows: dict[tuple[int, bool], tuple[list, list]] = {}

    # ------------------------------------------------------------------ compilation
    @property
    def num_states(self) -> int:
        """Number of state rows compiled so far."""
        return len(self._rows)

    @property
    def num_transitions(self) -> int:
        """Number of distinct transitions compiled so far."""
        return len(self._transitions)

    def transition_at(self, index: int) -> SelfishTransition:
        """The transition holding global index ``index``."""
        return self._transitions[index]

    def row_for(self, state: State) -> list:
        """Return (compiling on first use) the state row of ``state``."""
        return self._row_for_code(state.encode())

    def _row_for_code(self, code: int) -> list:
        row = self._rows.get(code)
        if row is None:
            row = self._compile(code)
        return row

    def _compile(self, code: int) -> list:
        state = decode_state(code)
        transitions = list(self._transitions_of(state))
        # A state's Appendix-B records depend only on its (lead, forked) class,
        # so each class's rows are computed once.
        key = (state.lead, state.public == 0)
        rows = self._class_rows.get(key)
        if rows is None:
            rows = self._class_rows[key] = self._reward_rows(transitions)
        thresholds: list[float] = []
        cumulative = 0.0
        for transition in transitions:
            # The exact partial sums the scalar sampler compares against, so both
            # backends map any uniform draw to the same transition.
            cumulative += transition.rate
            thresholds.append(cumulative)
        base = len(self._transitions)
        self._component_rows.extend(rows[0])
        self._distance_rows.extend(rows[1])
        self._transitions.extend(transitions)
        row = [
            tuple(thresholds),
            [transition.target.encode() for transition in transitions],
            base,
            len(transitions) - 1,
            code,
        ]
        self._rows[code] = row
        return row

    def _reward_rows(self, transitions: list[SelfishTransition]) -> tuple[list, list]:
        """The component and distance rows of ``transitions``, in order."""
        records = [transition_rewards(transition, self.params, self.schedule) for transition in transitions]
        return (
            [record.component_vector() for record in records],
            [record.distance_contributions() for record in records],
        )

    # ------------------------------------------------------------------ walking
    def walk(
        self,
        start: State,
        num_steps: int,
        rng: RandomSource,
        *,
        trace: list[int] | None = None,
    ) -> tuple[list[int], State]:
        """Sample ``num_steps`` transitions starting from ``start``.

        Returns the per-transition visit counts (indexed by the tables' global
        transition indices) and the final state.  ``trace``, when given, receives
        the encoded target state of every step — the regression tests use it to
        pin the sampled sequence against the scalar backend.
        """
        row = self.row_for(start)
        counts = [0] * len(self._transitions)
        remaining = num_steps
        while remaining > 0:
            chunk = WALK_CHUNK if remaining > WALK_CHUNK else remaining
            for draw in rng.uniform_block(chunk):
                thresholds, targets, base, last, _ = row
                index = 0
                while index < last and draw >= thresholds[index]:
                    index += 1
                counts[base + index] += 1
                successor = targets[index]
                if type(successor) is int:
                    grown_from = len(self._transitions)
                    successor = self._row_for_code(successor)
                    grown = len(self._transitions) - grown_from
                    if grown:
                        counts.extend([0] * grown)
                    targets[index] = successor
                row = successor
                if trace is not None:
                    trace.append(row[_CODE])
            remaining -= chunk
        return counts, decode_state(row[_CODE])

    # ------------------------------------------------------------------ settlement
    def reward_matrix(self) -> np.ndarray:
        """The compiled ``(num_transitions, len(REWARD_COMPONENTS))`` reward matrix."""
        return np.asarray(self._component_rows, dtype=np.float64).reshape(-1, len(REWARD_COMPONENTS))

    def settle(self, counts: list[int]) -> RewardTotals:
        """Fold per-transition visit counts into run totals (``counts @ matrix``)."""
        return fold_rewards(counts, self.reward_matrix(), self._distance_rows)

    def describe(self) -> str:
        """Short human-readable summary of the compiled tables."""
        return (
            f"CompiledTransitionTables(states={self.num_states}, "
            f"transitions={self.num_transitions}, {self.params.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
