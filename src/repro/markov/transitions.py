"""Transition structure of the selfish-mining Markov process (Section IV-C).

Every transition corresponds to the creation of exactly one block — by the pool (rate
``alpha``) or by honest miners (rate ``beta``, split ``beta*gamma`` / ``beta*(1-gamma)``
between the pool-prefix branch and an honest branch whenever the state has competing
public branches).  The transitions are tagged with a :class:`TransitionKind`, one per
case of the paper's Appendix B, which the reward engine uses to attach the expected
static/uncle/nephew rewards.

The complete list, with the paper's case numbers:

==============================  =============================  ==========  =====
Kind                            Transition                      Rate        Case
==============================  =============================  ==========  =====
HONEST_EXTENDS_CONSENSUS        (0,0)   -> (0,0)                beta        1
POOL_HIDES_FIRST_BLOCK          (0,0)   -> (1,0)                alpha       2
POOL_BUILDS_LEAD_OF_TWO         (1,0)   -> (2,0)                alpha       3
HONEST_FORCES_TIE               (1,0)   -> (1,1)                beta        4
TIE_RESOLVED                    (1,1)   -> (0,0)                1           5
POOL_EXTENDS_PRIVATE_LEAD       (i,j)   -> (i+1,j), i>=2        alpha       6
HONEST_ON_PREFIX_LONG_LEAD      (i,j)   -> (i-j,1), i-j>=3,j>=1 beta*gamma  7
HONEST_ON_PREFIX_LEAD_TWO       (i,j)   -> (0,0),   i-j==2,j>=1 beta*gamma  8
HONEST_CLOSES_LEAD_TWO          (2,0)   -> (0,0)                beta        9
HONEST_FORKS_LONG_LEAD          (i,0)   -> (i,1),   i>=3        beta        10
HONEST_ON_HONEST_BRANCH         (i,j)   -> (i,j+1), i-j>=3,j>=1 beta*(1-g)  11
HONEST_ON_HONEST_LEAD_TWO       (i,j)   -> (0,0),   i-j==2,j>=1 beta*(1-g)  12
==============================  =============================  ==========  =====

Truncation: the pool-extension transition (case 6) out of a state at the cap
self-loops, so that every state keeps a unit exit rate.  :func:`transitions_from_state`
caps the private branch at its ``max_lead``; :func:`selfish_mining_transitions` caps
the lead of the :class:`~repro.markov.state.LumpedSpace` chain.  The lead is a biased
random walk, so the lumped chain's boundary mass is about ``(alpha / beta) ** max_lead``
for every gamma: measured 8.7e-7 at ``alpha = 0.45``, ``max_lead = 60``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from ..params import MiningParams
from .chain import Transition
from .state import LumpedSpace, State


class TransitionKind(enum.Enum):
    """One member per reward case of the paper's Appendix B."""

    HONEST_EXTENDS_CONSENSUS = 1
    POOL_HIDES_FIRST_BLOCK = 2
    POOL_BUILDS_LEAD_OF_TWO = 3
    HONEST_FORCES_TIE = 4
    TIE_RESOLVED = 5
    POOL_EXTENDS_PRIVATE_LEAD = 6
    HONEST_ON_PREFIX_LONG_LEAD = 7
    HONEST_ON_PREFIX_LEAD_TWO = 8
    HONEST_CLOSES_LEAD_TWO = 9
    HONEST_FORKS_LONG_LEAD = 10
    HONEST_ON_HONEST_BRANCH = 11
    HONEST_ON_HONEST_LEAD_TWO = 12

    @property
    def case_number(self) -> int:
        """The Appendix-B case number this kind corresponds to."""
        return self.value


@dataclass(frozen=True)
class SelfishTransition:
    """A labelled transition of the selfish-mining chain."""

    source: State
    target: State
    rate: float
    kind: TransitionKind

    def as_transition(self) -> Transition[State]:
        """Convert to the generic :class:`~repro.markov.chain.Transition`."""
        return Transition(source=self.source, target=self.target, rate=self.rate, label=self.kind.name)

    def encode(self) -> tuple[int, int, int]:
        """Integer triple ``(source_code, target_code, case_number)``.

        Uses :meth:`repro.markov.state.State.encode`, so the triple identifies the
        transition independently of any truncation level.  The compiled-table
        simulator and its regression tests use this as a compact, hashable key.
        """
        return (self.source.encode(), self.target.encode(), self.kind.case_number)


def transitions_from_state(state: State, params: MiningParams, *, max_lead: int) -> Iterator[SelfishTransition]:
    """Yield every outgoing transition of ``state`` under the paper's strategy.

    The truncation ``max_lead`` only affects case 6: from a state at the truncation
    boundary the pool-extension transition becomes a self-loop.
    """
    alpha = params.alpha
    beta = params.beta
    gamma = params.gamma
    i, j = state.private, state.public

    if state == State(0, 0):
        yield SelfishTransition(state, State(0, 0), beta, TransitionKind.HONEST_EXTENDS_CONSENSUS)
        yield SelfishTransition(state, State(1, 0), alpha, TransitionKind.POOL_HIDES_FIRST_BLOCK)
        return

    if state == State(1, 0):
        yield SelfishTransition(state, State(2, 0), alpha, TransitionKind.POOL_BUILDS_LEAD_OF_TWO)
        yield SelfishTransition(state, State(1, 1), beta, TransitionKind.HONEST_FORCES_TIE)
        return

    if state == State(1, 1):
        yield SelfishTransition(state, State(0, 0), alpha + beta, TransitionKind.TIE_RESOLVED)
        return

    if state.lead < 2:
        raise ValueError(f"state {state} is not reachable under the selfish-mining strategy")

    # Pool extends its private branch (case 6); redirected to a self-loop at the
    # truncation boundary so the exit rate stays 1.
    pool_target = State(i + 1, j) if i + 1 <= max_lead else state
    yield SelfishTransition(state, pool_target, alpha, TransitionKind.POOL_EXTENDS_PRIVATE_LEAD)

    if j == 0:
        if i == 2:
            # Case 9: honest miners close the gap to one; the pool overrides.
            yield SelfishTransition(state, State(0, 0), beta, TransitionKind.HONEST_CLOSES_LEAD_TWO)
        else:
            # Case 10: honest miners fork off the consensus tip; the pool answers by
            # publishing its first withheld block.
            yield SelfishTransition(state, State(i, 1), beta, TransitionKind.HONEST_FORKS_LONG_LEAD)
        return

    # j >= 1: there are two public branches of length j (the pool's published prefix
    # and an honest branch); gamma decides which one the honest block extends.
    if state.lead == 2:
        yield SelfishTransition(state, State(0, 0), beta * gamma, TransitionKind.HONEST_ON_PREFIX_LEAD_TWO)
        yield SelfishTransition(
            state, State(0, 0), beta * (1.0 - gamma), TransitionKind.HONEST_ON_HONEST_LEAD_TWO
        )
        return

    yield SelfishTransition(state, State(i - j, 1), beta * gamma, TransitionKind.HONEST_ON_PREFIX_LONG_LEAD)
    yield SelfishTransition(state, State(i, j + 1), beta * (1.0 - gamma), TransitionKind.HONEST_ON_HONEST_BRANCH)


def selfish_mining_transitions(params: MiningParams, space: LumpedSpace) -> list[SelfishTransition]:
    """Enumerate every transition of the lumped selfish-mining chain over ``space``.

    Each representative keeps the transitions :func:`transitions_from_state` gives
    it, with every target replaced by the target's representative.  A forked
    representative ``(d + 1, 1)`` has one more private block than its lead, so its
    private cap is ``max_lead + 1``: case 6 self-loops exactly at lead ``max_lead``.
    """
    transitions: list[SelfishTransition] = []
    for state in space:
        for transition in transitions_from_state(state, params, max_lead=space.max_lead + state.public):
            target = space.representative(transition.target)
            transitions.append(SelfishTransition(state, target, transition.rate, transition.kind))
    return transitions
