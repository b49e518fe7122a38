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
TIE_RESOLVED                    (1,1)   -> (0,0)                alpha+beta  5
POOL_EXTENDS_PRIVATE_LEAD       (i,j)   -> (i+1,j), i>=2        alpha       6
HONEST_ON_PREFIX_LONG_LEAD      (i,j)   -> (i-j,1), i-j>=3,j>=1 beta*gamma  7
HONEST_ON_PREFIX_LEAD_TWO       (i,j)   -> (0,0),   i-j==2,j>=1 beta*gamma  8
HONEST_CLOSES_LEAD_TWO          (2,0)   -> (0,0)                beta        9
HONEST_FORKS_LONG_LEAD          (i,0)   -> (i,1),   i>=3        beta        10
HONEST_ON_HONEST_BRANCH         (i,j)   -> (i,j+1), i-j>=3,j>=1 beta*(1-g)  11
HONEST_ON_HONEST_LEAD_TWO       (i,j)   -> (0,0),   i-j==2,j>=1 beta*(1-g)  12
==============================  =============================  ==========  =====

The Rate column has one definition: each kind names its rate
(:attr:`TransitionKind.rate_index`) among the five values :func:`rate_values`
computes, and every transition of the chain reads its rate from there.  The
tie's ``alpha + beta`` is 1 up to round-off.

Truncation: the pool-extension transition (case 6) out of a state at the cap
self-loops, so that every state keeps a unit exit rate.  :func:`transitions_from_state`
caps the private branch at its ``max_lead``; :class:`LumpedChain` caps the lead of the
:class:`~repro.markov.state.LumpedSpace` chain, which it compiles once into index form
for the analytical model.  The lead is a biased random walk, so the lumped chain's
boundary mass is about ``(alpha / beta) ** max_lead`` for every gamma: measured 8.7e-7
at ``alpha = 0.45``, ``max_lead = 60``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from ..params import MiningParams
from .chain import Transition
from .state import ZERO_STATE, LumpedSpace, State
from .stationary import banded_solve

#: Positions in :func:`rate_values`: the five distinct entries of the Rate column.
_ALPHA, _BETA, _BETA_GAMMA, _BETA_NOT_GAMMA, _ALPHA_PLUS_BETA = range(5)


def rate_values(params: MiningParams) -> tuple[float, float, float, float, float]:
    """The Rate column's values at ``params``: a kind's rate is entry :attr:`TransitionKind.rate_index`."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    return (alpha, beta, beta * gamma, beta * (1.0 - gamma), alpha + beta)


class TransitionKind(enum.Enum):
    """One member per reward case of the paper's Appendix B.

    A member's value is its case number; :attr:`rate_index` is its entry of the
    Rate column, as a position in :func:`rate_values`.
    """

    HONEST_EXTENDS_CONSENSUS = 1, _BETA
    POOL_HIDES_FIRST_BLOCK = 2, _ALPHA
    POOL_BUILDS_LEAD_OF_TWO = 3, _ALPHA
    HONEST_FORCES_TIE = 4, _BETA
    TIE_RESOLVED = 5, _ALPHA_PLUS_BETA
    POOL_EXTENDS_PRIVATE_LEAD = 6, _ALPHA
    HONEST_ON_PREFIX_LONG_LEAD = 7, _BETA_GAMMA
    HONEST_ON_PREFIX_LEAD_TWO = 8, _BETA_GAMMA
    HONEST_CLOSES_LEAD_TWO = 9, _BETA
    HONEST_FORKS_LONG_LEAD = 10, _BETA
    HONEST_ON_HONEST_BRANCH = 11, _BETA_NOT_GAMMA
    HONEST_ON_HONEST_LEAD_TWO = 12, _BETA_NOT_GAMMA

    def __new__(cls, case: int, rate_index: int) -> "TransitionKind":
        member = object.__new__(cls)
        member._value_ = case
        member.rate_index = rate_index
        return member

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


#: The moves out of the three states below lead 2, which no truncation touches.
_SPECIAL_MOVES: dict[tuple[int, int], tuple[tuple[State, TransitionKind], ...]] = {
    (0, 0): (
        (ZERO_STATE, TransitionKind.HONEST_EXTENDS_CONSENSUS),
        (State(1, 0), TransitionKind.POOL_HIDES_FIRST_BLOCK),
    ),
    (1, 0): (
        (State(2, 0), TransitionKind.POOL_BUILDS_LEAD_OF_TWO),
        (State(1, 1), TransitionKind.HONEST_FORCES_TIE),
    ),
    (1, 1): ((ZERO_STATE, TransitionKind.TIE_RESOLVED),),
}


def outgoing_moves(state: State, *, max_lead: int) -> tuple[tuple[State, TransitionKind], ...]:
    """The ``(target, kind)`` of every transition out of ``state``, in enumeration order.

    This is the chain's structure without its rates; each kind's rate is its
    entry of :func:`rate_values`.  The truncation ``max_lead`` only affects
    case 6: from a state at the truncation boundary the pool-extension
    transition becomes a self-loop.
    """
    i, j = state.private, state.public
    special = _SPECIAL_MOVES.get((i, j))
    if special is not None:
        return special
    lead = i - j
    if lead < 2:
        raise ValueError(f"state {state} is not reachable under the selfish-mining strategy")

    # Pool extends its private branch (case 6); redirected to a self-loop at the
    # truncation boundary so the exit rate stays 1.
    pool = (State(i + 1, j) if i + 1 <= max_lead else state, TransitionKind.POOL_EXTENDS_PRIVATE_LEAD)

    if j == 0:
        if i == 2:
            # Case 9: honest miners close the gap to one; the pool overrides.
            return (pool, (ZERO_STATE, TransitionKind.HONEST_CLOSES_LEAD_TWO))
        # Case 10: honest miners fork off the consensus tip; the pool answers by
        # publishing its first withheld block.
        return (pool, (State(i, 1), TransitionKind.HONEST_FORKS_LONG_LEAD))

    # j >= 1: there are two public branches of length j (the pool's published prefix
    # and an honest branch); gamma decides which one the honest block extends.
    if lead == 2:
        return (
            pool,
            (ZERO_STATE, TransitionKind.HONEST_ON_PREFIX_LEAD_TWO),
            (ZERO_STATE, TransitionKind.HONEST_ON_HONEST_LEAD_TWO),
        )
    return (
        pool,
        (State(lead, 1), TransitionKind.HONEST_ON_PREFIX_LONG_LEAD),
        (State(i, j + 1), TransitionKind.HONEST_ON_HONEST_BRANCH),
    )


def transitions_from_state(state: State, params: MiningParams, *, max_lead: int) -> Iterator[SelfishTransition]:
    """Yield every outgoing transition of ``state`` under the paper's strategy.

    The moves are :func:`outgoing_moves`'s, each with its kind's rate at ``params``.
    """
    rates = rate_values(params)
    for target, kind in outgoing_moves(state, max_lead=max_lead):
        yield SelfishTransition(state, target, rates[kind.rate_index], kind)


class LumpedChain:
    """The lumped selfish-mining chain over ``space``, compiled once without its rates.

    Each representative keeps the moves :func:`outgoing_moves` gives it, with
    every target replaced by the target's representative.  A forked
    representative ``(d + 1, 1)`` has one more private block than its lead, so its
    private cap is ``max_lead + 1``: case 6 self-loops exactly at lead ``max_lead``.

    In enumeration order, :attr:`edges` holds each transition's source state,
    target state and kind, and :attr:`sources` and :attr:`targets` their indices
    in ``space``.  :attr:`moves` lists the transitions that leave their state (a
    self-loop cancels out of the balance equations) and :attr:`boundary` the
    indices of the states whose pool extension self-loops.  Only the rates
    depend on the parameter point: :meth:`rates` computes them and :meth:`solve`
    runs the banded elimination on them.
    """

    def __init__(self, space: LumpedSpace) -> None:
        self.space = space
        self.edges: list[tuple[State, State, TransitionKind]] = [
            (source, space.representative(target), kind)
            for source in space
            for target, kind in outgoing_moves(source, max_lead=space.max_lead + source.public)
        ]
        index = space.index_of
        self.sources: list[int] = [index(source) for source, _, _ in self.edges]
        self.targets: list[int] = [index(target) for _, target, _ in self.edges]
        self.moves: list[int] = [
            k for k, (source, target) in enumerate(zip(self.sources, self.targets)) if source != target
        ]
        self.boundary: list[int] = space.boundary_indices()
        self._rate_indices = [kind.rate_index for _, _, kind in self.edges]

    def rates(self, params: MiningParams) -> list[float]:
        """Every transition's rate at ``params``, in enumeration order."""
        values = rate_values(params)
        return [values[index] for index in self._rate_indices]

    def solve(self, rates: list[float]) -> tuple[tuple[float, ...], float]:
        """The stationary probabilities (in ``space`` order) and residual under ``rates``."""
        sources, targets = self.sources, self.targets
        return banded_solve(len(self.space), [(sources[k], targets[k], rates[k]) for k in self.moves])


def selfish_mining_transitions(params: MiningParams, space: LumpedSpace) -> list[SelfishTransition]:
    """Enumerate every transition of the lumped selfish-mining chain over ``space``.

    See :class:`LumpedChain` for the structure; each transition carries its
    kind's rate at ``params``.
    """
    chain = LumpedChain(space)
    return [
        SelfishTransition(source, target, rate, kind)
        for (source, target, kind), rate in zip(chain.edges, chain.rates(params))
    ]
