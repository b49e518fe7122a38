"""States of the 2-dimensional selfish-mining Markov process.

A state is the pair ``(Ls, Lh)`` where ``Ls`` is the length of the selfish pool's
private branch and ``Lh`` the (common) length of the public branches (Section IV-B).
The reachable state space under Algorithm 1 is

* ``(0, 0)`` — no race in progress, everyone mines on the consensus tip,
* ``(1, 0)`` — the pool holds one private block,
* ``(1, 1)`` — a tie: one private (now published) block against one honest block,
* ``(i, j)`` with ``i - j >= 2`` and ``j >= 0`` — the pool leads by at least two.

The state space is infinite.  The compiled Monte Carlo tables walk it state by
state, keyed by :meth:`State.encode`.  :class:`LumpedSpace` keeps one
representative per ``(lead, forked)`` class with the lead capped at ``max_lead``
(``2 * max_lead + 1`` states); the analytical revenue model and the
optimal-strategy MDP solve that exact lumping (see
:class:`~repro.analysis.revenue.RevenueModel` and :mod:`repro.mdp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ..errors import StateSpaceError


@dataclass(frozen=True, order=True)
class State:
    """A ``(private_length, public_length)`` pair, i.e. ``(Ls, Lh)``.

    The ordering (lexicographic on ``(private, public)``) is only used to make state
    enumeration deterministic; it has no modelling meaning.
    """

    private: int
    public: int

    def __post_init__(self) -> None:
        if self.private < 0 or self.public < 0:
            raise StateSpaceError(f"branch lengths must be non-negative, got {self}")

    @property
    def lead(self) -> int:
        """The pool's advantage ``Ls - Lh`` (may be negative for invalid states)."""
        return self.private - self.public

    def is_valid(self) -> bool:
        """True if the state is reachable under the selfish-mining strategy."""
        if self == State(0, 0) or self == State(1, 0) or self == State(1, 1):
            return True
        return self.lead >= 2 and self.public >= 0

    def encode(self) -> int:
        """Dense non-negative integer code of this state.

        The three special states map to 0-2 and ``(i, j)`` (``i - j >= 2``) to
        ``3 + (i - 1)(i - 2)/2 + j``: the states ordered by ``i`` and then ``j``,
        so the code does not depend on any truncation level.  The compiled-table simulator keys its state
        rows by this code; :func:`decode_state` is the inverse.
        """
        i, j = self.private, self.public
        if i <= 1:
            if j == 0:
                return i  # (0,0) -> 0, (1,0) -> 1
            if i == 1 and j == 1:
                return 2
        elif i - j >= 2:
            return 3 + (i - 1) * (i - 2) // 2 + j
        raise StateSpaceError(f"state {self} is not reachable and has no integer code")

    def __str__(self) -> str:
        return f"({self.private},{self.public})"


#: The idle state in which every miner works on the consensus tip.
ZERO_STATE = State(0, 0)


def decode_state(code: int) -> State:
    """Inverse of :meth:`State.encode`.

    Recovers ``(i, j)`` from the triangular-number layout: ``i`` is the largest
    value with ``(i - 1)(i - 2)/2 <= code - 3`` and ``j`` is the remainder.
    """
    if code < 0:
        raise StateSpaceError(f"state codes are non-negative, got {code}")
    if code < 3:
        return (State(0, 0), State(1, 0), State(1, 1))[code]
    offset = code - 3
    # Solve (i - 1)(i - 2)/2 <= offset < (i - 1)(i - 2)/2 + (i - 1) for i.
    i = (3 + math.isqrt(1 + 8 * offset)) // 2
    while (i - 1) * (i - 2) // 2 > offset:
        i -= 1
    while (i - 1) * (i - 2) // 2 + (i - 1) <= offset:
        i += 1
    return State(i, offset - (i - 1) * (i - 2) // 2)


class LumpedSpace:
    """The ``(lead, forked)`` lumping of the state space, with the lead capped at ``max_lead``.

    Its states are ``(0, 0)``, ``(1, 0)``, ``(1, 1)`` and, for every lead ``d`` in
    ``2..max_lead``, the unforked ``(d, 0)`` and the forked ``(d + 1, 1)``, which
    stands for every ``(i, j)`` with ``i - j == d`` and ``j >= 1``.  The class maps
    between these states and dense integer indices, in that order.
    """

    def __init__(self, max_lead: int) -> None:
        if max_lead < 2:
            raise StateSpaceError(f"max_lead must be at least 2, got {max_lead}")
        self._max_lead = int(max_lead)
        states = [State(0, 0), State(1, 0), State(1, 1)]
        for lead in range(2, self._max_lead + 1):
            states += (State(lead, 0), State(lead + 1, 1))
        self._states = states
        self._index = {state: position for position, state in enumerate(states)}

    @property
    def max_lead(self) -> int:
        """The cap on the pool's lead."""
        return self._max_lead

    @property
    def states(self) -> tuple[State, ...]:
        """All states in index order."""
        return tuple(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[State]:
        return iter(self._states)

    def __contains__(self, state: State) -> bool:
        return state in self._index

    def index_of(self, state: State) -> int:
        """Return the dense index of ``state``; raise if it is not in the space."""
        try:
            return self._index[state]
        except KeyError as exc:
            raise StateSpaceError(f"state {state} is not in the truncated state space") from exc

    def state_at(self, index: int) -> State:
        """Return the state stored at dense index ``index``."""
        try:
            return self._states[index]
        except IndexError as exc:
            raise StateSpaceError(f"index {index} out of range for state space of size {len(self)}") from exc

    @staticmethod
    def representative(state: State) -> State:
        """The state that stands for ``state``'s ``(lead, forked)`` class.

        It does not depend on the cap: a class whose lead exceeds ``max_lead``
        has a representative outside the space.
        """
        if state.public == 0 or state.lead < 2:
            return state
        return State(state.lead + 1, 1)

    def on_boundary(self, state: State) -> bool:
        """True if the pool's extension out of ``state`` self-loops (lead ``== max_lead``)."""
        return state.lead == self._max_lead

    def boundary_indices(self) -> list[int]:
        """Indices of the states :meth:`on_boundary` picks, in index order."""
        return [position for position, state in enumerate(self._states) if self.on_boundary(state)]

    def describe(self) -> str:
        """Short human-readable summary of the truncated space."""
        return f"{type(self).__name__}(max_lead={self._max_lead}, states={len(self)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
