"""A small, generic finite Markov-chain container.

The test oracles, such as the unlumped ``(Ls, Lh)`` chain and the 1-dimensional
Eyal–Sirer Bitcoin chain, are represented with this class: an ordered collection of
hashable states plus a list of rate-labelled transitions.  The container exposes the
rate and generator matrices as scipy sparse matrices, importing scipy only when one
is asked for.  The analytical revenue model and the MDP build none: they solve the
lumped chain by state index.

The chains produced by this package have the convenient property that the total
outgoing rate of every state equals 1 (each transition corresponds to the creation of
exactly one block and blocks arrive at total rate 1 after the paper's time rescaling).
The container does not require that property, but :meth:`MarkovChain.validate` can
assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from ..errors import StateSpaceError

if TYPE_CHECKING:  # pragma: no cover - annotations only; the methods import scipy lazily
    from scipy import sparse

StateT = TypeVar("StateT", bound=Hashable)


@dataclass(frozen=True)
class Transition(Generic[StateT]):
    """A single rate transition ``source -> target`` with an optional label.

    The ``label`` is free-form; the selfish-mining builder uses it to record which of
    the paper's Appendix-B cases the transition belongs to, which the reward engine
    and several tests rely on.
    """

    source: StateT
    target: StateT
    rate: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise StateSpaceError(
                f"transition rate must be non-negative, got {self.rate} for {self.source} -> {self.target}"
            )


class MarkovChain(Generic[StateT]):
    """A finite Markov chain defined by states and rate transitions.

    Parameters
    ----------
    states:
        Ordered collection of hashable states.  The order fixes the index used in the
        matrices returned by :meth:`rate_matrix` and :meth:`generator_matrix`.
    transitions:
        Iterable of :class:`Transition` objects.  Multiple transitions between the same
        pair of states are allowed and their rates add up.
    """

    def __init__(self, states: Sequence[StateT], transitions: Iterable[Transition[StateT]]) -> None:
        self._states: tuple[StateT, ...] = tuple(states)
        if not self._states:
            raise StateSpaceError("a Markov chain needs at least one state")
        self._index: dict[StateT, int] = {}
        for position, state in enumerate(self._states):
            if state in self._index:
                raise StateSpaceError(f"duplicate state {state!r} in state list")
            self._index[state] = position
        self._transitions: tuple[Transition[StateT], ...] = tuple(transitions)
        for transition in self._transitions:
            if transition.source not in self._index:
                raise StateSpaceError(f"transition source {transition.source!r} not in state list")
            if transition.target not in self._index:
                raise StateSpaceError(f"transition target {transition.target!r} not in state list")

    # ------------------------------------------------------------------ accessors
    @property
    def states(self) -> tuple[StateT, ...]:
        """All states, in index order."""
        return self._states

    @property
    def transitions(self) -> tuple[Transition[StateT], ...]:
        """All transitions as given at construction time."""
        return self._transitions

    def __len__(self) -> int:
        return len(self._states)

    def index_of(self, state: StateT) -> int:
        """Dense index of ``state``."""
        try:
            return self._index[state]
        except KeyError as exc:
            raise StateSpaceError(f"state {state!r} is not part of this chain") from exc

    def state_at(self, index: int) -> StateT:
        """State stored at dense ``index``."""
        try:
            return self._states[index]
        except IndexError as exc:
            raise StateSpaceError(f"index {index} out of range for chain of size {len(self)}") from exc

    # ------------------------------------------------------------------ matrices
    def rate_matrix(self) -> sparse.csr_matrix:
        """Matrix ``R`` with ``R[i, j]`` the total rate of transitions ``i -> j``.

        Self-loop rates are kept (they matter for the embedded jump chain used in the
        reward analysis, where a self-loop still corresponds to a block being mined).
        """
        from scipy import sparse

        size = len(self)
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for transition in self._transitions:
            rows.append(self._index[transition.source])
            cols.append(self._index[transition.target])
            data.append(transition.rate)
        matrix = sparse.coo_matrix((data, (rows, cols)), shape=(size, size))
        return matrix.tocsr()

    def generator_matrix(self) -> sparse.csr_matrix:
        """Infinitesimal generator ``Q`` (off-diagonal rates, rows summing to zero).

        Self-loops cancel out of the generator: a transition back into the same state
        does not change the state and therefore contributes nothing to ``Q``.
        """
        from scipy import sparse

        rate = self.rate_matrix().tolil()
        rate.setdiag(0.0)
        rate = rate.tocsr()
        out_rates = np.asarray(rate.sum(axis=1)).ravel()
        generator = rate - sparse.diags(out_rates)
        return generator.tocsr()

    # ------------------------------------------------------------------ validation
    def validate(self, *, expect_unit_exit_rate: bool = False, tolerance: float = 1e-9) -> None:
        """Check structural sanity of the chain; raise :class:`StateSpaceError` on failure.

        Parameters
        ----------
        expect_unit_exit_rate:
            When True, additionally require that the total outgoing rate of every
            state equals 1 (the block-per-transition normalisation used throughout the
            paper).
        tolerance:
            Numerical tolerance for the unit-exit-rate check.
        """
        rate = self.rate_matrix()
        out_rates = np.asarray(rate.sum(axis=1)).ravel()
        if np.any(out_rates < -tolerance):
            raise StateSpaceError("negative total outgoing rate encountered")
        if expect_unit_exit_rate:
            bad = np.where(np.abs(out_rates - 1.0) > tolerance)[0]
            if bad.size:
                examples = ", ".join(str(self._states[i]) for i in bad[:5])
                raise StateSpaceError(
                    f"{bad.size} states do not have unit exit rate (e.g. {examples}); "
                    "the chain is expected to emit exactly one block per transition"
                )

    def describe(self) -> str:
        """Short human-readable description."""
        return f"MarkovChain(states={len(self)}, transitions={len(self._transitions)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()
