"""The stationary distribution of a finite Markov chain.

Both solvers find the global balance equations' solution ``pi Q = 0`` with the
normalisation ``sum(pi) = 1`` and report its residual, so the experiment drivers
can report the numerical quality alongside the reproduced figures.

* :class:`EliminationPlan` is a pure-Python elimination on state indices for
  chains whose inflows stay near the diagonal in state order.  It splits the
  solve the way a sparse direct solver does: the structural work (which entries
  exist, the pivot order, the fill-in, the back-substitution terms) is compiled
  once per sparsity pattern, and :meth:`EliminationPlan.solve` replays only the
  float operations for one rate vector, in the order an elimination on
  ``{column: value}`` rows performs them, so the replay is bit-identical to it.  The
  :class:`~repro.markov.state.LumpedSpace` chains are such chains: the analytical
  revenue model compiles one plan per model and replays it per parameter point,
  and the optimal-strategy MDP compiles one per evaluated policy.  It needs
  neither scipy nor BLAS.
* :func:`stationary_distribution` is one sparse direct LU solve (SuperLU) for any
  :class:`~repro.markov.chain.MarkovChain`, returned as a
  :class:`StationaryResult` that maps states to probabilities.  No paper artifact
  calls it; the test oracles do.  scipy is imported only when it runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Generic, Hashable, Mapping, Sequence, TypeVar

import numpy as np

from ..errors import SolverError
from .chain import MarkovChain

StateT = TypeVar("StateT", bound=Hashable)


@dataclass(frozen=True)
class StationaryResult(Generic[StateT]):
    """The stationary distribution of a chain and the residual ``max |pi Q|``."""

    chain: MarkovChain[StateT]
    probabilities: tuple[float, ...]
    residual: float

    def probability(self, state: StateT) -> float:
        """Stationary probability of ``state``."""
        return self.probabilities[self.chain.index_of(state)]

    def __getitem__(self, state: StateT) -> float:
        return self.probability(state)

    def as_mapping(self) -> Mapping[StateT, float]:
        """Return a plain ``state -> probability`` dictionary."""
        return {state: self.probabilities[idx] for idx, state in enumerate(self.chain.states)}

    def total_probability(self) -> float:
        """Sum of all probabilities (should be 1 up to numerical error)."""
        return float(sum(self.probabilities))


def _clean_distribution(vector: np.ndarray) -> np.ndarray:
    """Clip tiny negative round-off values and renormalise to sum 1."""
    vector = np.asarray(vector, dtype=float).copy()
    vector[vector < 0] = np.where(vector[vector < 0] > -1e-10, 0.0, vector[vector < 0])
    if np.any(vector < 0):
        raise SolverError("stationary solve produced significantly negative probabilities")
    total = vector.sum()
    if total <= 0:
        raise SolverError("stationary solve produced an all-zero distribution")
    return vector / total


def _residual(chain: MarkovChain[StateT], distribution: np.ndarray) -> float:
    generator = chain.generator_matrix()
    return float(np.max(np.abs(distribution @ generator)))


class EliminationPlan:
    """Gaussian elimination of one chain's balance system, compiled once per sparsity pattern.

    The chain has states ``0 .. size - 1`` and one transition per
    ``(sources[k], targets[k])`` pair; repeated pairs add up.  A self-loop
    cancels out of the balance equations, so the plan skips it: :attr:`moves`
    lists the positions of the transitions that leave their state.

    The system is the anchored ``Q^T pi = 0`` of :func:`stationary_distribution`:
    row 0 is replaced by ``pi[0] = 1``.  It is eliminated without pivoting in
    state order, back-substituted and renormalised.  The anchor row has nothing
    off its diagonal, and the rest of ``Q^T`` is column diagonally dominant: each
    column holds a state's exit rate on the diagonal and at most the same rate
    spread over the other rows.  Elimination preserves that property (growth
    factor at most 2), so it is stable without pivoting.  A zero pivot means the
    anchor state is not recurrent and raises :class:`SolverError`.

    Which entries exist, the order of the pivots, the fill-in and the
    back-substitution terms do not depend on the rates.  The constructor runs
    the elimination once on ``{column: slot}`` rows, numbering each entry's
    slot in a flat value list, and records every move's two assembly slots, each
    row's pivot steps ``(k, pivot slot, diagonal slot of row k, ((target slot,
    source slot), ...))`` in ascending column order, each row's
    back-substitution terms in the row's entry order, and the anchor.
    :meth:`solve` replays the recorded float operations in that order, so it
    returns what an elimination on ``{column: value}`` rows returns, bit for bit.

    Fill-in stays inside the matrix's envelope, so the cost follows the chain's
    bandwidth in state order; :attr:`fill_in` lists the ``(row, column)``
    entries the elimination created.  In
    :class:`~repro.markov.state.LumpedSpace` order every inflow into a state
    comes from at most two positions away (leads ``d - 1``, ``d`` and ``d + 1``)
    and resets land in the anchor row, so the only fill-in is the entry just
    left of the diagonal in some forked rows (``max_lead - 2`` entries under
    Algorithm 1, none when every decision overrides), nothing is filled in above
    the diagonal, and the solve is ``O(max_lead)``.  A chain with wide inflows,
    like the ``(Ls, Lh)`` chain, fills in badly; solve it with
    :func:`stationary_distribution`.
    """

    def __init__(self, size: int, sources: Sequence[int], targets: Sequence[int]) -> None:
        self.size = size
        self.moves = [k for k, (source, target) in enumerate(zip(sources, targets)) if source != target]
        self.fill_in: list[tuple[int, int]] = []
        self._flows = [(k, sources[k], targets[k]) for k in self.moves]
        # Slot 0 stays 0.0: the diagonal slot of a row that has no diagonal entry.
        slots = 1
        rows: list[dict[int, int]] = [{} for _ in range(size)]
        self._assembly: list[tuple[int, int, int]] = []
        for k, source, target in self._flows:
            inflow = rows[target].get(source)
            if inflow is None:
                inflow = rows[target][source] = slots
                slots += 1
            outflow = rows[source].get(source)
            if outflow is None:
                outflow = rows[source][source] = slots
                slots += 1
            self._assembly.append((k, inflow, outflow))
        anchor = slots
        rows[0] = {0: anchor}
        slots += 1
        # Row by row: subtract the already reduced rows above from row i, in
        # column order, until only its diagonal and upper entries are left.
        self._elimination: list[tuple[int, tuple, int]] = []
        for i in range(1, size):
            row = rows[i]
            pending = [column for column in row if column < i]
            heapq.heapify(pending)
            steps = []
            while pending:
                k = heapq.heappop(pending)
                pivot = row.pop(k)
                pivot_row = rows[k]
                updates = []
                for column, source in pivot_row.items():
                    if column > k:
                        target = row.get(column)
                        if target is None:
                            if column < i:
                                heapq.heappush(pending, column)
                            self.fill_in.append((i, column))
                            target = row[column] = slots
                            slots += 1
                        updates.append((target, source))
                steps.append((k, pivot, pivot_row.get(k, 0), tuple(updates)))
            self._elimination.append((i, tuple(steps), row.get(i, 0)))
        self._back_substitution = [
            (i, tuple((slot, column) for column, slot in rows[i].items() if column > i), rows[i].get(i, 0))
            for i in range(size - 1, -1, -1)
        ]
        self._initial = [0.0] * slots
        self._initial[anchor] = 1.0

    def solve(self, rates: Sequence[float]) -> tuple[float, ...]:
        """The stationary probabilities under ``rates``, one per transition of the pattern."""
        values = self._initial.copy()
        for k, inflow, outflow in self._assembly:
            rate = rates[k]
            values[inflow] += rate
            values[outflow] -= rate
        rhs = [0.0] * self.size
        rhs[0] = 1.0
        for i, steps, diagonal in self._elimination:
            for k, pivot, pivot_diagonal, updates in steps:
                factor = values[pivot] / values[pivot_diagonal]
                for target, source in updates:
                    values[target] -= factor * values[source]
                rhs[i] -= factor * rhs[k]
            if not values[diagonal]:
                raise SolverError(f"zero pivot at state index {i} (anchor state starved?)")
        solution = [0.0] * self.size
        for i, terms, diagonal in self._back_substitution:
            if terms:
                upper = sum([values[slot] * solution[column] for slot, column in terms])
                solution[i] = (rhs[i] - upper) / values[diagonal]
            else:
                # An empty sum is the integer 0, and x - 0 is x exactly.
                solution[i] = rhs[i] / values[diagonal]
        vector = np.asarray(solution)
        if not np.isfinite(vector).all():
            raise SolverError("banded solve produced non-finite values (anchor state starved?)")
        return tuple(_clean_distribution(vector).tolist())

    def residual(self, probabilities: Sequence[float], rates: Sequence[float]) -> float:
        """The residual ``max |pi Q|`` of ``probabilities`` under ``rates``."""
        net_inflow = [0.0] * self.size
        for k, source, target in self._flows:
            flow = probabilities[source] * rates[k]
            net_inflow[target] += flow
            net_inflow[source] -= flow
        return max(abs(value) for value in net_inflow)


def stationary_distribution(chain: MarkovChain[StateT]) -> StationaryResult[StateT]:
    """Solve ``pi Q = 0, sum(pi) = 1`` with a sparse LU factorisation.

    The singular system ``Q^T pi = 0`` is made non-singular by replacing one
    (redundant — the rows of ``Q^T`` sum to the zero row) balance equation with an
    *anchor* equation ``pi[0] = 1``, solving, and renormalising to total
    probability one.  Anchoring a single entry keeps the replacement row sparse,
    unlike the textbook all-ones normalisation row, whose dense row forces
    catastrophic fill-in during factorisation (a 20 000-state truncation drops
    from ~45 s to well under a second).  State 0 is this package's start state,
    whose stationary probability is far from zero for every chain built here; a
    chain that starves it makes the solve fail or produce garbage probabilities,
    which surfaces as :class:`SolverError`.  The system is assembled directly in
    coordinate form and handed to the solver as CSC, avoiding the sparse-format
    round-trip a row assignment on a CSR/LIL matrix would cost.
    """
    from scipy import sparse
    from scipy.sparse import linalg as sparse_linalg

    size = len(chain)
    transposed = chain.generator_matrix().transpose().tocoo()
    keep = transposed.row != 0
    index_dtype = transposed.row.dtype
    rows = np.concatenate([transposed.row[keep], np.zeros(1, dtype=index_dtype)])
    cols = np.concatenate([transposed.col[keep], np.zeros(1, dtype=index_dtype)])
    data = np.concatenate([transposed.data[keep], np.ones(1)])
    system = sparse.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsc()
    rhs = np.zeros(size)
    rhs[0] = 1.0
    try:
        solution = sparse_linalg.spsolve(system, rhs)
    except Exception as exc:  # pragma: no cover - scipy failure path
        raise SolverError(f"sparse direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SolverError("sparse direct solve produced non-finite values (anchor state starved?)")
    distribution = _clean_distribution(solution)
    return StationaryResult(
        chain=chain,
        probabilities=tuple(distribution.tolist()),
        residual=_residual(chain, distribution),
    )
