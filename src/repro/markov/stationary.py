"""The stationary distribution of a finite Markov chain.

Both solvers find the global balance equations' solution ``pi Q = 0`` with the
normalisation ``sum(pi) = 1`` and report its residual, so the experiment drivers
can report the numerical quality alongside the reproduced figures.  On a
:class:`~repro.markov.chain.MarkovChain` they return a :class:`StationaryResult`
that maps states to probabilities.

* :func:`banded_solve` is a pure-Python elimination on state indices for chains
  whose inflows stay near the diagonal in state order, such as the
  :class:`~repro.markov.state.LumpedSpace` chain the analytical revenue model
  solves; :func:`banded_stationary_distribution` applies it to a
  :class:`~repro.markov.chain.MarkovChain`.  It needs neither scipy nor BLAS.
* :func:`stationary_distribution` is one sparse direct LU solve (SuperLU) for any
  chain: the MDP's ``(Ls, Lh)`` chains and the test oracles.
  scipy is imported only when it runs.
"""

from __future__ import annotations

import heapq
import math
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


def banded_solve(size: int, moves: Sequence[tuple[int, int, float]]) -> tuple[tuple[float, ...], float]:
    """Solve ``pi Q = 0, sum(pi) = 1`` by Gaussian elimination on Python rows.

    The chain has states ``0 .. size - 1`` and ``Q``'s off-diagonal entries
    come from ``moves``, ``(source, target, rate)`` triples without self-loops;
    repeated pairs add up.  Returns the probabilities and the residual
    ``max |pi Q|``.

    The system is the anchored ``Q^T pi = 0`` of :func:`stationary_distribution`:
    row 0 is replaced by ``pi[0] = 1``.  It is assembled as one
    ``{column: value}`` dictionary per row, eliminated without pivoting in state
    order, back-substituted and renormalised.  The anchor row has nothing off
    its diagonal, and the rest of ``Q^T`` is column diagonally dominant: each
    column holds a state's exit rate on the diagonal and at most the same rate
    spread over the other rows.  Elimination preserves that property (growth
    factor at most 2), so it is stable without pivoting.  A zero pivot means the
    anchor state is not recurrent and raises :class:`SolverError`.

    Fill-in stays inside the matrix's envelope, so the cost follows the chain's
    bandwidth in state order.  In
    :class:`~repro.markov.state.LumpedSpace` order every inflow into a state
    comes from at most two positions away (leads ``d - 1``, ``d`` and ``d + 1``)
    and resets land in the anchor row, so there is no fill-in and the solve is
    ``O(max_lead)``.  A chain with wide inflows, like the ``(Ls, Lh)`` chain,
    fills in badly; solve it with :func:`stationary_distribution`.
    """
    rows: list[dict[int, float]] = [{} for _ in range(size)]
    for source, target, rate in moves:
        rows[target][source] = rows[target].get(source, 0.0) + rate
        rows[source][source] = rows[source].get(source, 0.0) - rate
    rows[0] = {0: 1.0}
    rhs = [0.0] * size
    rhs[0] = 1.0
    # Row by row: subtract the already reduced rows above from row i, in
    # column order, until only its diagonal and upper entries are left.
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


def banded_stationary_distribution(chain: MarkovChain[StateT]) -> StationaryResult[StateT]:
    """The stationary distribution of ``chain`` by :func:`banded_solve`.

    Self-loops are dropped, as they cancel out of the generator.  The chain
    must be banded in its state order, as :func:`banded_solve` explains.
    """
    index = chain.index_of
    moves = [
        (index(t.source), index(t.target), t.rate) for t in chain.transitions if t.source != t.target
    ]
    probabilities, residual = banded_solve(len(chain), moves)
    return StationaryResult(chain=chain, probabilities=probabilities, residual=residual)


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
