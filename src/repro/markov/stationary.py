"""The stationary distribution of a finite Markov chain.

:func:`stationary_distribution` solves the global balance equations ``pi Q = 0``
with the normalisation ``sum(pi) = 1`` by one sparse direct solve.  It returns a
:class:`StationaryResult` that maps states to probabilities and records its
residual, so the experiment drivers can report the numerical quality alongside the
reproduced figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Hashable, Mapping, TypeVar

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

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
