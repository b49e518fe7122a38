"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so callers can
catch a single base class.  More specific subclasses are raised where a caller can
reasonably react to the particular failure (bad parameters, an invalid chain
structure, a solver that failed to converge, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ParameterError(ReproError, ValueError):
    """A model or simulation parameter is outside its valid domain."""


class StateSpaceError(ReproError, ValueError):
    """A Markov state or state-space specification is invalid."""


class SolverError(ReproError, RuntimeError):
    """A numerical solver failed to produce a usable result."""


class ConvergenceError(SolverError):
    """An iterative solver did not converge within its iteration budget."""


class ChainStructureError(ReproError, ValueError):
    """A block-tree operation would violate the blockchain structure invariants."""


class UnknownBlockError(ChainStructureError, KeyError):
    """A referenced block hash/identifier is not present in the block tree."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent internal state."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment driver could not produce its artifact."""


class ExecutionError(ReproError, RuntimeError):
    """A fanned-out execution task could not be completed.

    Base class of everything the resilient dispatcher
    (:mod:`repro.utils.resilient`) and the result store's cross-process lease
    protocol can raise.  Task *attempt* failures carry one of the specific
    subclasses below; when the retry budget runs out the dispatcher raises (or
    records) a :class:`RetryExhaustedError` whose cause is the last attempt's
    typed error.
    """


class WorkerCrashError(ExecutionError):
    """A pool worker process died (segfault, OOM kill, ...) while running a task."""


class RunTimeoutError(ExecutionError):
    """A task exceeded its per-run wall-clock timeout and its worker was killed."""


class RetryExhaustedError(ExecutionError):
    """A task kept failing after its full retry budget was spent."""


class StoreLeaseError(ExecutionError):
    """The result store's cross-process lease protocol hit an unusable state."""
