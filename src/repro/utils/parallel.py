"""Shared process-pool dispatch for deterministic, independent tasks.

Several experiment drivers fan independent deterministic solves out over a
process pool (figure 10's per-``gamma`` thresholds, the discussion driver's four
schedule/scenario solves).  :func:`parallel_map` is the one implementation of
the "independent tasks over a pool" pattern, built on the resilient
dispatcher (:func:`repro.utils.resilient.resilient_map`), so a solve whose
worker is OOM-killed or segfaults is retried instead of aborting the whole
batch.

**Results always come back in input order** — serial, pooled, and retried
executions are indistinguishable to the caller, so for deterministic functions
the output is identical to ``[function(task) for task in tasks]`` regardless of
worker count or how many attempts any task needed.  A task that keeps failing
past the policy's retry budget raises
:class:`~repro.errors.RetryExhaustedError` (chained to the last attempt's
typed error); partial output is never returned.

For *simulation* fan-out use :func:`repro.simulation.runner.execute_runs` (or
the scenario engine on top of it), which additionally owns the per-run
seed-derivation protocol and the result store integration.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .resilient import RetryPolicy, TaskFailure, resilient_map

Task = TypeVar("Task")
Result = TypeVar("Result")


def parallel_map(
    function: Callable[[Task], Result],
    tasks: Sequence[Task],
    max_workers: int | None = None,
    *,
    policy: RetryPolicy | None = None,
) -> list[Result]:
    """``[function(task) for task in tasks]``, optionally on a resilient pool.

    ``max_workers`` means what :func:`~repro.utils.resilient.resilient_map`
    defines.
    ``function`` and every task must be picklable; module-level functions
    taking one argument satisfy this.  ``policy`` tunes the per-task timeout
    and retry budget (:class:`~repro.utils.resilient.RetryPolicy`); the
    default retries crashed/failed tasks twice with deterministic backoff.
    """
    outcomes = resilient_map(function, tasks, max_workers=max_workers, policy=policy)
    failures = [outcome for outcome in outcomes if isinstance(outcome, TaskFailure)]
    if failures:
        raise failures[0].exhausted_error() from failures[0].error()
    return outcomes
