"""Crash-safe, submit-based process-pool dispatch with deterministic retries.

``ProcessPoolExecutor.map`` — the executor this module replaced — fails
*wholesale*: one OOM-killed or segfaulted worker raises ``BrokenProcessPool``
for the entire batch, a hung task blocks forever, and nothing is retried.
:func:`resilient_map` is the submit-based dispatcher underneath every fan-out
in the package (:func:`repro.simulation.runner.execute_runs` and
:func:`repro.utils.parallel.parallel_map`):

* every task is tracked individually — a worker death (detected the moment the
  worker's pipe closes) or a wall-clock timeout (the worker is killed) costs
  exactly one *attempt* of the task it was running, never the batch;
* failed, timed-out and crashed attempts are retried up to
  :attr:`RetryPolicy.retries` times with **deterministic exponential backoff**
  (``backoff_base * 2**(attempt-1)``, capped — no jitter, so two identical
  invocations schedule identically), and because every task is a pure function
  of its payload (the pre-derived seed protocol), a retried run settles to the
  bit-identical result;
* when the budget is exhausted the dispatcher degrades gracefully: the task's
  slot in the returned list holds a :class:`TaskFailure` record instead of a
  result, unless :attr:`RetryPolicy.fail_fast` asks for an immediate
  :class:`~repro.errors.RetryExhaustedError`.

Results come back **in input order** regardless of worker count, scheduling or
retries.  The pool is a set of worker processes owned by this module (one
duplex pipe each), so a kill only ever takes down the worker that deserved it;
replacements are spawned on demand.  Dispatch is pipelined: a worker holds up
to :data:`QUEUE_DEPTH` tasks, the head of its queue running and the next one
waiting in its pipe, so it starts its next task the moment it sends a result
while the parent settles that result (the caller's store write and lease
release) in parallel.  The parent always knows the head is the running task,
so a crash or timeout is still charged to exactly one task.

``max_workers`` means the same everywhere in the package, and is resolved only
here.  ``None`` (every caller's default) is one worker per usable CPU
(``len(os.sched_getaffinity(0))``, else ``os.cpu_count()``), capped at the
number of tasks; when that is one worker — a single task, a single CPU — or
the caller is a daemonic process (which may not have children), ``None`` runs
serially in-process like ``1``.  An integer ``>= 2`` always fans out over that
many workers (capped at the number of tasks).  The serial path runs in-process
unless a timeout is configured, which needs a killable worker, so a
single-worker pool is used instead.  Either path returns bit-identical results.

The dispatcher also carries the hooks of the deterministic fault-injection
harness (:mod:`repro.testing.faults`): when the ``REPRO_FAULTS`` environment
variable holds a plan, workers fire the planned faults (raise / hang / kill)
at their chosen ``(task, attempt)`` coordinates before executing the payload.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass
from multiprocessing import current_process, get_context
from multiprocessing.connection import wait as connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Optional, Sequence, TypeVar

from ..errors import (
    ExecutionError,
    ParameterError,
    RetryExhaustedError,
    RunTimeoutError,
    WorkerCrashError,
)

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Environment variable holding the fault-injection plan (see
#: :mod:`repro.testing.faults`; duplicated here so the hot path never imports
#: the harness when it is inactive).
FAULTS_ENV = "REPRO_FAULTS"

#: Tasks a pool worker holds at once: the running head of its queue and the
#: task waiting in its pipe behind it.
QUEUE_DEPTH = 2

#: Largest pickled task message queued behind a running task; a larger one
#: waits for an idle worker.  A queued message sits in the pipe until the
#: worker finishes its head task, so the send must fit the pipe's buffer: a
#: send that blocked there while the worker blocked sending a large result
#: would deadlock both.  A page is far below any platform's socket buffer,
#: and a simulation task is well under it (about 0.5 KiB).
_MAX_QUEUED_MESSAGE_BYTES = 4096


class _DeferredType:
    """Singleton sentinel: a task skipped because ``try_claim`` declined it."""

    _instance: "_DeferredType | None" = None

    def __new__(cls) -> "_DeferredType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "DEFERRED"


#: Sentinel outcome of a task that another process holds the claim for.
DEFERRED = _DeferredType()


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher treats failing tasks.

    Attributes
    ----------
    timeout:
        Per-task wall-clock budget in seconds, measured from when the task
        starts on a worker: when it is sent to an idle worker, or when the
        result of the task queued ahead of it arrives.  Time spent waiting in
        a worker's queue does not count.  ``None`` disables timeouts.
        A timed-out worker is killed and the task's attempt counts as failed.
    retries:
        How many times a failed/timed-out/crashed task is re-attempted before
        it is given up (``retries=2`` means up to three attempts in total).
    backoff_base, backoff_cap:
        Deterministic exponential backoff before retry ``k`` (1-based):
        ``min(backoff_cap, backoff_base * 2**(k-1))`` seconds.  No jitter —
        the schedule is a pure function of the policy, so reruns are
        reproducible.
    fail_fast:
        Raise :class:`~repro.errors.RetryExhaustedError` the moment any task
        exhausts its budget (outstanding work is abandoned) instead of
        degrading to per-task :class:`TaskFailure` records.
    """

    timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ParameterError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ParameterError(f"retries must be non-negative, got {self.retries}")
        if self.backoff_base < 0:
            raise ParameterError(f"backoff_base must be non-negative, got {self.backoff_base}")
        if self.backoff_cap < self.backoff_base:
            raise ParameterError(
                f"backoff_cap must be at least backoff_base, got "
                f"{self.backoff_cap} < {self.backoff_base}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based), deterministic."""
        if attempt < 1:
            raise ParameterError(f"retry attempts are 1-based, got {attempt}")
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


#: The package-wide default policy: no timeout, two retries, mild backoff.
DEFAULT_POLICY = RetryPolicy()


@dataclass(frozen=True)
class TaskFailure:
    """One task that spent its whole retry budget without settling.

    ``kind`` is ``"error"`` (the task raised), ``"crash"`` (its worker died)
    or ``"timeout"`` (its worker was killed at the wall-clock budget);
    ``message`` describes the *last* failed attempt and ``attempts`` counts
    every attempt made (1 + retries used).
    """

    task_id: int
    kind: str
    message: str
    attempts: int

    def error(self) -> ExecutionError:
        """The typed error of the last failed attempt."""
        if self.kind == "crash":
            return WorkerCrashError(self.message)
        if self.kind == "timeout":
            return RunTimeoutError(self.message)
        return ExecutionError(self.message)

    def exhausted_error(self) -> RetryExhaustedError:
        """The error raised (or chained) once the budget is spent."""
        return RetryExhaustedError(
            f"task {self.task_id} failed after {self.attempts} attempt(s); "
            f"last failure ({self.kind}): {self.message}"
        )


def _fire_faults(task_id: int, attempt: int, *, in_worker: bool) -> None:
    """Fault-injection hook (no-op unless the ``REPRO_FAULTS`` plan is set)."""
    if not os.environ.get(FAULTS_ENV):
        return
    from ..testing.faults import fire_task_faults

    fire_task_faults(task_id, attempt, in_worker=in_worker)


def _worker_main(connection, function) -> None:  # pragma: no cover - subprocess body
    """One pool worker: receive ``(task_id, attempt, payload)``, send the outcome.

    Runs in a child process (coverage does not see it).  Tasks run one at a
    time in the order they were sent, with one outcome message per task; the
    parent may send the next task while this one runs (it waits in the pipe),
    so the worker starts it as soon as this outcome is sent.  The parent
    tracks the sent tasks as a queue whose head is the running one, so it
    always knows which task a dead or timed-out worker was responsible for.
    """
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return
        if message is None:
            connection.close()
            return
        task_id, attempt, payload = message
        try:
            _fire_faults(task_id, attempt, in_worker=True)
            result = function(payload)
        except BaseException as error:  # noqa: BLE001 - report, parent decides
            outcome = ("error", task_id, attempt, f"{type(error).__name__}: {error}")
        else:
            outcome = ("done", task_id, attempt, result)
        try:
            connection.send(outcome)
        except BaseException as error:  # result not picklable / pipe gone
            try:
                connection.send(
                    ("error", task_id, attempt, f"result could not be sent: {error!r}")
                )
            except BaseException:
                os._exit(1)


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "connection", "queue", "deadline")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        # Indices into the task list in the order they were sent; the head is
        # running, an empty queue means the worker is idle.
        self.queue: list[int] = []
        self.deadline: float | None = None  # the head's wall-clock budget

    def kill(self) -> None:
        """Tear the worker down hard (timeout enforcement, shutdown)."""
        try:
            self.process.kill()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.process.join()


def _spawn_worker(context, function) -> _Worker:
    parent_connection, child_connection = context.Pipe(duplex=True)
    process = context.Process(
        target=_worker_main, args=(child_connection, function), daemon=True
    )
    process.start()
    child_connection.close()
    return _Worker(process, parent_connection)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        return len(sched_getaffinity(0))
    return os.cpu_count() or 1


def resilient_map(
    function: Callable[[Task], Result],
    tasks: Sequence[Task],
    *,
    max_workers: int | None = None,
    policy: RetryPolicy | None = None,
    task_ids: Sequence[int] | None = None,
    try_claim: Optional[Callable[[int], bool]] = None,
    on_settled: Optional[Callable[[int, Result], None]] = None,
) -> list[Any]:
    """Run independent tasks with per-task timeout, retries and crash recovery.

    Returns one outcome per task, **in input order**: the task's result, a
    :class:`TaskFailure` record (budget exhausted, unless ``fail_fast``), or
    the :data:`DEFERRED` sentinel (``try_claim`` declined the task — another
    process owns it).

    Parameters
    ----------
    max_workers:
        ``None`` (the default) uses one worker per usable CPU, capped at the
        number of tasks, and runs serially in-process when that is one worker
        or the caller is a daemonic process; ``1`` runs serially in-process;
        ``>= 2`` fans out over worker processes.  Usable CPUs are the
        process's CPU affinity set, which does not reflect a cgroup CPU quota:
        inside a quota-limited container pass the quota as an explicit count.
        A configured ``policy.timeout`` forces at least one worker process
        even for serial runs (an in-process task cannot be killed).
    policy:
        The :class:`RetryPolicy`; defaults to :data:`DEFAULT_POLICY`.
    task_ids:
        Stable identifiers reported to the fault-injection hooks, ``try_claim``,
        ``on_settled`` and :class:`TaskFailure` records; defaults to the task's
        position.  Callers dispatching a subset of a larger plan (the runner's
        cache-miss list) pass the plan-level indices here so fault plans and
        failure reports are phrased in plan coordinates.
    try_claim:
        Called once per task right before its *first* dispatch; returning
        ``False`` marks the task :data:`DEFERRED` without executing it.  Claims
        are taken just-in-time (when a worker is free, or can queue the task
        behind its running one), so concurrent processes sharing a store
        partition the work instead of one process claiming everything up
        front.  Retries keep the original claim.
    on_settled:
        Called as ``on_settled(task_id, result)`` the moment a task succeeds —
        *before* later tasks settle — so callers can persist results
        incrementally (a killed batch keeps everything already settled).
    """
    policy = policy or DEFAULT_POLICY
    if task_ids is None:
        ids: list[int] = list(range(len(tasks)))
    else:
        ids = list(task_ids)
        if len(ids) != len(tasks):
            raise ParameterError(
                f"task_ids length {len(ids)} does not match {len(tasks)} tasks"
            )
    if not tasks:
        return []
    if max_workers is None:
        max_workers = 1 if current_process().daemon else min(_usable_cpus(), len(tasks))
    # Serial only when one worker was asked for or resolved (and no timeout
    # needs a killable worker): an explicit ``max_workers >= 2`` keeps the pool
    # even for a single task, so crash/kill isolation holds regardless of
    # batch size.
    if (max_workers or 1) == 1 and policy.timeout is None:
        return _serial_map(function, tasks, ids, policy, try_claim, on_settled)
    workers_wanted = max(1, min(max_workers or 1, len(tasks)))
    return _pool_map(function, tasks, ids, policy, workers_wanted, try_claim, on_settled)


def _serial_map(function, tasks, ids, policy, try_claim, on_settled) -> list[Any]:
    """The in-process path: same retry/claim semantics, no worker to kill."""
    outcomes: list[Any] = [None] * len(tasks)
    for position, payload in enumerate(tasks):
        task_id = ids[position]
        if try_claim is not None and not try_claim(task_id):
            outcomes[position] = DEFERRED
            continue
        attempt = 0
        while True:
            try:
                _fire_faults(task_id, attempt, in_worker=False)
                result = function(payload)
            except KeyboardInterrupt:
                # The user interrupting the *parent* is not a task failure on
                # either path (under the pool it hits the dispatcher, not a
                # worker), so it propagates here too.
                raise
            except BaseException as error:  # noqa: BLE001 - settle like a worker
                # Same capture as _worker_main: a SystemExit-raising task (or
                # any other BaseException) settles as a failed attempt instead
                # of propagating serially but not under the pool.
                attempt += 1
                if attempt > policy.retries:
                    failure = TaskFailure(
                        task_id=task_id,
                        kind="error",
                        message=f"{type(error).__name__}: {error}",
                        attempts=attempt,
                    )
                    if policy.fail_fast:
                        raise failure.exhausted_error() from error
                    outcomes[position] = failure
                    break
                time.sleep(policy.backoff(attempt))
            else:
                outcomes[position] = result
                if on_settled is not None:
                    on_settled(task_id, result)
                break
    return outcomes


def _pool_map(function, tasks, ids, policy, workers_wanted, try_claim, on_settled) -> list[Any]:
    """The worker-pool path: pipelined dispatch over per-worker task queues.

    Each worker holds up to :data:`QUEUE_DEPTH` tasks: the head of its queue
    is running, the rest wait in its pipe.  When a result arrives the parent
    refills that worker's queue first and settles the result after, so the
    worker computes its next task while the parent runs ``on_settled`` (the
    caller's store write and lease release).  A task is queued behind a
    running one only while at least ``workers_wanted`` tasks are pending: the
    batch's last tasks go to idle workers instead of waiting behind a long
    run.  The head of a queue is the running task, so a crash or timeout is
    charged to it alone; the tasks queued behind it go back to ``pending``
    with no attempt charged and no second claim.
    """
    context = get_context()
    outcomes: list[Any] = [None] * len(tasks)
    attempts = [0] * len(tasks)
    settled = 0
    # (eligible_at, position): backoff delays push retries into the future.
    pending: list[tuple[float, int]] = [(0.0, position) for position in range(len(tasks))]
    heapq.heapify(pending)
    workers: list[_Worker] = []
    # Positions whose try_claim already succeeded: a task sent back to
    # pending without being run (its worker died before starting it) must
    # keep the claim it holds, not take a second one.
    claimed: set[int] = set()

    def settle_success(position: int, result: Any) -> None:
        nonlocal settled
        outcomes[position] = result
        settled += 1
        if on_settled is not None:
            on_settled(ids[position], result)

    def settle_attempt_failure(position: int, kind: str, message: str) -> None:
        nonlocal settled
        attempts[position] += 1
        if attempts[position] <= policy.retries:
            eligible_at = time.monotonic() + policy.backoff(attempts[position])
            heapq.heappush(pending, (eligible_at, position))
            return
        failure = TaskFailure(
            task_id=ids[position], kind=kind, message=message, attempts=attempts[position]
        )
        if policy.fail_fast:
            raise failure.exhausted_error() from failure.error()
        outcomes[position] = failure
        settled += 1

    def retire(worker: _Worker) -> None:
        """Kill a worker; the tasks queued behind its head were never started
        and go back to pending in their original place, uncharged."""
        worker.kill()
        if worker in workers:
            workers.remove(worker)
        for position in worker.queue[1:]:
            heapq.heappush(pending, (0.0, position))

    def dispatch() -> None:
        """Feed eligible pending tasks: to idle workers, then to new workers,
        then to a queue slot behind a running task while enough are pending."""
        nonlocal settled
        now = time.monotonic()
        while pending and pending[0][0] <= now:
            worker = next((worker for worker in workers if not worker.queue), None)
            spawn = worker is None and len(workers) < workers_wanted
            if worker is None and not spawn:
                if len(pending) < workers_wanted:
                    return
                worker = min(workers, key=lambda candidate: len(candidate.queue))
                if len(worker.queue) >= QUEUE_DEPTH:
                    return
            entry = heapq.heappop(pending)
            position = entry[1]
            message = ForkingPickler.dumps((ids[position], attempts[position], tasks[position]))
            if not spawn and worker.queue and len(message) > _MAX_QUEUED_MESSAGE_BYTES:
                heapq.heappush(pending, entry)  # waits for an idle worker
                return
            if attempts[position] == 0 and position not in claimed and try_claim is not None:
                if not try_claim(ids[position]):
                    outcomes[position] = DEFERRED
                    settled += 1
                    continue
                claimed.add(position)
            if spawn:
                worker = _spawn_worker(context, function)
                workers.append(worker)
            starts_now = not worker.queue
            worker.queue.append(position)
            if starts_now and policy.timeout is not None:
                worker.deadline = now + policy.timeout
            try:
                worker.connection.send_bytes(message)
            except OSError:
                # The worker's pipe is gone: it died.  That is the worker's
                # failure, not this task's, so the task goes straight back to
                # pending, no attempt charged and no second claim taken.
                worker.queue.pop()
                heapq.heappush(pending, entry)
                if starts_now:
                    # It died idle: retire the corpse; a fresh worker picks
                    # the task up on the next round.
                    retire(worker)
                else:
                    # It died holding a running task: the wait loop reads
                    # its closed pipe and charges that task the crash.
                    return

    try:
        while settled < len(tasks):
            dispatch()
            busy = [worker for worker in workers if worker.queue]
            if not busy:
                if pending:
                    time.sleep(max(0.0, pending[0][0] - time.monotonic()))
                    continue
                if settled < len(tasks):  # pragma: no cover - scheduler invariant
                    raise ExecutionError("dispatcher stalled with unsettled tasks")
                break
            # Wake at the nearest deadline, or at the next backoff expiry when a
            # worker is free to take it: with every worker busy an eligible
            # pending task would make the timeout 0 and the loop spin.
            wait_timeout: float | None = None
            deadlines = [worker.deadline for worker in busy if worker.deadline is not None]
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - time.monotonic())
            if pending and len(busy) < workers_wanted:
                until_eligible = max(0.0, pending[0][0] - time.monotonic())
                wait_timeout = (
                    until_eligible if wait_timeout is None else min(wait_timeout, until_eligible)
                )
            ready = connection_wait([worker.connection for worker in busy], wait_timeout)
            by_connection = {worker.connection: worker for worker in busy}
            for connection in ready:
                worker = by_connection[connection]
                position = worker.queue[0]
                try:
                    message = connection.recv()
                except Exception:
                    # The pipe died with a task running: the worker crashed
                    # (OOM kill, segfault, injected SIGKILL, unpicklable state).
                    worker.process.join()
                    exit_code = worker.process.exitcode
                    retire(worker)
                    settle_attempt_failure(
                        position,
                        "crash",
                        f"worker (pid {worker.process.pid}) died with exit code "
                        f"{exit_code} while running task {ids[position]}",
                    )
                    continue
                kind, _task_id, _attempt, payload = message
                # The worker has moved on to its queued task: its deadline
                # starts now.
                del worker.queue[0]
                worker.deadline = (
                    time.monotonic() + policy.timeout
                    if worker.queue and policy.timeout is not None
                    else None
                )
                if kind == "done":
                    # Refill the worker's queue before the (slow) settle hook.
                    dispatch()
                    settle_success(position, payload)
                else:
                    settle_attempt_failure(position, "error", payload)
            # Enforce per-task wall-clock deadlines on the running tasks.
            now = time.monotonic()
            for worker in list(workers):
                if worker.queue and worker.deadline is not None and now >= worker.deadline:
                    position = worker.queue[0]
                    retire(worker)
                    settle_attempt_failure(
                        position,
                        "timeout",
                        f"task {ids[position]} exceeded its {policy.timeout}s "
                        "wall-clock timeout and its worker was killed",
                    )
    finally:
        for worker in workers:
            if worker.queue or not worker.process.is_alive():
                worker.kill()
            else:
                try:
                    worker.connection.send(None)
                except (OSError, ValueError):  # pragma: no cover - racing exit
                    pass
                worker.connection.close()
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():  # pragma: no cover - stuck worker
                    worker.process.kill()
                    worker.process.join()
    return outcomes
