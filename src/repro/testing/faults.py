"""Deterministic fault injection for the resilient execution layer.

The point of this harness is that the chaos tests and the CI chaos job drive
the **real** process-pool path: a worker genuinely dies of ``SIGKILL``, a task
genuinely hangs past its timeout, a just-written store row is genuinely
corrupted on disk — and the sweep must still settle to aggregates bit-identical
to an uninjected run (the pre-derived seed protocol makes every retried attempt
a pure re-execution).

A plan is a tuple of :class:`FaultSpec` values, each naming a fault ``kind``
and the ``(task, attempt)`` coordinate it fires at:

* ``task`` is the *dispatch index* — the position of the run in the submitted
  batch (for a scenario sweep: plan order, the documented cell × run expansion
  order), which is deterministic for a given invocation;
* ``attempt`` defaults to 0, so the fault hits the first execution and the
  retry — a fresh attempt at coordinate ``(task, 1)`` — succeeds.

Activation is environment-based (:data:`FAULTS_ENV`, JSON-encoded), so forked
and spawned pool workers inherit the plan with zero plumbing; the dispatcher's
hook costs one environment lookup when no plan is set.  Use the
:func:`inject_faults` context manager in tests, or export the variable for a
CLI/CI invocation::

    REPRO_FAULTS='[{"kind": "kill", "task": 1}, {"kind": "corrupt", "task": 0}]' \\
        repro-experiments sweep scenario.json --cache-dir cache -j 2 --retries 2

Fault kinds
-----------
``raise``
    The worker raises :class:`FaultInjected` before executing the task.
``hang``
    The worker sleeps ``seconds`` (default far beyond any sane timeout), so
    the parent's wall-clock deadline fires and kills it.
``kill``
    The worker sends itself ``SIGKILL`` — exit code ``-9``, the OOM-killer
    signature — before executing the task.
``corrupt``
    Parent-side: the payload text of the store row written for the task is
    truncated right after the write, leaving a checksum-failing row that must
    read as a cache miss and be evicted by ``vacuum()``.

``raise`` faults fire anywhere; ``hang``/``kill`` need a worker process and
raise loudly when hit in-process (a serial run cannot survive them).
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..errors import ParameterError
from ..store import SIMULATION_NAMESPACE

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore

#: Environment variable carrying the JSON-encoded plan (mirrored in
#: :mod:`repro.utils.resilient` so the dispatcher never imports this module
#: while injection is inactive).
FAULTS_ENV = "REPRO_FAULTS"

#: The fault kinds a plan may contain.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")


class FaultInjected(RuntimeError):
    """The error raised by a planned ``raise`` fault (and by misplaced faults)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: ``kind`` at dispatch coordinate ``(task, attempt)``.

    ``seconds`` only applies to ``hang``; ``attempt`` is ignored by
    ``corrupt`` (a task's result is written at most once).
    """

    kind: str
    task: int
    attempt: int = 0
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r}; known kinds: {', '.join(FAULT_KINDS)}"
            )
        if self.task < 0:
            raise ParameterError(f"fault task index must be non-negative, got {self.task}")
        if self.attempt < 0:
            raise ParameterError(f"fault attempt must be non-negative, got {self.attempt}")
        if self.seconds <= 0:
            raise ParameterError(f"hang seconds must be positive, got {self.seconds}")


def encode_plan(specs: Sequence[FaultSpec]) -> str:
    """The JSON form of a plan (what goes into the environment variable)."""
    return json.dumps(
        [
            {
                "kind": spec.kind,
                "task": spec.task,
                "attempt": spec.attempt,
                "seconds": spec.seconds,
            }
            for spec in specs
        ]
    )


def decode_plan(text: str) -> tuple[FaultSpec, ...]:
    """Parse a JSON plan; anything malformed raises ``ParameterError``."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParameterError(f"fault plan is not valid JSON: {error}") from error
    if not isinstance(raw, list):
        raise ParameterError(f"fault plan must be a JSON list, got {type(raw).__name__}")
    specs = []
    for entry in raw:
        if not isinstance(entry, dict) or "kind" not in entry or "task" not in entry:
            raise ParameterError(
                f"each fault needs at least 'kind' and 'task' keys, got {entry!r}"
            )
        unknown = set(entry) - {"kind", "task", "attempt", "seconds"}
        if unknown:
            raise ParameterError(f"unknown fault keys: {', '.join(sorted(unknown))}")
        specs.append(
            FaultSpec(
                kind=entry["kind"],
                task=entry["task"],
                attempt=entry.get("attempt", 0),
                seconds=entry.get("seconds", 3600.0),
            )
        )
    return tuple(specs)


def active_plan() -> tuple[FaultSpec, ...]:
    """The plan currently in the environment (empty when injection is off)."""
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return ()
    return decode_plan(text)


@contextmanager
def inject_faults(specs: Sequence[FaultSpec]) -> Iterator[None]:
    """Activate a plan for the duration of the block (environment-scoped).

    The environment variable is what pool workers inherit, so the block must
    cover the dispatch, not just the plan's construction.
    """
    previous = os.environ.get(FAULTS_ENV)
    os.environ[FAULTS_ENV] = encode_plan(specs)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV, None)
        else:
            os.environ[FAULTS_ENV] = previous


def plan_from_seed(
    seed: int,
    num_tasks: int,
    *,
    count: int = 1,
    kinds: Sequence[str] = ("raise", "kill"),
) -> tuple[FaultSpec, ...]:
    """A seedable plan: ``count`` faults at deterministically-drawn task indices.

    Uses the package's seed-derivation helper, so the same ``(seed,
    num_tasks, count, kinds)`` always yields the same plan — a chaos job can
    vary its seed per run while every individual run stays reproducible.
    """
    if num_tasks < 1:
        raise ParameterError(f"num_tasks must be positive, got {num_tasks}")
    if count < 1 or count > num_tasks:
        raise ParameterError(f"count must be in [1, {num_tasks}], got {count}")
    from ..simulation.rng import derive_seeds

    draws = derive_seeds(seed, count)
    chosen: list[int] = []
    for draw in draws:
        index = draw % num_tasks
        while index in chosen:  # distinct indices, deterministically
            index = (index + 1) % num_tasks
        chosen.append(index)
    return tuple(
        FaultSpec(kind=kinds[position % len(kinds)], task=index)
        for position, index in enumerate(sorted(chosen))
    )


def fire_task_faults(task: int, attempt: int, *, in_worker: bool) -> None:
    """Dispatcher hook: fire every planned worker-side fault at ``(task, attempt)``.

    Called by :mod:`repro.utils.resilient` right before a task executes —
    inside the worker process on the pool path, in the caller's process on the
    serial path (where only ``raise`` faults are survivable; ``hang``/``kill``
    raise :class:`FaultInjected` instead of taking the caller down).
    """
    for spec in active_plan():
        if spec.kind == "corrupt" or spec.task != task or spec.attempt != attempt:
            continue
        if spec.kind == "raise":
            raise FaultInjected(f"injected failure at task {task}, attempt {attempt}")
        if not in_worker:
            raise FaultInjected(
                f"a {spec.kind!r} fault at task {task} needs a worker process; "
                "run with max_workers >= 2 (or a timeout, which forces a pool)"
            )
        if spec.kind == "hang":  # pragma: no cover - worker-side, killed by parent
            time.sleep(spec.seconds)
        elif spec.kind == "kill":  # pragma: no cover - worker-side, dies here
            os.kill(os.getpid(), signal.SIGKILL)


def corrupt_after_write(store: "ResultStore", key: str, task: int) -> None:
    """Store hook: truncate the payload of the row just written for ``task`` if planned.

    Called by the runner in the parent process right after a result is
    persisted under ``key``; the half-payload fails the store's checksum
    validation, so it must read as a cache miss (and ``vacuum()`` must evict
    it).
    """
    for spec in active_plan():
        if spec.kind == "corrupt" and spec.task == task:
            with closing(sqlite3.connect(store.path, timeout=30.0)) as connection, connection:
                connection.execute(
                    "UPDATE entries SET payload = substr(payload, 1, length(payload) / 2) "
                    "WHERE namespace = ? AND key = ?",
                    (SIMULATION_NAMESPACE, key),
                )
