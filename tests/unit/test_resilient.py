"""Unit tests for the resilient dispatcher (:mod:`repro.utils.resilient`)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ParameterError, RetryExhaustedError
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.utils import resilient
from repro.utils.resilient import (
    DEFAULT_POLICY,
    DEFERRED,
    RetryPolicy,
    TaskFailure,
    resilient_map,
)

# ---------------------------------------------------------------------------
# Worker payload functions: module-level so they pickle under any start method.
# ---------------------------------------------------------------------------


def _square(value):
    return value * value


def _fail_always(value):
    raise ValueError(f"task {value} always fails")


def _fail_below(value):
    """Fail for even inputs on the first attempt only (marker file protocol)."""
    marker, number = value
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise ValueError(f"first attempt at {number} fails")
    return number * 10


def _kill_self(value):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_forever(value):
    time.sleep(3600)


def _sleep_briefly(value):
    time.sleep(0.05)
    return value


def _sleep_then_return(value):
    time.sleep(value)
    return value


def _note_pid_and_sleep(value):
    """``(directory, index, seconds)``: write this worker's pid to
    ``directory/index.pid``, sleep, return ``index``."""
    directory, index, seconds = value
    with open(os.path.join(directory, f"{index}.pid"), "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(seconds)
    return index


def _sleep_then_kill_self_or_return(value):
    """Sleep ``value`` seconds, then SIGKILL this worker if ``value`` > 0."""
    time.sleep(value)
    if value > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _sleep_then_measure(value):
    """``(seconds, payload)``: sleep, then return the payload's length."""
    seconds, payload = value
    time.sleep(seconds)
    return len(payload)


def _raise_system_exit(value):
    raise SystemExit(3)


def _square_with_pid(value):
    time.sleep(0.05)  # long enough that every worker is spawned before any is free
    return value * value, os.getpid()


def _run_many_in_daemon(connection):
    """Body of a daemonic child: ``run_many`` with the default worker count."""
    from repro.simulation.runner import run_many

    connection.send(run_many(DAEMON_CONFIG, 3, backend="markov"))
    connection.close()


#: A fast-retry policy so tests never sleep on backoff.
FAST = RetryPolicy(retries=2, backoff_base=0.0, backoff_cap=0.0)

#: A small configuration for the daemonic-caller test.
DAEMON_CONFIG = SimulationConfig(
    params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=2000, seed=11
)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.3)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped, not 0.4
        assert policy.backoff(10) == pytest.approx(0.3)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.05)
        assert [policy.backoff(k) for k in (1, 2, 3)] == [
            policy.backoff(k) for k in (1, 2, 3)
        ]

    def test_backoff_rejects_zeroth_attempt(self):
        with pytest.raises(ParameterError):
            DEFAULT_POLICY.backoff(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
            {"backoff_base": -0.1},
            {"backoff_base": 1.0, "backoff_cap": 0.5},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            RetryPolicy(**kwargs)


class TestSerialPath:
    def test_maps_in_input_order(self):
        assert resilient_map(_square, [3, 1, 2], max_workers=1) == [9, 1, 4]

    def test_empty_input(self):
        assert resilient_map(_square, []) == []

    def test_failure_record_after_budget(self):
        outcomes = resilient_map(_fail_always, [5], policy=FAST)
        (failure,) = outcomes
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error"
        assert failure.attempts == 3  # 1 + 2 retries
        assert "always fails" in failure.message

    def test_transient_failure_is_retried_to_success(self, tmp_path):
        marker = tmp_path / "attempted"
        outcomes = resilient_map(_fail_below, [(str(marker), 4)], policy=FAST)
        assert outcomes == [40]

    def test_fail_fast_raises_immediately(self):
        policy = RetryPolicy(retries=0, backoff_base=0.0, fail_fast=True)
        with pytest.raises(RetryExhaustedError):
            resilient_map(_fail_always, [1, 2], max_workers=1, policy=policy)

    def test_zero_retries_means_single_attempt(self):
        policy = RetryPolicy(retries=0, backoff_base=0.0)
        (failure,) = resilient_map(_fail_always, [1], policy=policy)
        assert failure.attempts == 1

    def test_task_ids_relabel_failures(self):
        (failure,) = resilient_map(_fail_always, [1], policy=FAST, task_ids=[42])
        assert failure.task_id == 42

    def test_task_ids_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            resilient_map(_square, [1, 2], task_ids=[0])

    def test_try_claim_defers_declined_tasks(self):
        outcomes = resilient_map(
            _square, [1, 2, 3], max_workers=1, try_claim=lambda task_id: task_id != 1
        )
        assert outcomes == [1, DEFERRED, 9]

    def test_on_settled_fires_incrementally_in_order(self):
        settled = []
        resilient_map(
            _square, [2, 3], max_workers=1, on_settled=lambda i, r: settled.append((i, r))
        )
        assert settled == [(0, 4), (1, 9)]


class TestDefaultWorkerCount:
    """``max_workers=None`` is one worker per usable CPU, capped at the tasks."""

    def test_single_task_runs_in_process(self):
        (outcome,) = resilient_map(_square_with_pid, [3])
        assert outcome == (9, os.getpid())

    @pytest.mark.parametrize("extra", [0, 2])
    def test_fans_out_over_usable_cpus_capped_at_tasks(self, extra):
        cpus = resilient._usable_cpus()
        tasks = list(range(max(2, cpus + extra)))
        outcomes = resilient_map(_square_with_pid, tasks)
        serial = resilient_map(_square_with_pid, tasks, max_workers=1)
        assert [square for square, _ in outcomes] == [square for square, _ in serial]
        if cpus == 1:
            pytest.skip("one usable CPU: the default runs serially")
        pids = {pid for _, pid in outcomes}
        assert os.getpid() not in pids
        assert len(pids) == min(cpus, len(tasks))

    def test_daemonic_caller_runs_serially(self):
        from repro.simulation.runner import run_many

        receiver, sender = multiprocessing.Pipe(duplex=False)
        child = multiprocessing.Process(
            target=_run_many_in_daemon, args=(sender,), daemon=True
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the daemonic child sent no result"
            in_daemon = receiver.recv()
        finally:
            child.join(timeout=30)
            if child.is_alive():  # pragma: no cover - hung child
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert in_daemon == run_many(DAEMON_CONFIG, 3, backend="markov", max_workers=1)

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resilient._usable_cpus() == 3
        wanted = []

        def spy(function, tasks, ids, policy, workers_wanted, try_claim, on_settled):
            wanted.append(workers_wanted)
            return [function(task) for task in tasks]

        monkeypatch.setattr(resilient, "_pool_map", spy)
        assert resilient_map(_square, list(range(5))) == [0, 1, 4, 9, 16]
        assert resilient_map(_square, [1, 2]) == [1, 4]
        assert wanted == [3, 2]


class TestPoolPath:
    def test_maps_in_input_order(self):
        assert resilient_map(_square, list(range(6)), max_workers=2) == [
            0,
            1,
            4,
            9,
            16,
            25,
        ]

    def test_worker_crash_is_retried_and_reported(self):
        policy = RetryPolicy(retries=1, backoff_base=0.0)
        (failure,) = resilient_map(_kill_self, [0], max_workers=2, policy=policy)
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert "exit code -9" in failure.message

    def test_worker_crash_does_not_poison_other_tasks(self):
        policy = RetryPolicy(retries=0, backoff_base=0.0)
        outcomes = resilient_map(
            _crash_only_task_zero, [0, 1, 2, 3], max_workers=2, policy=policy
        )
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[1:] == [10, 20, 30]

    def test_timeout_kills_the_worker_and_reports(self):
        policy = RetryPolicy(timeout=0.3, retries=0, backoff_base=0.0)
        started = time.monotonic()
        (failure,) = resilient_map(_sleep_forever, [0], max_workers=1, policy=policy)
        elapsed = time.monotonic() - started
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert "wall-clock timeout" in failure.message
        assert elapsed < 30  # the 3600s sleep was genuinely killed

    def test_timeout_forces_pool_even_for_serial_request(self):
        # max_workers=None with a timeout must still go through a killable
        # worker; a fast task simply succeeds there.
        policy = RetryPolicy(timeout=30.0, retries=0)
        assert resilient_map(_sleep_briefly, [7], policy=policy) == [7]

    def test_fail_fast_raises_from_pool(self):
        policy = RetryPolicy(retries=0, backoff_base=0.0, fail_fast=True)
        with pytest.raises(RetryExhaustedError):
            resilient_map(_fail_always, [1, 2, 3], max_workers=2, policy=policy)

    def test_pool_results_match_serial_results(self):
        tasks = list(range(8))
        assert resilient_map(_square, tasks, max_workers=3) == resilient_map(
            _square, tasks, max_workers=1
        )

    def test_idle_worker_death_between_tasks_charges_no_attempt(self, tmp_path):
        """Regression: dispatching to a worker that died while idle lost the batch.

        A worker that exits *between* tasks (OOM-killed while idle, torn down
        by the OS) makes the next ``connection.send`` raise — which used to
        propagate and abort every remaining task.  It is the worker's failure,
        not the task's: the dispatcher must retire the corpse, redispatch to a
        fresh worker, charge no attempt and take no second claim.
        """
        # Two workers, three tasks: fewer tasks are pending than there are
        # workers once the first two start, so task 2 is not queued behind
        # either and waits for task 0's worker to go idle.  Task 1 keeps the
        # other worker busy meanwhile.  retries=0 makes the assertion sharp:
        # any wrongly-charged attempt fails the task.
        policy = RetryPolicy(timeout=60.0, retries=0, backoff_base=0.0)
        tasks = [(str(tmp_path), 0, 0.0), (str(tmp_path), 1, 1.0), (str(tmp_path), 2, 0.0)]
        claims: list[int] = []

        def claim_and_kill_idle_worker(task_id):
            claims.append(task_id)
            if task_id == 2:
                # Task 0 finished and its worker holds no task right now;
                # kill it so the upcoming send hits a closed pipe.
                idle_pid = int((tmp_path / "0.pid").read_text())
                for child in multiprocessing.active_children():
                    if child.pid == idle_pid:
                        child.kill()
                        child.join()
            return True

        outcomes = resilient_map(
            _note_pid_and_sleep,
            tasks,
            max_workers=2,
            policy=policy,
            try_claim=claim_and_kill_idle_worker,
        )
        assert outcomes == [0, 1, 2]
        assert claims == [0, 1, 2]  # the redispatch took no second claim
        # Task 2 ran on a fresh worker, not on the killed one.
        assert (tmp_path / "2.pid").read_text() != (tmp_path / "0.pid").read_text()

    def test_worker_death_charges_its_running_task_not_its_queued_one(self):
        """A worker SIGKILLed while it holds a running and a queued task costs
        the running task one attempt; the queued task was never started, so it
        is redispatched with no attempt charged and no second claim."""
        # One worker (the timeout forces the pool path): task 1 is queued in
        # its pipe while task 0 runs, and task 0 kills the worker.  retries=0:
        # a charged attempt would turn task 1 into a TaskFailure.
        policy = RetryPolicy(timeout=60.0, retries=0, backoff_base=0.0)
        claims: list[int] = []
        claimed_at: dict[int, float] = {}
        started = time.monotonic()

        def claim(task_id):
            claims.append(task_id)
            claimed_at[task_id] = time.monotonic() - started
            return True

        running, queued = resilient_map(
            _sleep_then_kill_self_or_return,
            [0.5, 0.0],
            max_workers=1,
            policy=policy,
            try_claim=claim,
        )
        assert isinstance(running, TaskFailure)
        assert running.kind == "crash"
        assert running.attempts == 1
        assert queued == 0.0  # settled, with attempts == 0 (retries=0)
        assert claims == [0, 1]
        # Task 1 was claimed and sent well before task 0 killed its worker.
        assert claimed_at[1] < 0.4

    def test_system_exit_settles_identically_on_both_paths(self):
        """Regression: serial and pool paths disagreed on BaseException tasks.

        A ``SystemExit``-raising task settled as a failed attempt under the
        pool (the worker catches ``BaseException``) but propagated — killing
        the whole batch — on the serial path.  Both paths must now produce the
        identical failure record.
        """
        (serial,) = resilient_map(_raise_system_exit, [5], policy=FAST)
        (pooled,) = resilient_map(
            _raise_system_exit, [5], max_workers=2, policy=FAST
        )
        assert isinstance(serial, TaskFailure)
        assert serial == pooled  # frozen dataclass: field-for-field identical
        assert serial.kind == "error"
        assert serial.message == "SystemExit: 3"
        assert serial.attempts == 3


def _crash_only_task_zero(value):
    if value == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _fail_first_attempt(value):
    """Task ``("fail", marker)`` fails its first attempt; ``("sleep", s)`` sleeps."""
    kind, argument = value
    if kind == "sleep":
        time.sleep(argument)
        return kind
    if not os.path.exists(argument):
        with open(argument, "w") as handle:
            handle.write("attempted")
        raise ValueError("first attempt fails")
    return kind


class TestPoolScheduling:
    """The parent blocks on worker pipes and refills a freed worker's queue at once."""

    def test_pool_does_not_busy_wait(self, monkeypatch):
        """Regression: with every worker busy, an eligible pending task made the
        wait timeout 0, so the parent spun on ``connection_wait`` (thousands of
        calls for a few dozen short tasks)."""
        calls = [0]
        original = resilient.connection_wait

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(resilient, "connection_wait", counted)
        tasks = [0.02] * 24
        assert resilient_map(_sleep_then_return, tasks, max_workers=2) == tasks
        assert calls[0] <= 3 * len(tasks)

    def test_retry_is_dispatched_when_its_backoff_expires(self, tmp_path):
        """A retry due while the other worker is busy starts on the free slot
        as soon as its backoff expires, not when the busy task ends."""
        policy = RetryPolicy(retries=1, backoff_base=0.1, backoff_cap=0.1)
        settled_at: dict[int, float] = {}
        started = time.monotonic()
        outcomes = resilient_map(
            _fail_first_attempt,
            [("fail", str(tmp_path / "marker")), ("sleep", 2.0)],
            max_workers=2,
            policy=policy,
            on_settled=lambda task_id, _: settled_at.setdefault(
                task_id, time.monotonic() - started
            ),
        )
        assert outcomes == ["fail", "sleep"]
        assert settled_at[0] < 1.0 < 2.0 <= settled_at[1]

    def test_freed_worker_is_refed_before_on_settled(self):
        """When ``on_settled(k)`` fires and enough tasks remain, the freed
        worker's queue has already been refilled: its next claim is taken."""
        events: list[tuple[str, int]] = []
        tasks = [0.01] * 12
        workers = 2

        def claim(task_id):
            events.append(("claim", task_id))
            return True

        resilient_map(
            _sleep_then_return,
            tasks,
            max_workers=workers,
            try_claim=claim,
            on_settled=lambda task_id, _: events.append(("settled", task_id)),
        )
        claims_at_settle = []
        claims = 0
        for kind, _ in events:
            if kind == "claim":
                claims += 1
            else:
                claims_at_settle.append(claims)
        # Every worker holds a running and a queued task, and the freed one
        # is refilled before the settle hook: the s-th settlement sees s + 4
        # claims while at least two tasks were still pending at the refill.
        full = len(tasks) - 3 * workers + 1
        assert claims_at_settle[:full] == [
            settled + 2 * workers for settled in range(1, full + 1)
        ]
        # Then only idle workers take the remaining tasks (no second task is
        # queued while fewer tasks are pending than there are workers), and
        # the last settlement has seen every claim.
        assert all(
            len(tasks) - workers + 1 <= claims <= len(tasks)
            for claims in claims_at_settle[full:]
        )
        assert claims_at_settle[-1] == len(tasks)

    def test_last_tasks_go_to_idle_workers_not_behind_a_long_run(self):
        """With fewer tasks pending than workers, no task is queued behind a
        running one: the last task waits for a free worker instead of sitting
        behind task 0's long run."""
        settled_at: dict[int, float] = {}
        started = time.monotonic()
        outcomes = resilient_map(
            _sleep_then_return,
            [1.0, 0.0, 0.0],
            max_workers=2,
            on_settled=lambda task_id, _: settled_at.setdefault(
                task_id, time.monotonic() - started
            ),
        )
        assert outcomes == [1.0, 0.0, 0.0]
        assert settled_at[2] < 0.5 < 1.0 <= settled_at[0]

    def test_large_task_waits_for_an_idle_worker(self):
        """A task message larger than a page is never queued behind a running
        task: it would sit in a pipe the busy worker is not reading, and a
        send that fills the pipe could deadlock against a large result."""
        claimed_at: dict[int, float] = {}
        started = time.monotonic()

        def claim(task_id):
            claimed_at[task_id] = time.monotonic() - started
            return True

        payload = b"x" * 100_000
        outcomes = resilient_map(
            _sleep_then_measure,
            [(0.3, payload), (0.3, payload)],
            max_workers=1,
            policy=RetryPolicy(timeout=60.0, retries=0),
            try_claim=claim,
        )
        assert outcomes == [len(payload), len(payload)]
        assert claimed_at[1] >= 0.3  # sent only once task 0 had finished

    def test_queued_task_timeout_counts_from_its_start(self):
        """A task queued behind a running one gets its full budget from the
        moment it starts, not from when it was sent to the worker."""
        # One worker: task 1 is sent at once and waits 1.0s behind task 0.
        # Counted from the send it would time out at 1.5s, before it finishes
        # at 2.0s; counted from its start its deadline is 2.5s.
        policy = RetryPolicy(timeout=1.5, retries=0, backoff_base=0.0)
        claimed_at: dict[int, float] = {}
        started = time.monotonic()

        def claim(task_id):
            claimed_at[task_id] = time.monotonic() - started
            return True

        outcomes = resilient_map(
            _sleep_then_return, [1.0, 1.0], max_workers=1, policy=policy, try_claim=claim
        )
        assert outcomes == [1.0, 1.0]
        assert claimed_at[1] < 0.5  # task 1 was queued while task 0 ran
