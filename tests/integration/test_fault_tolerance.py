"""Acceptance tests for the fault-tolerant sweep execution path.

The issue's acceptance criteria, pinned end-to-end on the *real* process-pool
path (genuine ``SIGKILL``-ed workers, genuinely hung runs, genuinely truncated
store entries — not mocks):

* a sweep with an injected worker kill, a hung run and a corrupted store entry
  **completes with aggregates bit-identical** to an uninjected run;
* ``vacuum()`` sweeps the corrupted entry, and a ``--resume``-style re-run
  executes **exactly** the runs that were lost (nothing else);
* two concurrent sweep processes sharing one cache directory finish with
  **zero duplicated simulations** and a valid store (the lease protocol);
* the degraded mode (``on_failure="record"``) turns an unrecoverable run into
  a *failed* cell without losing the settled siblings, and a later resume
  completes the sweep.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import RetryExhaustedError
from repro.params import MiningParams
from repro.rewards.schedule import FlatUncleSchedule
from repro.scenarios import ScenarioSpec, run_scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import RunFailure, execute_runs
from repro.store import SIMULATION_NAMESPACE, ResultStore
from repro.testing import FaultSpec, inject_faults
from repro.utils.resilient import RetryPolicy

#: Retries with zero backoff: every injected fault is retried immediately, so
#: the chaos tests stay fast.  The timeout only needs to out-wait dispatch, not
#: a real simulation (the hung worker sleeps 3600s regardless).
CHAOS_POLICY = RetryPolicy(timeout=20.0, retries=2, backoff_base=0.0)


def _chaos_spec(name: str) -> ScenarioSpec:
    """A small real scenario: 3 cells x 2 runs = 6 planned runs."""
    return ScenarioSpec(
        name=name,
        alphas=(0.25, 0.3, 0.35),
        gammas=(0.5,),
        strategies=("selfish",),
        backends=("markov",),
        schedules=(FlatUncleSchedule(0.5),),
        num_runs=2,
        num_blocks=1_500,
        seed=2019,
    )


class TestChaosSweepBitIdentical:
    def test_kill_hang_raise_and_corrupt_settle_bit_identically(self, tmp_path):
        spec = _chaos_spec("chaos")
        baseline = run_scenario(spec, max_workers=2)

        store = ResultStore(tmp_path / "cache")
        plan = (
            FaultSpec(kind="kill", task=1),      # worker dies with exit code -9
            FaultSpec(kind="hang", task=3, seconds=3600.0),  # killed at timeout
            FaultSpec(kind="raise", task=4),     # plain in-task exception
            FaultSpec(kind="corrupt", task=0),   # store entry truncated on disk
        )
        with inject_faults(plan):
            injected = run_scenario(
                spec, store=store, max_workers=2, policy=CHAOS_POLICY
            )

        assert injected.complete
        assert injected.executed_runs == spec.num_planned_runs == 6
        assert [outcome.aggregate for outcome in injected.cells] == [
            outcome.aggregate for outcome in baseline.cells
        ]

    def test_corrupted_entry_reads_as_miss_is_vacuumed_and_resumed(self, tmp_path):
        spec = _chaos_spec("chaos-corrupt")
        store = ResultStore(tmp_path / "cache")
        with inject_faults((FaultSpec(kind="corrupt", task=2),)):
            first = run_scenario(spec, store=store, max_workers=2, policy=CHAOS_POLICY)
        assert first.complete and first.executed_runs == 6

        # The truncated entry must fail validation: vacuum removes exactly it.
        report = store.vacuum()
        assert report.removed_entries == 1

        # A resume executes exactly the one lost run, and its settled result
        # is bit-identical to the uninjected baseline's.
        baseline = run_scenario(spec, max_workers=2)
        resumed = run_scenario(spec, store=store, policy=CHAOS_POLICY)
        assert resumed.executed_runs == 1 and resumed.cached_runs == 5
        assert [outcome.aggregate for outcome in resumed.cells] == [
            outcome.aggregate for outcome in baseline.cells
        ]

    def test_serial_chaos_raise_fault_retries_in_process(self, tmp_path):
        spec = _chaos_spec("chaos-serial")
        baseline = run_scenario(spec, max_workers=1)
        store = ResultStore(tmp_path / "cache")
        with inject_faults((FaultSpec(kind="raise", task=5),)):
            injected = run_scenario(
                spec,
                store=store,
                policy=RetryPolicy(retries=1, backoff_base=0.0),
                max_workers=1,
            )
        assert injected.complete
        assert [outcome.aggregate for outcome in injected.cells] == [
            outcome.aggregate for outcome in baseline.cells
        ]


class TestDegradedMode:
    def test_unrecoverable_run_becomes_failed_cell_and_resume_completes(self, tmp_path):
        spec = _chaos_spec("chaos-degraded")
        store = ResultStore(tmp_path / "cache")
        # The fault fires on every attempt of task 0: the budget runs out.
        plan = tuple(
            FaultSpec(kind="raise", task=0, attempt=attempt) for attempt in range(3)
        )
        with inject_faults(plan):
            degraded = run_scenario(
                spec,
                store=store,
                policy=RetryPolicy(retries=2, backoff_base=0.0),
                on_failure="record",
                max_workers=1,
            )
        assert degraded.failed_cells == 1 and degraded.failed_runs == 1
        assert not degraded.complete
        failed_cell = next(o for o in degraded.cells if o.failed)
        assert isinstance(failed_cell.failures[0], RunFailure)
        assert failed_cell.aggregate is None
        # The failure is reported, not hidden, and the settled cells are intact.
        assert "FAILED" in degraded.report()
        assert sum(1 for o in degraded.cells if o.aggregate is not None) == 2
        # 5 settled runs persisted; the failed one was not.
        assert degraded.executed_runs == 5

        # Resume without the fault plan: exactly the failed run executes.
        resumed = run_scenario(spec, store=store)
        assert resumed.complete
        assert resumed.executed_runs == 1 and resumed.cached_runs == 5
        baseline = run_scenario(spec)
        assert [outcome.aggregate for outcome in resumed.cells] == [
            outcome.aggregate for outcome in baseline.cells
        ]

    def test_default_mode_raises_retry_exhausted(self, tmp_path):
        spec = _chaos_spec("chaos-raise")
        plan = tuple(
            FaultSpec(kind="raise", task=0, attempt=attempt) for attempt in range(2)
        )
        with inject_faults(plan):
            with pytest.raises(RetryExhaustedError):
                run_scenario(
                    spec, policy=RetryPolicy(retries=1, backoff_base=0.0), max_workers=1
                )


# ---------------------------------------------------------------------------
# Concurrent sweep processes sharing one cache directory
# ---------------------------------------------------------------------------


def _concurrent_sweep(root: str, log_path: str, barrier) -> None:
    """One sweep process: run the shared scenario, log how many runs it executed."""
    spec = _chaos_spec("chaos-concurrent")
    store = ResultStore(root)
    barrier.wait()
    result = run_scenario(spec, store=store)
    with open(log_path, "a") as handle:
        handle.write(f"{result.executed_runs}\n")
    # Every cell must have settled (own work, or the sibling's via the store).
    assert result.complete


class TestConcurrentSweeps:
    def test_two_processes_share_the_work_without_duplication(self, tmp_path):
        root = tmp_path / "cache"
        log_path = tmp_path / "executed.log"
        log_path.touch()
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        processes = [
            context.Process(
                target=_concurrent_sweep, args=(str(root), str(log_path), barrier)
            )
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=300)
        assert all(process.exitcode == 0 for process in processes)

        executed_counts = [int(line) for line in log_path.read_text().split()]
        spec = _chaos_spec("chaos-concurrent")
        # Zero duplicated simulations: the processes partitioned the plan.
        assert sum(executed_counts) == spec.num_planned_runs == 6

        # The shared store is valid and complete: a third pass does zero work
        # and settles bit-identically to an uncached baseline.
        final = run_scenario(spec, store=ResultStore(root))
        assert final.executed_runs == 0 and final.cached_runs == 6
        baseline = run_scenario(spec)
        assert [outcome.aggregate for outcome in final.cells] == [
            outcome.aggregate for outcome in baseline.cells
        ]

    def test_deferred_runs_resolve_from_the_holder_release(self, tmp_path):
        """A held claim defers the run; once freed, the waiter settles it."""
        config = SimulationConfig(
            params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=800, seed=7
        )
        store = ResultStore(tmp_path / "cache", lease_ttl=0.2)
        # Simulate a dead holder: claim then never release.  The lease TTL is
        # tiny, so the waiting process steals the stale claim and runs.
        key = store.result_key(config, "markov")
        lease = store.claim(SIMULATION_NAMESPACE, key)
        assert lease is not None
        results, executed = execute_runs(
            [(config, "markov")], store=store, policy=RetryPolicy(backoff_base=0.0)
        )
        assert executed == [0]
        assert store.load_results([key], [config]) == results
