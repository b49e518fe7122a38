"""Benchmarks of the resilient dispatcher against the bare pool it replaced.

PR 7 swapped every ``pool.map`` for the submit-based resilient dispatcher
(per-task futures, wall-clock timeouts, deterministic retries, crash
recovery).  That machinery must be effectively free when nothing fails: these
benchmarks time the dispatcher's pool path against a bare
``ProcessPoolExecutor.map`` replica of the pre-PR 7 dispatch on the same
workload, and the dispatcher's serial path against a plain Python loop.  The
run driver pairs the records into ``overhead_vs_pool_map`` and
``overhead_vs_serial_loop`` ratios in the output JSON — the dispatcher's
fault-tolerance tax.

The workload is real simulation (the fast ``markov`` backend), sized so the
dispatch machinery is a visible fraction of the total rather than noise.
Sizes honour ``REPRO_BENCH_SCALE`` exactly like ``bench_engines.py``.

A second, short-task case has the shape of a cold sweep: about a thousand
2,000-block runs, half honest (~0.1 ms each) and half selfish (~2 ms), where
the dispatcher's per-task round trip through the parent is a large share of
every task.  ``run_benchmarks.py`` pairs its pool and serial records into a
``pool_vs_serial`` wall ratio; it is informational, not gated.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_once
from repro.utils.resilient import RetryPolicy, resilient_map

#: Scale multiplier for the simulated block counts (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: How many independent runs each dispatch pushes through the pool.
NUM_TASKS = 8

#: Runs in the short-task case (scaled, at least 200) and their length.
SHORT_TASKS = max(200, int(1000 * BENCH_SCALE))
SHORT_BLOCKS = 2_000

#: The benchmark measures dispatch, not recovery: nothing fails, so retries
#: and backoff never engage, exactly like a healthy production sweep.
POLICY = RetryPolicy(retries=0)


def scaled(blocks: int) -> int:
    """``blocks`` scaled by ``REPRO_BENCH_SCALE`` (at least 1000)."""
    return max(1000, int(blocks * BENCH_SCALE))


def _tasks(blocks: int) -> list[SimulationConfig]:
    return [
        SimulationConfig(
            params=MiningParams(alpha=round(0.05 * (index + 1), 2), gamma=0.5),
            num_blocks=blocks,
            seed=2019 + index,
            strategy="selfish",
        )
        for index in range(NUM_TASKS)
    ]


def _short_tasks() -> list[SimulationConfig]:
    return [
        SimulationConfig(
            params=MiningParams(alpha=round(0.05 + 0.04 * (index % 10), 2), gamma=0.5),
            num_blocks=SHORT_BLOCKS,
            seed=7000 + index,
            strategy="honest" if index % 2 == 0 else "selfish",
        )
        for index in range(SHORT_TASKS)
    ]


def _simulate(config: SimulationConfig) -> float:
    return run_once(config, backend="markov").relative_pool_revenue


def _timed_pool_dispatch(benchmark, tasks: list[SimulationConfig]) -> list[float]:
    """Time ``resilient_map`` on two workers, recording the parent's CPU."""
    parent_cpu_s: list[float] = []

    def dispatch():
        started = time.process_time()
        outcome = resilient_map(_simulate, tasks, max_workers=2, policy=POLICY)
        parent_cpu_s.append(time.process_time() - started)
        return outcome

    result = benchmark.pedantic(dispatch, rounds=3, iterations=1)
    benchmark.extra_info["parent_cpu_s"] = sum(parent_cpu_s) / len(parent_cpu_s)
    return result


def test_resilient_pool_dispatch_benchmark(benchmark):
    """The resilient dispatcher's pool path on a fault-free workload.

    Also records the dispatching parent's own CPU seconds per round as
    ``parent_cpu_s``: a parent that busy-waits on its workers burns CPU the
    workers need, which a wall-clock ratio alone can hide.
    """
    blocks = scaled(20_000)
    tasks = _tasks(blocks)
    benchmark.extra_info["blocks"] = blocks * NUM_TASKS
    result = _timed_pool_dispatch(benchmark, tasks)
    # Dispatch order must not leak into results: input order, bit-identical.
    assert result == [_simulate(config) for config in tasks]


def test_legacy_pool_map_benchmark(benchmark):
    """The pre-PR 7 dispatch: a bare ``ProcessPoolExecutor.map``."""
    blocks = scaled(20_000)
    tasks = _tasks(blocks)
    benchmark.extra_info["blocks"] = blocks * NUM_TASKS

    def legacy_dispatch():
        with ProcessPoolExecutor(max_workers=2) as pool:
            return list(pool.map(_simulate, tasks))

    result = benchmark.pedantic(legacy_dispatch, rounds=3, iterations=1)
    assert len(result) == NUM_TASKS


def test_resilient_serial_dispatch_benchmark(benchmark):
    """The dispatcher's in-process path (``max_workers=1``, no timeout)."""
    blocks = scaled(20_000)
    tasks = _tasks(blocks)
    benchmark.extra_info["blocks"] = blocks * NUM_TASKS
    result = benchmark.pedantic(
        lambda: resilient_map(_simulate, tasks, max_workers=1, policy=POLICY),
        rounds=3,
        iterations=1,
    )
    assert len(result) == NUM_TASKS


def test_serial_loop_baseline_benchmark(benchmark):
    """A plain Python loop over the same workload (no dispatcher at all)."""
    blocks = scaled(20_000)
    tasks = _tasks(blocks)
    benchmark.extra_info["blocks"] = blocks * NUM_TASKS
    result = benchmark.pedantic(
        lambda: [_simulate(config) for config in tasks],
        rounds=3,
        iterations=1,
    )
    assert len(result) == NUM_TASKS


def test_resilient_short_task_pool_benchmark(benchmark):
    """Many short runs on two workers: the cold sweep's dispatch shape.

    Records ``parent_cpu_s`` like the long-task case; every task's result
    still comes back in input order, bit-identical to a serial loop.
    """
    tasks = _short_tasks()
    benchmark.extra_info["blocks"] = SHORT_BLOCKS * SHORT_TASKS
    result = _timed_pool_dispatch(benchmark, tasks)
    assert result == [_simulate(config) for config in tasks]


def test_resilient_short_task_serial_benchmark(benchmark):
    """The same short runs on the in-process path (the ratio's denominator)."""
    tasks = _short_tasks()
    benchmark.extra_info["blocks"] = SHORT_BLOCKS * SHORT_TASKS
    result = benchmark.pedantic(
        lambda: resilient_map(_simulate, tasks, max_workers=1, policy=POLICY),
        rounds=3,
        iterations=1,
    )
    assert len(result) == SHORT_TASKS
