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


def _simulate(config: SimulationConfig) -> float:
    return run_once(config, backend="markov").relative_pool_revenue


def test_resilient_pool_dispatch_benchmark(benchmark):
    """The resilient dispatcher's pool path on a fault-free workload.

    Also records the dispatching parent's own CPU seconds per round as
    ``parent_cpu_s``: a parent that busy-waits on its workers burns CPU the
    workers need, which a wall-clock ratio alone can hide.
    """
    blocks = scaled(20_000)
    tasks = _tasks(blocks)
    benchmark.extra_info["blocks"] = blocks * NUM_TASKS
    parent_cpu_s: list[float] = []

    def dispatch():
        started = time.process_time()
        outcome = resilient_map(_simulate, tasks, max_workers=2, policy=POLICY)
        parent_cpu_s.append(time.process_time() - started)
        return outcome

    result = benchmark.pedantic(dispatch, rounds=3, iterations=1)
    benchmark.extra_info["parent_cpu_s"] = sum(parent_cpu_s) / len(parent_cpu_s)
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
