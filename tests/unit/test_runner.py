"""Unit tests for multi-run orchestration."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_many, run_once

CONFIG = SimulationConfig(params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=3000, seed=5)


class TestRunOnce:
    def test_chain_backend(self):
        result = run_once(CONFIG, backend="chain")
        assert result.total_blocks == CONFIG.num_blocks

    def test_markov_backend(self):
        result = run_once(CONFIG, backend="markov")
        assert result.total_blocks == CONFIG.num_blocks

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            run_once(CONFIG, backend="quantum")


class TestRunMany:
    def test_aggregates_the_requested_number_of_runs(self):
        aggregate = run_many(CONFIG, 3, backend="markov")
        assert aggregate.num_runs == 3

    def test_reproducible_from_master_seed(self):
        first = run_many(CONFIG, 2, backend="markov")
        second = run_many(CONFIG, 2, backend="markov")
        assert first.pool_absolute_scenario1.mean == pytest.approx(second.pool_absolute_scenario1.mean)

    def test_runs_use_distinct_seeds(self):
        aggregate = run_many(CONFIG, 3, backend="markov")
        seeds = {result.config.seed for result in aggregate.results}
        assert len(seeds) == 3

    def test_zero_runs_rejected(self):
        with pytest.raises(SimulationError):
            run_many(CONFIG, 0)

    def test_parallel_matches_serial(self):
        serial = run_many(CONFIG, 2, backend="markov", max_workers=1)
        parallel = run_many(CONFIG, 2, backend="markov", max_workers=2)
        assert serial.relative_pool_revenue == parallel.relative_pool_revenue
        assert [r.config.seed for r in serial.results] == [r.config.seed for r in parallel.results]

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(SimulationError):
            run_many(CONFIG, 2, max_workers=-1)

    def test_excess_workers_are_capped_to_runs(self):
        aggregate = run_many(CONFIG, 2, backend="markov", max_workers=16)
        assert aggregate.num_runs == 2
