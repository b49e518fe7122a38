"""Unit tests for multi-run orchestration."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import (
    honest_baseline_config,
    run_many,
    run_many_grid,
    run_once,
    simulate_alpha_sweep,
    simulate_strategy_sweep,
)

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

    def test_grid_matches_per_cell_run_many(self):
        cells = [CONFIG.with_seed(5), CONFIG.with_seed(9)]
        grid = run_many_grid(cells, 2, backend="markov")
        for cell, aggregate in zip(cells, grid):
            expected = run_many(cell, 2, backend="markov")
            assert aggregate.relative_pool_revenue == expected.relative_pool_revenue
            assert [r.config.seed for r in aggregate.results] == [
                r.config.seed for r in expected.results
            ]

    def test_grid_parallelises_across_cells_with_single_runs(self):
        # One run per cell: the flat fan-out must still dispatch both cells to the
        # pool and return them in input order, bit-identical to serial.
        cells = [CONFIG.with_seed(5), CONFIG.with_seed(9)]
        serial = run_many_grid(cells, 1, backend="markov", max_workers=1)
        parallel = run_many_grid(cells, 1, backend="markov", max_workers=2)
        for serial_cell, parallel_cell in zip(serial, parallel):
            assert serial_cell.relative_pool_revenue == parallel_cell.relative_pool_revenue


class TestSweepAndHelpers:
    def test_simulated_alpha_sweep_covers_grid(self):
        sweep = simulate_alpha_sweep([0.1, 0.3], CONFIG, num_runs=1, backend="markov")
        assert sweep.alphas == [0.1, 0.3]
        assert len(sweep.pool_absolute_scenario1()) == 2
        assert sweep.gamma == 0.5

    def test_pool_revenue_increases_along_the_sweep(self):
        sweep = simulate_alpha_sweep([0.1, 0.4], CONFIG, num_runs=1, backend="markov")
        values = sweep.pool_absolute_scenario1()
        assert values[1] > values[0]

    def test_honest_baseline_config_switches_strategy_only(self):
        baseline = honest_baseline_config(CONFIG)
        assert baseline.selfish is None
        assert baseline.strategy_name == "honest"
        assert baseline.params == CONFIG.params
        assert baseline.num_blocks == CONFIG.num_blocks

    def test_strategy_sweep_covers_requested_strategies(self):
        small = SimulationConfig(params=MiningParams(alpha=0.35, gamma=0.5), num_blocks=1200, seed=3)
        results = simulate_strategy_sweep(("honest", "selfish"), small, num_runs=1)
        assert set(results) == {"honest", "selfish"}
        assert results["honest"].stale_fraction.mean == 0.0
        assert results["selfish"].stale_fraction.mean >= 0.0
