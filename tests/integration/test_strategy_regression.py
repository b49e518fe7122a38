"""Regression tests pinning the strategy refactor to the seed engine.

``tests/fixtures/seed_engine_fixtures.json`` was recorded by running the
*pre-refactor* engine (commit ``bdb957c``, with the pool's decisions hard-coded
behind the ``selfish`` flag) on a spread of configurations.  The strategy-layer
engine must reproduce every recorded number **bit-for-bit**: same seed, same
blocks, same rewards.  The parallel executor must be equally indistinguishable
from the serial one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator
from repro.simulation.fast import MarkovMonteCarlo
from repro.simulation.runner import run_many, run_once

FIXTURE_PATH = Path(__file__).parent.parent / "fixtures" / "seed_engine_fixtures.json"

SCHEDULES = {
    "ethereum": EthereumByzantiumSchedule,
    "bitcoin": BitcoinSchedule,
    "flat_half": lambda: FlatUncleSchedule(0.5),
}


def _load_fixtures() -> list[dict]:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)["fixtures"]


def _config_for(case: dict) -> SimulationConfig:
    return SimulationConfig(
        params=MiningParams(alpha=case["alpha"], gamma=case["gamma"]),
        schedule=SCHEDULES[case["schedule"]](),
        num_blocks=case["blocks"],
        seed=case["seed"],
        strategy="selfish" if case["selfish"] else "honest",
        warmup_blocks=case.get("warmup", 0),
    )


def _case_id(fixture: dict) -> str:
    case = fixture["case"]
    mode = "selfish" if case["selfish"] else "honest"
    return f"{mode}-a{case['alpha']}-g{case['gamma']}-{case['schedule']}-s{case['seed']}"


@pytest.mark.parametrize("fixture", _load_fixtures(), ids=_case_id)
def test_engine_reproduces_seed_fixture_bit_for_bit(fixture):
    result = ChainSimulator(_config_for(fixture["case"])).run()
    expected = fixture["expected"]
    # Exact equality on purpose: the refactor claims bit-identical behaviour, so
    # no tolerance is granted anywhere, including the floating-point rewards.
    assert result.pool_rewards.as_dict() == expected["pool_rewards"]
    assert result.honest_rewards.as_dict() == expected["honest_rewards"]
    assert result.regular_blocks == expected["regular_blocks"]
    assert result.pool_regular_blocks == expected["pool_regular_blocks"]
    assert result.honest_regular_blocks == expected["honest_regular_blocks"]
    assert result.uncle_blocks == expected["uncle_blocks"]
    assert result.pool_uncle_blocks == expected["pool_uncle_blocks"]
    assert result.honest_uncle_blocks == expected["honest_uncle_blocks"]
    assert result.stale_blocks == expected["stale_blocks"]
    assert result.total_blocks == expected["total_blocks"]
    assert result.num_events == expected["num_events"]
    assert {str(k): v for k, v in result.honest_uncle_distance_counts.items()} == (
        expected["honest_uncle_distance_counts"]
    )
    assert {str(k): v for k, v in result.pool_uncle_distance_counts.items()} == (
        expected["pool_uncle_distance_counts"]
    )


class TestParallelExecutorMatchesSerial:
    CONFIG = SimulationConfig(
        params=MiningParams(alpha=0.35, gamma=0.5), num_blocks=2500, seed=42
    )

    def test_chain_backend_bit_identical(self):
        serial = run_many(self.CONFIG, 3, backend="chain", max_workers=1)
        parallel = run_many(self.CONFIG, 3, backend="chain", max_workers=3)
        assert [r.config.seed for r in serial.results] == [
            r.config.seed for r in parallel.results
        ]
        for serial_run, parallel_run in zip(serial.results, parallel.results):
            assert serial_run.pool_rewards == parallel_run.pool_rewards
            assert serial_run.honest_rewards == parallel_run.honest_rewards
            assert serial_run.regular_blocks == parallel_run.regular_blocks
            assert serial_run.uncle_blocks == parallel_run.uncle_blocks
            assert serial_run.stale_blocks == parallel_run.stale_blocks
        assert serial.relative_pool_revenue == parallel.relative_pool_revenue
        assert serial.pool_absolute_scenario1 == parallel.pool_absolute_scenario1

    def test_markov_backend_bit_identical(self):
        serial = run_many(self.CONFIG, 2, backend="markov", max_workers=1)
        parallel = run_many(self.CONFIG, 2, backend="markov", max_workers=2)
        for serial_run, parallel_run in zip(serial.results, parallel.results):
            assert serial_run.pool_rewards == parallel_run.pool_rewards

    def test_worker_count_does_not_change_results(self):
        two = run_many(self.CONFIG, 4, backend="markov", max_workers=2)
        four = run_many(self.CONFIG, 4, backend="markov", max_workers=4)
        assert two.relative_pool_revenue == four.relative_pool_revenue

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            run_many(self.CONFIG, 2, max_workers=0)


class TestStrategyBackendSupport:
    PARAMS = MiningParams(alpha=0.3, gamma=0.5)

    def test_every_strategy_runs_on_the_chain_backend(self):
        from repro.strategies import available_strategies

        for name in available_strategies():
            config = SimulationConfig(params=self.PARAMS, num_blocks=400, seed=1, strategy=name)
            result = run_once(config, backend="chain")
            assert result.total_blocks > 0

    def test_markov_backend_rejects_strategies_without_a_transition_model(self):
        honest = SimulationConfig(params=self.PARAMS, num_blocks=400, seed=1, strategy="honest")
        assert MarkovMonteCarlo(honest).run().stale_blocks == 0.0
        selfish = SimulationConfig(params=self.PARAMS, num_blocks=400, seed=1)
        assert MarkovMonteCarlo(selfish).run().total_blocks == 400
        optimal = SimulationConfig(
            params=self.PARAMS, num_blocks=400, seed=1, strategy="optimal"
        )
        assert MarkovMonteCarlo(optimal).run().total_blocks == 400
        stubborn = SimulationConfig(
            params=self.PARAMS, num_blocks=400, seed=1, strategy="lead_stubborn"
        )
        with pytest.raises(SimulationError, match="chain"):
            MarkovMonteCarlo(stubborn)

    def test_markov_honest_run_matches_chain_statistics(self):
        config = SimulationConfig(
            params=self.PARAMS, num_blocks=20_000, seed=5, strategy="honest"
        )
        markov = MarkovMonteCarlo(config).run()
        assert markov.regular_blocks == markov.total_blocks
        assert markov.uncle_blocks == 0.0
        assert markov.relative_pool_revenue == pytest.approx(self.PARAMS.alpha, abs=0.02)
