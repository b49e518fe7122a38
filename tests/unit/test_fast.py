"""Unit tests for the Markov Monte Carlo simulator."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from reference_markov import scalar_markov_run
from repro.analysis.absolute import Scenario
from repro.markov.state import State
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.fast import MarkovMonteCarlo

SEED_FIXTURES = Path(__file__).parent.parent / "fixtures" / "seed_engine_fixtures.json"
SCHEDULES = {
    "ethereum": EthereumByzantiumSchedule,
    "bitcoin": BitcoinSchedule,
    "flat_half": lambda: FlatUncleSchedule(0.5),
}


def _selfish_fixture_cases() -> list[dict]:
    with SEED_FIXTURES.open() as handle:
        fixtures = json.load(handle)["fixtures"]
    return [fixture["case"] for fixture in fixtures if fixture["case"]["selfish"]]


def config(alpha=0.3, gamma=0.5, blocks=30_000, seed=1, schedule=None) -> SimulationConfig:
    return SimulationConfig(
        params=MiningParams(alpha=alpha, gamma=gamma),
        schedule=schedule or EthereumByzantiumSchedule(),
        num_blocks=blocks,
        seed=seed,
    )


class TestBasics:
    def test_reproducible_from_seed(self):
        first = MarkovMonteCarlo(config(seed=4)).run()
        second = MarkovMonteCarlo(config(seed=4)).run()
        assert first.pool_rewards.isclose(second.pool_rewards)
        assert first.regular_blocks == pytest.approx(second.regular_blocks)

    def test_block_accounting_sums_to_total(self):
        result = MarkovMonteCarlo(config(blocks=10_000)).run()
        assert result.regular_blocks + result.uncle_blocks + result.stale_blocks == pytest.approx(
            result.total_blocks, abs=1e-6
        )

    def test_starts_in_zero_state_and_tracks_transitions(self):
        simulator = MarkovMonteCarlo(config(blocks=100))
        assert simulator.state == State(0, 0)
        simulator.run()
        assert simulator._events_run == 100

    def test_trace_records_one_target_state_per_event(self):
        trace: list[int] = []
        simulator = MarkovMonteCarlo(config(blocks=500))
        simulator.run(trace=trace)
        assert len(trace) == 500
        assert trace[-1] == simulator.state.encode()

    def test_compiled_tables_stay_small(self):
        simulator = MarkovMonteCarlo(config(blocks=5_000))
        simulator.run()
        # Only a modest number of distinct states should ever be visited/compiled.
        assert 1 < simulator.tables.num_states < 200


class TestAgreesWithScalarOracle:
    """The compiled-table walk is a drop-in replacement for the per-event loop.

    For a given seed it must sample the *identical* transition sequence as the
    scalar oracle of ``tests/reference_markov.py``, and every accumulated total
    must agree to float reassociation accuracy (count-times-value versus
    repeated addition).
    """

    CASES = [
        (0.35, 0.5, None, 1),
        (0.10, 0.0, None, 7),
        (0.45, 0.8, None, 3),
        (0.30, 0.5, BitcoinSchedule(), 11),
    ]

    @pytest.mark.parametrize("alpha,gamma,schedule,seed", CASES)
    def test_same_seed_transition_sequence_identical(self, alpha, gamma, schedule, seed):
        cfg = config(alpha=alpha, gamma=gamma, schedule=schedule, blocks=20_000, seed=seed)
        table_trace: list[int] = []
        scalar_trace: list[int] = []
        MarkovMonteCarlo(cfg).run(trace=table_trace)
        scalar_markov_run(cfg, trace=scalar_trace)
        assert table_trace == scalar_trace

    @pytest.mark.parametrize("alpha,gamma,schedule,seed", CASES)
    def test_aggregates_agree_to_reassociation_tolerance(self, alpha, gamma, schedule, seed):
        cfg = config(alpha=alpha, gamma=gamma, schedule=schedule, blocks=20_000, seed=seed)
        table = MarkovMonteCarlo(cfg).run()
        scalar, _ = scalar_markov_run(cfg)
        assert table.pool_rewards.isclose(scalar.pool_rewards, rel_tol=1e-9)
        assert table.honest_rewards.isclose(scalar.honest_rewards, rel_tol=1e-9)
        for name in (
            "regular_blocks",
            "pool_regular_blocks",
            "honest_regular_blocks",
            "uncle_blocks",
            "pool_uncle_blocks",
            "honest_uncle_blocks",
            "stale_blocks",
        ):
            assert getattr(table, name) == pytest.approx(
                getattr(scalar, name), rel=1e-9, abs=1e-9
            ), name
        for table_counts, scalar_counts in (
            (table.honest_uncle_distance_counts, scalar.honest_uncle_distance_counts),
            (table.pool_uncle_distance_counts, scalar.pool_uncle_distance_counts),
        ):
            assert set(table_counts) == set(scalar_counts)
            for distance, value in table_counts.items():
                assert value == pytest.approx(scalar_counts[distance], rel=1e-9, abs=1e-9)

    def test_honest_strategy_agrees_exactly(self):
        cfg = config(blocks=30_000, seed=5).with_strategy("honest")
        table = MarkovMonteCarlo(cfg).run()
        scalar, _ = scalar_markov_run(cfg)
        # Block attribution is integer counting over the identical draw stream.
        assert table.pool_regular_blocks == scalar.pool_regular_blocks
        assert table.pool_rewards == scalar.pool_rewards

    def test_final_state_matches_scalar_oracle(self):
        cfg = config(blocks=10_000, seed=13)
        table_sim = MarkovMonteCarlo(cfg)
        table_sim.run()
        _, scalar_state = scalar_markov_run(cfg)
        assert table_sim.state == scalar_state
        assert table_sim._events_run == 10_000


class TestStatisticalAgreement:
    def test_matches_analytical_revenue(self, ethereum_model):
        params = MiningParams(alpha=0.3, gamma=0.5)
        analytical = ethereum_model.revenue_rates(params)
        result = MarkovMonteCarlo(config(blocks=60_000, seed=11)).run()
        assert result.pool_rewards.total / result.total_blocks == pytest.approx(
            analytical.pool.total, abs=0.01
        )
        assert result.regular_blocks / result.total_blocks == pytest.approx(
            analytical.regular_rate, abs=0.01
        )

    def test_absolute_revenue_close_to_analysis(self, ethereum_model):
        params = MiningParams(alpha=0.35, gamma=0.5)
        analytical = ethereum_model.revenue_rates(params)
        result = MarkovMonteCarlo(config(alpha=0.35, blocks=60_000, seed=12)).run()
        expected = analytical.pool.total / analytical.regular_rate
        assert result.pool_absolute_revenue(Scenario.REGULAR_ONLY) == pytest.approx(expected, abs=0.02)

    def test_bitcoin_schedule_produces_no_uncle_rewards(self):
        result = MarkovMonteCarlo(config(schedule=BitcoinSchedule(), blocks=10_000)).run()
        assert result.pool_rewards.uncle == 0.0
        assert result.honest_rewards.nephew == 0.0
        assert result.uncle_blocks == 0.0

    def test_tiny_pool_rarely_builds_leads(self):
        result = MarkovMonteCarlo(config(alpha=0.05, blocks=20_000, seed=3)).run()
        assert result.stale_blocks / result.total_blocks < 0.02
        assert result.relative_pool_revenue < 0.05


class ForgetfulRows(dict):
    """A mapping that stores entries but never returns one."""

    def get(self, key, default=None):
        return default


class TestClassReuseIsBitExact:
    """Reusing each (lead, forked) class's reward rows changes no bit of a run."""

    @pytest.mark.parametrize("blocks", [None, 40_000])
    @pytest.mark.parametrize("case", _selfish_fixture_cases())
    def test_seed_fixture_cases_match_per_state_compilation(self, case, blocks):
        cfg = SimulationConfig(
            params=MiningParams(alpha=case["alpha"], gamma=case["gamma"]),
            schedule=SCHEDULES[case["schedule"]](),
            num_blocks=blocks or case["blocks"],
            seed=case["seed"],
            warmup_blocks=case.get("warmup", 0),
        )
        reused = MarkovMonteCarlo(cfg)
        per_state = MarkovMonteCarlo(cfg)
        # A class-row cache that never hits: every state computes its own records.
        per_state.tables._class_rows = ForgetfulRows()
        assert reused.run() == per_state.run()
        assert reused.tables.num_states > len(reused.tables._class_rows)
