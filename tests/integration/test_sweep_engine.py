"""Integration tests for the sweep engine and the persistent store.

Three claims from the refactor's acceptance criteria are pinned here:

* a **figure-8-sized scenario re-run from a warm store does zero simulation
  work**, verified by counting actual backend constructions (not just the
  engine's own accounting);
* the **pinned fixtures still pass bit-exactly through the new machinery** —
  the seed-engine and network fixtures (recorded from literal-seed runs)
  through the store-backed executor, the optimal fixture (recorded from the
  ``run_many`` protocol) through the full declarative scenario path;
* an **interrupted sweep resumed from its store equals an uncached
  straight-through run** exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule
from repro.scenarios import ScenarioSpec, run_scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import execute_runs
from repro.store import SIMULATION_NAMESPACE, ResultStore

FIXTURES = Path(__file__).parent.parent / "fixtures"

SCHEDULES = {
    "ethereum": EthereumByzantiumSchedule,
    "bitcoin": BitcoinSchedule,
    "flat_half": lambda: FlatUncleSchedule(0.5),
}


def _counting_make_simulator(monkeypatch):
    """Patch the runner's backend lookup with a construction counter."""
    import repro.simulation.runner as runner_module
    from repro.backends import make_simulator

    counter = {"builds": 0}

    def counting(config, backend):
        counter["builds"] += 1
        return make_simulator(config, backend)

    monkeypatch.setattr(runner_module, "make_simulator", counting)
    return counter


class TestWarmStoreDoesZeroWork:
    def test_figure8_sized_scenario_re_run_builds_no_simulator(self, tmp_path, monkeypatch):
        spec = ScenarioSpec(
            name="figure8-sized",
            alphas=tuple(round(0.05 * step, 2) for step in range(1, 10)),
            gammas=(0.5,),
            strategies=("selfish",),
            backends=("markov",),
            schedules=(FlatUncleSchedule(0.5),),
            num_runs=2,
            num_blocks=2_000,
            seed=2019,
        )
        counter = _counting_make_simulator(monkeypatch)
        store = ResultStore(tmp_path / "cache")
        # Serial in-process (max_workers=1), so the parent-side spy sees the builds.
        cold = run_scenario(spec, store=store, max_workers=1)
        assert counter["builds"] == spec.num_planned_runs == 18
        assert cold.executed_runs == 18 and cold.cached_runs == 0

        counter["builds"] = 0
        warm = run_scenario(spec, store=store, max_workers=1)
        assert counter["builds"] == 0, "warm re-run constructed a simulator"
        assert warm.executed_runs == 0 and warm.cached_runs == 18
        assert [o.aggregate for o in warm.cells] == [o.aggregate for o in cold.cells]

    def test_reopened_store_still_does_zero_work_bit_exactly(self, tmp_path, monkeypatch):
        """A fresh process's view of the store costs no recompute and no bit."""
        spec = ScenarioSpec(
            name="figure8-reopened",
            alphas=tuple(round(0.05 * step, 2) for step in range(1, 10)),
            gammas=(0.5,),
            strategies=("selfish",),
            backends=("markov",),
            schedules=(FlatUncleSchedule(0.5),),
            num_runs=2,
            num_blocks=2_000,
            seed=2019,
        )
        store = ResultStore(tmp_path / "cache")
        cold = run_scenario(spec, store=store)
        assert cold.executed_runs == 18
        store.close()

        import repro.simulation.runner as runner_module

        def forbidden(config, backend):
            raise AssertionError("warm re-run constructed a simulator")

        monkeypatch.setattr(runner_module, "make_simulator", forbidden)
        warm = run_scenario(spec, store=ResultStore(tmp_path / "cache"))
        assert warm.executed_runs == 0 and warm.cached_runs == 18
        assert [o.aggregate for o in warm.cells] == [o.aggregate for o in cold.cells]

    def test_garbage_database_still_settles_bit_exactly(self, tmp_path):
        """An overwritten database reads as all misses; the sweep recomputes."""
        spec = ScenarioSpec(
            name="garbage-database",
            alphas=(0.25, 0.35),
            gammas=(0.5,),
            strategies=("selfish",),
            backends=("markov",),
            num_runs=2,
            num_blocks=1_500,
            seed=2019,
        )
        filled = ResultStore(tmp_path / "cache")
        cold = run_scenario(spec, store=filled)
        filled.close()
        (tmp_path / "cache" / "store.sqlite").write_bytes(b"\x00garbage" * 512)
        store = ResultStore(tmp_path / "cache")
        again = run_scenario(spec, store=store)
        assert again.executed_runs == 4 and again.cached_runs == 0
        assert [o.aggregate for o in again.cells] == [o.aggregate for o in cold.cells]
        warm = run_scenario(spec, store=store)
        assert warm.executed_runs == 0 and warm.cached_runs == 4


class TestSeedEngineFixturesThroughStore:
    @pytest.fixture(scope="class")
    def fixtures(self):
        with (FIXTURES / "seed_engine_fixtures.json").open() as handle:
            return json.load(handle)["fixtures"]

    def test_every_fixture_round_trips_bit_exactly(self, fixtures, tmp_path):
        store = ResultStore(tmp_path / "cache")
        for fixture in fixtures:
            case = fixture["case"]
            config = SimulationConfig(
                params=MiningParams(alpha=case["alpha"], gamma=case["gamma"]),
                schedule=SCHEDULES[case["schedule"]](),
                num_blocks=case["blocks"],
                seed=case["seed"],
                strategy="selfish" if case["selfish"] else "honest",
                warmup_blocks=case.get("warmup", 0),
            )
            (cold_result,), executed = execute_runs([(config, "chain")], store=store)
            assert executed == [0]
            (warm_result,), executed = execute_runs([(config, "chain")], store=store)
            assert executed == []
            expected = fixture["expected"]
            for result in (cold_result, warm_result):
                assert result.pool_rewards.as_dict() == expected["pool_rewards"]
                assert result.honest_rewards.as_dict() == expected["honest_rewards"]
                assert result.regular_blocks == expected["regular_blocks"]
                assert result.uncle_blocks == expected["uncle_blocks"]
                assert result.stale_blocks == expected["stale_blocks"]
                assert result.total_blocks == expected["total_blocks"]
                assert result.num_events == expected["num_events"]
                assert {
                    str(k): v for k, v in result.honest_uncle_distance_counts.items()
                } == expected["honest_uncle_distance_counts"]


class TestNetworkFixturesThroughStore:
    @pytest.fixture(scope="class")
    def fixtures(self):
        with (FIXTURES / "network_fixtures.json").open() as handle:
            return json.load(handle)["fixtures"]

    def _config(self, name: str) -> SimulationConfig:
        from repro.network.topology import multi_pool_topology, single_pool_topology

        if name == "single_selfish_exponential":
            return SimulationConfig(
                params=MiningParams(alpha=0.33, gamma=0.5),
                num_blocks=3000,
                seed=7,
                topology=single_pool_topology(
                    0.33, strategy="selfish", num_honest=4, latency="exponential:0.2"
                ),
            )
        return SimulationConfig(
            params=MiningParams(alpha=0.25, gamma=0.5),
            num_blocks=3000,
            seed=11,
            topology=multi_pool_topology(
                [(0.25, "selfish"), (0.2, "lead_stubborn")], num_honest=4, latency="constant:0.1"
            ),
        )

    @pytest.mark.parametrize("name", ["single_selfish_exponential", "two_pool_constant"])
    def test_fixture_round_trips_bit_exactly(self, fixtures, tmp_path, name):
        expected = fixtures[name]
        config = self._config(name)
        store = ResultStore(tmp_path / "cache")
        (cold,), executed = execute_runs([(config, "network")], store=store)
        assert executed == [0]
        (warm,), executed = execute_runs([(config, "network")], store=store)
        assert executed == []
        for result in (cold, warm):
            assert result.pool_rewards.total == expected["pool_total"]
            assert result.honest_rewards.total == expected["honest_total"]
            assert result.regular_blocks == expected["regular_blocks"]
            assert result.uncle_blocks == expected["uncle_blocks"]
            assert result.stale_blocks == expected["stale_blocks"]
            assert result.tie_wins == expected["tie_wins"]
            assert result.tie_losses == expected["tie_losses"]
            for miner in result.miners:
                assert miner.rewards.total == expected["miner_totals"][miner.name]


class TestOptimalFixturesThroughSweepEngine:
    """The ``run_many`` protocol the optimal fixture pins == one scenario cell."""

    @pytest.fixture(scope="class")
    def fixtures(self):
        with (FIXTURES / "optimal_fixtures.json").open() as handle:
            return json.load(handle)

    def test_pinned_aggregates_via_the_declarative_path(self, fixtures, tmp_path):
        pinned = fixtures["config"]
        spec = ScenarioSpec(
            name="optimal-fixture",
            alphas=(pinned["alpha"],),
            gammas=(pinned["gamma"],),
            strategies=("optimal",),
            backends=tuple(sorted(fixtures["backends"])),
            num_runs=pinned["runs"],
            num_blocks=pinned["num_blocks"],
            seed=pinned["seed"],
        )
        store = ResultStore(tmp_path / "cache")
        for sweep in (
            run_scenario(spec, store=store),
            run_scenario(spec, store=store),  # warm: same numbers from disk
        ):
            for outcome in sweep.cells:
                expected = fixtures["backends"][outcome.cell.backend]
                aggregate = outcome.aggregate
                first = aggregate.results[0]
                assert aggregate.relative_pool_revenue.mean == expected["relative_mean"]
                assert aggregate.relative_pool_revenue.std == expected["relative_std"]
                assert first.pool_rewards.total == expected["pool_total_run0"]
                assert first.honest_rewards.total == expected["honest_total_run0"]
                assert first.uncle_blocks == expected["uncle_blocks_run0"]
                assert first.stale_blocks == expected["stale_blocks_run0"]
        assert sweep.executed_runs == 0


class TestInterruptAndResume:
    def test_killed_batch_keeps_its_settled_runs_on_disk(self, tmp_path):
        """Results persist as they complete, not after the whole batch.

        A failure (stand-in for a kill) partway through a batch must leave the
        already-settled runs in the store so ``--resume`` only redoes the rest.
        """
        good = SimulationConfig(
            params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=800, seed=3
        )
        bad = SimulationConfig(
            params=MiningParams(alpha=0.3, gamma=0.5),
            num_blocks=800,
            seed=4,
            strategy="lead_stubborn",  # the markov backend raises for stubborn
        )
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(Exception):
            execute_runs([(good, "markov"), (bad, "markov")], store=store)
        assert store.contains(
            SIMULATION_NAMESPACE, store.result_key(good, "markov")
        ), "settled run was not persisted"
        (resumed,), executed = execute_runs([(good, "markov")], store=store)
        assert executed == []
        assert resumed.total_blocks == 800

    def test_resumed_sweep_equals_uncached_run(self, tmp_path):
        spec = ScenarioSpec(
            name="resume",
            alphas=(0.2, 0.3, 0.4),
            strategies=("honest", "selfish"),
            backends=("markov",),
            num_runs=2,
            num_blocks=1_500,
            seed=5,
        )
        store = ResultStore(tmp_path / "cache")
        partial = run_scenario(spec, store=store, max_cells=2)
        assert partial.skipped_cells == 4
        assert partial.executed_runs == 4
        resumed = run_scenario(spec, store=store)
        assert resumed.executed_runs == 8  # only the missing cells ran
        assert resumed.cached_runs == 4
        uncached = run_scenario(spec)
        assert [o.aggregate for o in resumed.cells] == [o.aggregate for o in uncached.cells]

    def test_max_cells_budget_is_not_spent_on_cached_cells(self, tmp_path):
        """Fully-cached cells ride along free under ``max_cells``.

        The budget exists to bound *computation*; charging it for cells the
        store already settles meant a resumed ``--max-cells N`` sweep made no
        forward progress once N cells were cached.  Each resume at the same
        budget must settle N *new* cells until the sweep completes.
        """
        spec = ScenarioSpec(
            name="budget",
            alphas=(0.2, 0.3, 0.4),
            strategies=("honest", "selfish"),
            backends=("markov",),
            num_runs=1,
            num_blocks=1_000,
            seed=5,
        )
        store = ResultStore(tmp_path / "cache")
        first = run_scenario(spec, store=store, max_cells=2)
        assert first.executed_runs == 2 and first.skipped_cells == 4
        second = run_scenario(spec, store=store, max_cells=2)
        assert second.executed_runs == 2 and second.cached_runs == 2
        assert second.skipped_cells == 2
        third = run_scenario(spec, store=store, max_cells=2)
        assert third.executed_runs == 2 and third.cached_runs == 4
        assert third.skipped_cells == 0 and third.complete
        assert [o.aggregate for o in third.cells] == [
            o.aggregate for o in run_scenario(spec).cells
        ]

    def test_aggregates_refused_while_cells_pending(self, tmp_path):
        from repro.errors import ExperimentError

        spec = ScenarioSpec(
            name="pending", alphas=(0.2, 0.3), backends=("markov",), num_blocks=1_000
        )
        partial = run_scenario(spec, store=ResultStore(tmp_path / "c"), max_cells=1)
        with pytest.raises(ExperimentError, match="still pending"):
            partial.aggregates()

    def test_parallel_sweep_is_bit_identical_to_serial(self, tmp_path):
        spec = ScenarioSpec(
            name="parallel",
            alphas=(0.2, 0.35),
            strategies=("honest", "selfish"),
            backends=("markov",),
            num_runs=2,
            num_blocks=1_500,
            seed=9,
        )
        serial = run_scenario(spec, max_workers=1)
        parallel = run_scenario(spec, max_workers=4)
        assert [o.aggregate for o in serial.cells] == [o.aggregate for o in parallel.cells]
