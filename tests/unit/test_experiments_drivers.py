"""Unit tests for the figure/table experiment drivers (fast-fidelity runs)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ParameterError
from repro.experiments.discussion import run_discussion
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import figure9_schedules, run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.network import run_network
from repro.experiments.optimal import run_optimal
from repro.experiments.strategies import run_strategy_comparison
from repro.experiments.table2 import run_table2
from repro.simulation.metrics import MeanStd


class TestOptimalFrontierDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_optimal(fast=True, simulation_blocks=2000, simulation_runs=1)

    def test_fast_grid_covers_one_gamma(self, result):
        assert result.gammas == (0.5,)
        assert len(result.alphas) >= 2
        assert set(result.cells) == {(alpha, 0.5) for alpha in result.alphas}

    def test_optimal_dominates_both_corners_in_every_cell(self, result):
        for cell in result.cells.values():
            assert cell.advantage >= -1e-9

    def test_threshold_detected_and_policy_labels_flip(self, result):
        threshold = result.threshold_alpha(0.5)
        assert threshold is not None
        for alpha in result.alphas:
            label = result.cell(alpha, 0.5).policy.policy_label()
            assert label == ("honest" if alpha < threshold else "selfish")

    def test_simulation_sections_cover_the_grid(self, result):
        assert len(result.simulated_optimal) == len(result.alphas)
        assert result.simulated_catalogue is not None
        for aggregates in result.simulated_catalogue.values():
            assert len(aggregates) == len(result.alphas)

    def test_report_renders_every_section(self, result):
        text = result.report()
        assert "Best withhold/override policy on pool events" in text
        assert "Policy structure" in text
        assert "solver vs chain simulation" in text
        assert "stubborn catalogue" in text
        assert "profitability threshold" in text

    def test_one_run_cells_print_no_spread(self, result):
        # A standard deviation from one run is undefined, not zero.
        rows = self._validation_rows(result.report())
        assert rows and all(row[-2:] == ["n/a", "1"] for row in rows)

    def test_cells_with_two_runs_print_their_spread(self, result):
        two_runs = tuple(
            dataclasses.replace(
                aggregate,
                relative_pool_revenue=MeanStd(aggregate.relative_pool_revenue.mean, 0.0123, 2),
            )
            for aggregate in result.simulated_optimal
        )
        rows = self._validation_rows(dataclasses.replace(result, simulated_optimal=two_runs).report())
        assert rows and all(row[-2:] == ["0.0123", "2"] for row in rows)

    @staticmethod
    def _validation_rows(report: str) -> list[list[str]]:
        section = report.split("solver vs chain simulation")[1].split("\n\n")[0]
        return [line.split() for line in section.splitlines()[3:]]

    def test_markov_backend_rejected_for_the_catalogue_section(self):
        with pytest.raises(ParameterError, match="markov"):
            run_optimal(fast=True, simulation_backend="markov")

    def test_markov_backend_accepted_without_the_catalogue_section(self):
        result = run_optimal(
            fast=True,
            simulation_backend="markov",
            include_catalogue=False,
            simulation_blocks=2000,
        )
        assert result.simulated_catalogue is None
        assert len(result.simulated_optimal) == len(result.alphas)
        assert "markov simulation" in result.report()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            run_optimal(simulation_backend="quantum")

    def test_non_default_truncation_requires_disabling_the_validation_section(self):
        with pytest.raises(ParameterError, match="max_lead"):
            run_optimal(fast=True, max_lead=12)
        result = run_optimal(
            fast=True, max_lead=12, include_simulation=False, include_catalogue=False
        )
        assert result.max_lead == 12
        assert result.simulated_optimal == ()


class TestFigure8Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure8(fast=True, include_simulation=True, simulation_blocks=4000, simulation_runs=1)

    def test_analysis_and_simulation_cover_the_same_grid(self, result):
        assert result.simulation is not None
        assert result.alphas == result.simulation.alphas

    def test_simulation_tracks_analysis(self, result):
        simulated = result.simulation.pool_absolute_scenario1()
        for point, value in zip(result.analysis.points, simulated):
            assert value == pytest.approx(point.pool_absolute, abs=0.05)

    def test_report_contains_series_and_crossover_note(self, result):
        text = result.report()
        assert "Figure 8" in text
        assert "0.163" in text

    def test_analysis_only_mode(self):
        result = run_figure8(fast=True, include_simulation=False)
        assert result.simulation is None
        assert "simulation" not in result.report().splitlines()[1]


class TestFigure9Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(fast=True)

    def test_four_schedules_compared(self, result):
        assert set(result.sweeps) == set(figure9_schedules())

    def test_larger_uncle_rewards_pay_more(self, result):
        final_index = len(result.alphas) - 1
        small = result.sweeps["Ku=2/8"].points[final_index]
        large = result.sweeps["Ku=7/8"].points[final_index]
        assert large.pool_absolute > small.pool_absolute
        assert large.total_absolute > small.total_absolute

    def test_ethereum_schedule_tracks_seven_eighths_for_the_pool(self, result):
        final_index = len(result.alphas) - 1
        ethereum = result.sweeps["Ku(.)"].points[final_index]
        seven_eighths = result.sweeps["Ku=7/8"].points[final_index]
        assert ethereum.pool_absolute == pytest.approx(seven_eighths.pool_absolute, rel=0.02)

    def test_total_revenue_inflates_with_alpha(self, result):
        totals = result.sweeps["Ku=7/8"].total_absolute
        assert totals[-1] > totals[0]
        assert totals[-1] > 1.05

    def test_report_renders(self, result):
        text = result.report()
        assert "Figure 9" in text
        assert "Ku=7/8 total" in text


class TestFigure10Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10(gammas=[0.0, 0.5, 1.0], max_lead=25)

    def test_scenario1_below_bitcoin_everywhere(self, result):
        for point in result.points:
            assert point.ethereum_scenario1.alpha_star <= point.bitcoin + 1e-6

    def test_scenario2_above_scenario1(self, result):
        for point in result.points:
            assert point.ethereum_scenario2.alpha_star >= point.ethereum_scenario1.alpha_star

    def test_all_thresholds_vanish_at_gamma_one(self, result):
        last = result.points[-1]
        assert last.bitcoin == pytest.approx(0.0)
        assert last.ethereum_scenario1.alpha_star == pytest.approx(0.0, abs=5e-3)
        assert last.ethereum_scenario2.alpha_star == pytest.approx(0.0, abs=5e-3)

    def test_report_renders_all_gammas(self, result):
        text = result.report()
        assert "Figure 10" in text
        for gamma in result.gammas:
            assert f"{gamma:.4f}" in text


class TestTable2Driver:
    def test_analysis_columns_reproduce_paper_values(self):
        result = run_table2(fast=True, include_simulation=False)
        first = result.columns[0]
        assert first.analysis.probability(1) == pytest.approx(0.527, abs=0.01)
        second = result.columns[1]
        assert second.analysis.expectation == pytest.approx(2.72, abs=0.05)

    def test_report_contains_expectation_row(self):
        text = run_table2(fast=True, include_simulation=False).report()
        assert "Expectation" in text
        assert "Table II" in text

    def test_simulation_overlay_close_to_analysis(self):
        result = run_table2(
            alphas=(0.3,), include_simulation=True, simulation_blocks=8000, simulation_runs=1, max_lead=30
        )
        column = result.columns[0]
        assert column.simulated is not None
        assert column.simulated.get(1, 0.0) == pytest.approx(column.analysis.probability(1), abs=0.08)


class TestStrategyComparisonDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_strategy_comparison(
            alphas=(0.15, 0.40),
            simulation_blocks=2500,
            simulation_runs=1,
        )

    def test_covers_all_default_strategies_and_grid(self, result):
        assert result.strategies == ("honest", "selfish", "lead_stubborn", "equal_fork_stubborn")
        assert result.alphas == (0.15, 0.40)
        for strategy in result.strategies:
            assert len(result.relative_revenue(strategy)) == 2

    def test_honest_row_tracks_fair_share(self, result):
        for alpha, revenue in zip(result.alphas, result.relative_revenue("honest")):
            assert revenue == pytest.approx(alpha, abs=0.04)

    def test_large_selfish_pool_beats_honest(self, result):
        assert result.relative_revenue("selfish")[-1] > result.relative_revenue("honest")[-1]
        assert result.crossover_alpha("selfish") == pytest.approx(0.40)

    def test_honest_has_no_crossover(self, result):
        assert result.crossover_alpha("honest") is None

    def test_report_renders_one_column_per_strategy(self, result):
        text = result.report()
        assert "Strategy comparison" in text
        for strategy in result.strategies:
            assert strategy.replace("_", " ") in text

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParameterError):
            run_strategy_comparison(strategies=("quantum",), alphas=(0.3,))

    def test_markov_backend_rejected_for_stubborn_strategies_up_front(self):
        with pytest.raises(ParameterError, match="no transition model"):
            run_strategy_comparison(simulation_backend="markov", alphas=(0.3,))

    def test_markov_backend_accepted_for_supported_strategies(self):
        result = run_strategy_comparison(
            strategies=("honest", "selfish"),
            alphas=(0.3,),
            simulation_blocks=2000,
            simulation_runs=1,
            simulation_backend="markov",
        )
        assert result.backend == "markov"
        assert result.relative_revenue("honest")[0] == pytest.approx(0.3, abs=0.04)

    def test_fast_mode_shrinks_the_run(self):
        result = run_strategy_comparison(fast=True, strategies=("selfish",))
        assert len(result.alphas) <= 3


class TestFigure9SimulationOverlay:
    def test_overlay_tracks_the_ethereum_analysis(self):
        result = run_figure9(
            alphas=(0.3,),
            include_simulation=True,
            simulation_blocks=5000,
            simulation_runs=1,
            simulation_backend="markov",
            max_lead=30,
        )
        assert result.simulation is not None
        analytical = result.sweeps["Ku(.)"].points[0].pool_absolute
        simulated = result.simulation.pool_absolute_scenario1()[0]
        assert simulated == pytest.approx(analytical, abs=0.05)
        assert "Ku(.) pool (sim)" in result.report()

    def test_default_is_analysis_only(self):
        result = run_figure9(fast=True)
        assert result.simulation is None


class TestFigure10Workers:
    def test_parallel_solve_matches_serial(self):
        serial = run_figure10(gammas=[0.2, 0.8], max_lead=25, max_workers=1)
        parallel = run_figure10(gammas=[0.2, 0.8], max_lead=25, max_workers=2)
        for first, second in zip(serial.points, parallel.points):
            assert first.ethereum_scenario1.alpha_star == second.ethereum_scenario1.alpha_star
            assert first.ethereum_scenario2.alpha_star == second.ethereum_scenario2.alpha_star


class TestNetworkDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_network(
            latency_means=(0.0, 0.4),
            two_pool_grid=((0.2, 0.2),),
            simulation_blocks=4000,
            simulation_runs=2,
            max_lead=30,
        )

    def test_zero_latency_point_recovers_the_configured_gamma(self, result):
        first = result.latency_points[0]
        assert first.mean_delay == 0.0
        assert first.effective_gamma.mean == pytest.approx(result.gamma, abs=0.12)

    def test_latency_erodes_effective_gamma(self, result):
        gammas = result.effective_gammas()
        assert gammas[-1] < gammas[0]

    def test_model_closes_the_loop_at_the_measured_gamma(self, result):
        for point in result.latency_points:
            assert point.predicted_revenue is not None
            assert point.relative_revenue.mean == pytest.approx(
                point.predicted_revenue, abs=0.05
            )

    def test_two_pool_shares_are_consistent(self, result):
        point = result.two_pool_points[0]
        total = point.pool_revenues[0].mean + point.pool_revenues[1].mean
        assert 0.0 < total < 1.0
        assert point.honest_revenue == pytest.approx(1.0 - total)

    def test_report_renders_both_tables(self, result):
        text = result.report()
        assert "emergent tie-breaking" in text
        assert "two selfish pools" in text
        assert "effective gamma" in text

    def test_fast_mode_shrinks_the_grids(self):
        result = run_network(fast=True)
        assert len(result.latency_points) <= 3
        assert len(result.two_pool_points) <= 1

    def test_parallel_runs_match_serial(self):
        serial = run_network(
            latency_means=(0.1,), two_pool_grid=(), simulation_blocks=1500,
            simulation_runs=2, max_lead=25, max_workers=1,
        )
        parallel = run_network(
            latency_means=(0.1,), two_pool_grid=(), simulation_blocks=1500,
            simulation_runs=2, max_lead=25, max_workers=2,
        )
        assert (
            serial.latency_points[0].relative_revenue.mean
            == parallel.latency_points[0].relative_revenue.mean
        )


class TestDiscussionDriver:
    @pytest.fixture(scope="class")
    def result(self):
        # Serial, so test_parallel_solve_matches_serial compares against it.
        return run_discussion(fast=True, max_workers=1)

    def test_proposal_raises_both_thresholds(self, result):
        assert result.improvement_scenario1() > 0.05
        assert result.improvement_scenario2() > 0.05

    def test_threshold_values_match_paper(self, result):
        assert result.current_scenario1.alpha_star == pytest.approx(0.054, abs=0.01)
        assert result.proposed_scenario1.alpha_star == pytest.approx(0.163, abs=0.01)
        assert result.current_scenario2.alpha_star == pytest.approx(0.270, abs=0.02)
        assert result.proposed_scenario2.alpha_star == pytest.approx(0.356, abs=0.02)

    def test_report_quotes_paper_numbers(self, result):
        text = result.report()
        assert "0.054" in text and "0.163" in text

    def test_parallel_solve_matches_serial(self, result):
        parallel = run_discussion(fast=True, max_workers=2)
        assert parallel.current_scenario1.alpha_star == result.current_scenario1.alpha_star
        assert parallel.proposed_scenario2.alpha_star == result.proposed_scenario2.alpha_star
