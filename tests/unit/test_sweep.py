"""Unit tests for the parameter-sweep helpers."""

from __future__ import annotations

import pytest

from repro.analysis.absolute import Scenario
from repro.analysis.sweep import AlphaSweep, alpha_grid, sweep_alpha
from repro.rewards.schedule import FlatUncleSchedule


class TestGrids:
    def test_alpha_grid_covers_the_paper_axis(self):
        grid = alpha_grid(0.0, 0.45, 0.05)
        assert len(grid) == 10
        assert grid[-1] == pytest.approx(0.45)

    def test_alpha_grid_avoids_exact_zero(self):
        assert alpha_grid(0.0, 0.1, 0.05)[0] > 0.0

    def test_alpha_grid_rejects_bad_step(self):
        with pytest.raises(ValueError):
            alpha_grid(0.0, 0.4, 0.0)

class TestAlphaSweep:
    @pytest.fixture(scope="class")
    def sweep(self) -> AlphaSweep:
        return sweep_alpha(
            [0.1, 0.2, 0.3, 0.4],
            gamma=0.5,
            schedule=FlatUncleSchedule(0.5),
            scenario=Scenario.REGULAR_ONLY,
            max_lead=30,
        )

    def test_one_point_per_alpha(self, sweep):
        assert sweep.alphas == pytest.approx([0.1, 0.2, 0.3, 0.4])
        assert len(sweep.points) == 4

    def test_pool_revenue_increases_with_alpha(self, sweep):
        values = sweep.pool_absolute
        assert values == sorted(values)

    def test_honest_revenue_decreases_with_alpha(self, sweep):
        values = sweep.honest_absolute
        assert values == sorted(values, reverse=True)

    def test_totals_are_sum_of_parties(self, sweep):
        for point in sweep.points:
            assert point.total_absolute == pytest.approx(point.pool_absolute + point.honest_absolute)

    def test_crossover_close_to_paper_threshold(self, sweep):
        # With the 0.1 grid the first profitable point is 0.2 (threshold is 0.163).
        assert sweep.crossover_alpha() == pytest.approx(0.2)

    def test_metadata(self, sweep):
        assert sweep.gamma == 0.5
        assert sweep.scenario is Scenario.REGULAR_ONLY
        assert sweep.schedule_name == "FlatUncleSchedule"
