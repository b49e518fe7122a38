"""Edge-by-edge oracle for the reward rows :class:`RevenueModel` folds.

The model computes each distinct Appendix-B row once per parameter point and
gathers it per transition of its lumped chain.  Every gathered row must equal
the per-record view, :func:`transition_rewards` on that edge with that point's
own rate, value for value, also when two points alternate on one model.

The module needs neither scipy nor the test oracles, so it also runs where only
numpy is installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import revenue as revenue_module
from repro.analysis.revenue import RevenueModel
from repro.analysis.reward_cases import fold_rewards, transition_rewards
from repro.errors import ParameterError
from repro.markov.transitions import SelfishTransition
from repro.params import MiningParams
from repro.rewards.schedule import CustomSchedule, make_schedule

ALPHAS = (1e-4, 0.3, 0.4995)
GAMMAS = (0.0, 0.5, 1.0)
#: The point every grid point alternates with on the same model.
OTHER = MiningParams(alpha=0.2, gamma=0.7)


def alternating_points() -> list[MiningParams]:
    grid = [MiningParams(alpha=alpha, gamma=gamma) for alpha in ALPHAS for gamma in GAMMAS]
    return [point for params in grid for point in (params, OTHER)]


def expected_rows(model: RevenueModel, params: MiningParams, indices):
    """Each edge's component vector and distance contributions from its own record."""
    edges = model.chain.edges
    rates = model.chain.rates(params)
    for k in indices:
        source, target, kind = edges[k]
        record = transition_rewards(SelfishTransition(source, target, rates[k], kind), params, model.schedule)
        yield record.component_vector(), record.distance_contributions()


@pytest.mark.parametrize("max_lead", [2, 60])
@pytest.mark.parametrize("schedule", ["ethereum", "bitcoin", "flat:0.5"])
class TestGatheredRows:
    def test_every_edge_gathers_its_own_record(self, schedule, max_lead):
        model = RevenueModel(make_schedule(schedule), max_lead=max_lead)
        edges = range(len(model.chain.edges))
        for params in alternating_points():
            components, distance_rows = model.rewards.gather(params, np.arange(len(edges)))
            assert components.shape[0] == len(distance_rows) == len(edges)
            for k, (vector, distances) in enumerate(expected_rows(model, params, edges)):
                assert tuple(components[k].tolist()) == vector, (k, model.chain.edges[k])
                assert tuple(distance_rows[k]) == distances, (k, model.chain.edges[k])

    def test_the_fold_receives_every_live_edges_own_record(self, schedule, max_lead, monkeypatch):
        folded = []

        def spy(weights, components, distance_rows):
            folded.append((weights, components, distance_rows))
            return fold_rewards(weights, components, distance_rows)

        monkeypatch.setattr(revenue_module, "fold_rewards", spy)
        model = RevenueModel(make_schedule(schedule), max_lead=max_lead)
        chain = model.chain
        for params in alternating_points():
            folded.clear()
            model.revenue_rates(params)
            ((weights, components, distance_rows),) = folded
            rates = chain.rates(params)
            probabilities, _ = chain.solve(rates)
            live = [k for k, rate in enumerate(rates) if probabilities[chain.sources[k]] * rate]
            # With 0 < gamma < 1 every rate is positive.  At max_lead 2 no lead
            # reaches 3, so the forked lead-2 class is never visited: its three
            # transitions weigh 0 and are not folded.
            if 0.0 < params.gamma < 1.0:
                assert len(live) == len(chain.edges) - (3 if max_lead == 2 else 0)
            assert weights == [probabilities[chain.sources[k]] * rates[k] for k in live]
            assert len(components) == len(distance_rows) == len(live)
            for row, (vector, distances) in enumerate(expected_rows(model, params, live)):
                assert tuple(components[row].tolist()) == vector
                assert tuple(distance_rows[row]) == distances

    def test_rows_are_shared_by_case_formula_and_distance(self, schedule, max_lead):
        model = RevenueModel(make_schedule(schedule), max_lead=max_lead)
        # Six distance-free or distance-1 rows, plus one per uncle distance 2..max_lead.
        assert len(np.unique(model.rewards.key_index)) == 6 + (max_lead - 1)
        assert len(model.rewards.key_index) == len(model.chain.edges)


class TestScheduleErrors:
    """A schedule is resolved once per uncle distance, when the model is built."""

    @pytest.mark.parametrize("uncle, nephew", [(-1.0, 0.0), (0.0, -1.0)], ids=["uncle", "nephew"])
    def test_a_negative_reward_inside_the_window_fails_at_construction(self, uncle, nephew):
        schedule = CustomSchedule(uncle_fn=lambda d: uncle, nephew_fn=lambda d: nephew)
        with pytest.raises(ParameterError, match="must be non-negative"):
            RevenueModel(schedule, max_lead=60)

    def test_only_distances_the_chain_reaches_are_resolved(self):
        # Lead 5 is beyond a max_lead of 2, so no transition has uncle distance 5.
        schedule = CustomSchedule(uncle_fn=lambda d: -1.0 if d == 5 else 0.5, nephew_fn=lambda d: 0.01)
        RevenueModel(schedule, max_lead=2).revenue_rates(MiningParams(alpha=0.3, gamma=0.5))
        with pytest.raises(ParameterError):
            RevenueModel(schedule, max_lead=60)

    def test_a_distance_outside_the_window_never_calls_the_callable(self):
        calls = []

        def reward(value):
            def callable_(distance):
                calls.append(distance)
                assert distance <= 3, f"called outside the window at distance {distance}"
                return value

            return callable_

        schedule = CustomSchedule(uncle_fn=reward(0.5), nephew_fn=reward(0.01), max_uncle_distance=3)
        model = RevenueModel(schedule, max_lead=60)
        # One uncle and one nephew call per distance in the window, all at construction.
        assert sorted(calls) == [1, 1, 2, 2, 3, 3]
        rates = model.revenue_rates(MiningParams(alpha=0.3, gamma=0.5))
        assert len(calls) == 6
        assert set(rates.honest_uncle_distance_rates) == {1, 2, 3}
