"""Unit tests for :class:`repro.strategies.optimal.OptimalStrategy` and its factory."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ParameterError
from repro.markov.state import State
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import RaceState
from repro.strategies import (
    Action,
    OptimalStrategy,
    SelfishStrategy,
    make_strategy,
    solve_optimal_strategy,
)

PARAMS = MiningParams(alpha=0.35, gamma=0.5)

#: Algorithm 1 as a policy table: override only at the forced (1, 1) tie-break.
SELFISH_TABLE = (State(1, 1).encode(),)


def race(private: int, published: int, public: int) -> RaceState:
    return RaceState(
        root_id=0,
        pool_branch=list(range(1, private + 1)),
        published_count=published,
        honest_branch=list(range(100, 100 + public)),
    )


class TestPolicyTable:
    def test_selfish_table_reproduces_algorithm_1_decisions(self):
        strategy = OptimalStrategy(override_codes=SELFISH_TABLE)
        selfish = SelfishStrategy()
        views = [
            race(1, 0, 0),  # first withheld block
            race(2, 0, 0),  # building the lead
            race(2, 1, 1),  # the 1-1 tie break
            race(5, 1, 1),  # deep lead
            race(3, 2, 2),  # answering honest blocks mid-race
        ]
        for view in views:
            assert strategy.after_pool_block(view) is selfish.after_pool_block(view)
            assert strategy.after_honest_block(view) is selfish.after_honest_block(view)

    def test_override_at_origin_is_honest_mining(self):
        strategy = OptimalStrategy(override_codes=(State(0, 0).encode(), State(1, 1).encode()))
        # Fresh block from (0, 0): publish immediately and claim the (empty) race.
        assert strategy.after_pool_block(race(1, 0, 0)) is Action.OVERRIDE

    def test_override_table_consulted_on_the_source_state(self):
        # Override after mining *from* (2, 0), i.e. at the race view (3, 0).
        strategy = OptimalStrategy(
            override_codes=tuple(sorted({State(1, 1).encode(), State(2, 0).encode()}))
        )
        assert strategy.after_pool_block(race(3, 0, 0)) is Action.OVERRIDE
        assert strategy.after_pool_block(race(2, 0, 0)) is Action.WITHHOLD

    def test_table_is_consulted_by_class_representative(self):
        # (4, 1) stands for every forked state at lead 3: (6, 3) is one of them.
        strategy = OptimalStrategy(
            override_codes=tuple(sorted({State(1, 1).encode(), State(4, 1).encode()}))
        )
        assert strategy.overrides_at(State(6, 3))
        assert strategy.after_pool_block(race(7, 3, 3)) is Action.OVERRIDE
        # The unforked lead-3 class is another class.
        assert strategy.after_pool_block(race(4, 0, 0)) is Action.WITHHOLD

    def test_unencodable_source_falls_back_to_withhold(self):
        strategy = OptimalStrategy(override_codes=SELFISH_TABLE)
        # View (3, 5) (possible under network latency) comes from (2, 5), which is
        # not a reachable state: Algorithm 1's withhold is the safe default.
        assert strategy.after_pool_block(race(3, 0, 5)) is Action.WITHHOLD

    def test_honest_block_reactions_are_algorithm_1(self):
        strategy = OptimalStrategy(override_codes=SELFISH_TABLE)
        assert strategy.after_honest_block(race(0, 0, 1)) is Action.ADOPT
        assert strategy.after_honest_block(race(1, 0, 1)) is Action.MATCH
        assert strategy.after_honest_block(race(2, 0, 1)) is Action.OVERRIDE
        assert strategy.after_honest_block(race(5, 1, 2)) is Action.PUBLISH

    def test_malformed_tables_rejected(self):
        with pytest.raises(ParameterError, match="sorted"):
            OptimalStrategy(override_codes=(3, 2))
        with pytest.raises(ParameterError, match="sorted"):
            OptimalStrategy(override_codes=(2, 2))
        with pytest.raises(ParameterError, match="non-negative"):
            OptimalStrategy(override_codes=(-1,))

    def test_value_object_semantics(self):
        strategy = OptimalStrategy(override_codes=SELFISH_TABLE)
        assert strategy == OptimalStrategy(override_codes=SELFISH_TABLE)
        assert hash(strategy) == hash(OptimalStrategy(override_codes=SELFISH_TABLE))
        assert strategy != OptimalStrategy(override_codes=(0, 2))
        restored = pickle.loads(pickle.dumps(strategy))
        assert restored == strategy
        assert restored.after_pool_block(race(2, 1, 1)) is Action.OVERRIDE


class TestFactory:
    def test_make_strategy_without_config_raises_with_guidance(self):
        with pytest.raises(ParameterError, match="SimulationConfig"):
            make_strategy("optimal")

    def test_config_make_strategy_solves_for_the_run_parameters(self):
        config = SimulationConfig(params=PARAMS, num_blocks=100, seed=1, strategy="optimal")
        strategy = config.make_strategy()
        assert isinstance(strategy, OptimalStrategy)
        assert strategy.name == "optimal"
        # Above the profitability threshold the solved table is Algorithm 1.
        assert strategy == solve_optimal_strategy(PARAMS)

    def test_solved_strategy_is_honest_below_the_threshold(self):
        strategy = solve_optimal_strategy(MiningParams(alpha=0.1, gamma=0.5))
        assert strategy.overrides_at(State(0, 0))
        assert strategy.after_pool_block(race(1, 0, 0)) is Action.OVERRIDE
