"""Unit tests for the pluggable mining-strategy layer."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ParameterError
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import RaceState
from repro.strategies import (
    Action,
    EqualForkStubbornStrategy,
    HonestStrategy,
    LeadEqualForkStubbornStrategy,
    LeadStubbornStrategy,
    MiningStrategy,
    RaceView,
    SelfishStrategy,
    available_strategies,
    make_strategy,
    register_strategy,
)

PARAMS = MiningParams(alpha=0.3, gamma=0.5)


def _registry_config() -> SimulationConfig:
    """A small run configuration for exercising configuration-aware factories."""
    return SimulationConfig(params=PARAMS, num_blocks=100, seed=1)


def race(private: int, published: int, public: int) -> RaceState:
    """A race view with the given ``(Ls, published, Lh)`` bookkeeping."""
    return RaceState(
        root_id=0,
        pool_branch=list(range(1, private + 1)),
        published_count=published,
        honest_branch=list(range(100, 100 + public)),
    )


class TestRegistry:
    def test_catalogue_is_registered(self):
        assert set(available_strategies()) >= {
            "honest",
            "selfish",
            "lead_stubborn",
            "equal_fork_stubborn",
            "lead_equal_fork_stubborn",
        }

    def test_make_strategy_returns_the_named_strategy(self):
        assert isinstance(make_strategy("selfish"), SelfishStrategy)
        assert isinstance(make_strategy("honest"), HonestStrategy)

    def test_unknown_name_rejected_with_catalogue(self):
        with pytest.raises(ParameterError, match="available"):
            make_strategy("nonsense")

    def test_unknown_name_error_lists_every_registered_strategy(self):
        with pytest.raises(ParameterError) as excinfo:
            make_strategy("nonsense")
        message = str(excinfo.value)
        assert "unknown mining strategy 'nonsense'" in message
        for name in available_strategies():
            assert name in message

    def test_unknown_name_in_config_error_lists_every_registered_strategy(self):
        with pytest.raises(ParameterError) as excinfo:
            SimulationConfig(params=PARAMS, num_blocks=10, strategy="nonsense")
        message = str(excinfo.value)
        for name in available_strategies():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError):
            register_strategy("selfish", SelfishStrategy)

    def test_strategies_satisfy_the_protocol(self):
        # A run configuration is passed through for configuration-aware
        # factories ("optimal" solves its policy per parameter point); the
        # stateless catalogue strategies ignore it.
        config = _registry_config()
        for name in available_strategies():
            strategy = make_strategy(name, config=config)
            assert isinstance(strategy, MiningStrategy)
            assert strategy.name == name

    def test_strategies_are_stateless_value_objects(self):
        config = _registry_config()
        for name in available_strategies():
            strategy = make_strategy(name, config=config)
            assert strategy == make_strategy(name, config=config)
            assert pickle.loads(pickle.dumps(strategy)) == strategy

    def test_race_state_satisfies_race_view(self):
        assert isinstance(race(2, 1, 1), RaceView)


class TestSelfishDecisions:
    """Algorithm 1 of the paper, expressed as pure decisions."""

    strategy = SelfishStrategy()

    def test_keeps_withholding_with_no_race(self):
        assert self.strategy.after_pool_block(race(1, 0, 0)) is Action.WITHHOLD
        assert self.strategy.after_pool_block(race(3, 0, 0)) is Action.WITHHOLD

    def test_takes_the_win_from_the_one_one_tie(self):
        assert self.strategy.after_pool_block(race(2, 1, 1)) is Action.OVERRIDE

    def test_races_on_from_longer_ties(self):
        # Algorithm 1 only takes the mining win from the 1-1 tie.
        assert self.strategy.after_pool_block(race(3, 2, 2)) is Action.WITHHOLD

    def test_adopts_when_behind(self):
        assert self.strategy.after_honest_block(race(0, 0, 1)) is Action.ADOPT
        assert self.strategy.after_honest_block(race(1, 1, 2)) is Action.ADOPT

    def test_matches_when_equal(self):
        assert self.strategy.after_honest_block(race(1, 0, 1)) is Action.MATCH
        assert self.strategy.after_honest_block(race(2, 1, 2)) is Action.MATCH

    def test_overrides_when_lead_shrinks_to_one(self):
        assert self.strategy.after_honest_block(race(2, 0, 1)) is Action.OVERRIDE
        assert self.strategy.after_honest_block(race(3, 1, 2)) is Action.OVERRIDE

    def test_publishes_one_when_lead_remains_large(self):
        assert self.strategy.after_honest_block(race(4, 0, 1)) is Action.PUBLISH
        assert self.strategy.after_honest_block(race(5, 1, 2)) is Action.PUBLISH


class TestHonestDecisions:
    strategy = HonestStrategy()

    def test_publishes_every_own_block_immediately(self):
        assert self.strategy.after_pool_block(race(1, 0, 0)) is Action.OVERRIDE

    def test_adopts_every_honest_block(self):
        assert self.strategy.after_honest_block(race(0, 0, 1)) is Action.ADOPT


class TestStubbornDecisions:
    def test_lead_stubborn_never_overrides_on_honest_blocks(self):
        strategy = LeadStubbornStrategy()
        # Where selfish would override (lead shrunk to one), L only matches.
        assert strategy.after_honest_block(race(2, 0, 1)) is Action.MATCH
        assert strategy.after_honest_block(race(3, 1, 2)) is Action.MATCH
        assert strategy.after_honest_block(race(4, 0, 1)) is Action.MATCH
        assert strategy.after_honest_block(race(0, 0, 1)) is Action.ADOPT
        # It still takes the win when its own block breaks the 1-1 tie.
        assert strategy.after_pool_block(race(2, 1, 1)) is Action.OVERRIDE

    def test_equal_fork_stubborn_keeps_racing_from_the_tie(self):
        strategy = EqualForkStubbornStrategy()
        # Where selfish would take the win from the 1-1 tie, F keeps withholding.
        assert strategy.after_pool_block(race(2, 1, 1)) is Action.WITHHOLD
        # Its honest-block reactions are Algorithm 1's.
        assert strategy.after_honest_block(race(2, 0, 1)) is Action.OVERRIDE
        assert strategy.after_honest_block(race(1, 0, 1)) is Action.MATCH
        assert strategy.after_honest_block(race(0, 0, 1)) is Action.ADOPT

    def test_lead_equal_fork_combines_both_deviations(self):
        strategy = LeadEqualForkStubbornStrategy()
        assert strategy.after_pool_block(race(2, 1, 1)) is Action.WITHHOLD
        assert strategy.after_honest_block(race(2, 0, 1)) is Action.MATCH
        assert strategy.after_honest_block(race(0, 0, 1)) is Action.ADOPT


class TestEngineConstraint:
    def test_unmatched_honest_branch_raises_a_named_error(self):
        """A strategy that withholds through honest blocks (trail-stubborn style)
        is not supported by the current engine; the violation must surface as a
        clear error naming the strategy, not as silent corruption."""
        from dataclasses import dataclass

        from repro.errors import SimulationError
        from repro.simulation.engine import ChainSimulator

        @dataclass(frozen=True)
        class TrailStubbornLike:
            name: str = "trail_stubborn_like"

            def after_pool_block(self, race) -> Action:
                return Action.WITHHOLD

            def after_honest_block(self, race) -> Action:
                return Action.WITHHOLD

        config = SimulationConfig(params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=50, seed=1)
        simulator = ChainSimulator(config, strategy=TrailStubbornLike())
        with pytest.raises(SimulationError, match="trail_stubborn_like"):
            simulator.run()


class TestConfigIntegration:
    def test_strategy_field_resolves(self):
        config = SimulationConfig(params=PARAMS, strategy="lead_stubborn")
        assert config.strategy_name == "lead_stubborn"
        assert isinstance(config.make_strategy(), LeadStubbornStrategy)

    def test_explicit_strategy_wins_over_default_flag(self):
        config = SimulationConfig(params=PARAMS, strategy="honest")
        assert config.strategy_name == "honest"
        assert isinstance(config.make_strategy(), HonestStrategy)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParameterError, match="unknown mining strategy"):
            SimulationConfig(params=PARAMS, strategy="quantum")

    def test_with_strategy_keeps_other_fields(self):
        config = SimulationConfig(params=PARAMS, num_blocks=500, seed=3)
        copy = config.with_strategy("equal_fork_stubborn")
        assert copy.strategy_name == "equal_fork_stubborn"
        assert copy.num_blocks == 500
        assert copy.seed == 3

    def test_describe_mentions_the_strategy(self):
        text = SimulationConfig(params=PARAMS, strategy="lead_stubborn").describe()
        assert "lead_stubborn" in text
