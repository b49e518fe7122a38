"""Unit tests for :mod:`repro.simulation.config`."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig

PARAMS = MiningParams(alpha=0.3, gamma=0.5)


class TestDefaults:
    def test_paper_defaults(self):
        config = SimulationConfig(params=PARAMS)
        assert config.num_blocks == 100_000
        assert config.num_honest_miners == 999
        assert config.strategy_name == "selfish"
        assert config.max_uncles_per_block == 2
        assert config.max_uncle_distance == 6
        assert isinstance(config.schedule, EthereumByzantiumSchedule)

    def test_describe_mentions_mode_and_schedule(self):
        text = SimulationConfig(params=PARAMS, strategy="honest").describe()
        assert "honest" in text
        assert "EthereumByzantiumSchedule" in text


class TestValidation:
    def test_rejects_non_positive_block_count(self):
        with pytest.raises(ParameterError):
            SimulationConfig(params=PARAMS, num_blocks=0)

    def test_rejects_non_positive_honest_miner_count(self):
        with pytest.raises(ParameterError):
            SimulationConfig(params=PARAMS, num_honest_miners=0)

    def test_rejects_negative_protocol_limits(self):
        with pytest.raises(ParameterError):
            SimulationConfig(params=PARAMS, max_uncles_per_block=-1)
        with pytest.raises(ParameterError):
            SimulationConfig(params=PARAMS, max_uncle_distance=-1)

    def test_rejects_warmup_longer_than_run(self):
        with pytest.raises(ParameterError):
            SimulationConfig(params=PARAMS, num_blocks=100, warmup_blocks=100)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ParameterError):
            SimulationConfig(params=PARAMS, warmup_blocks=-1)

    def test_the_removed_selfish_flag_is_not_a_field(self):
        with pytest.raises(TypeError, match="selfish"):
            SimulationConfig(params=PARAMS, selfish=True)


class TestCopies:
    def test_with_seed_changes_only_the_seed(self):
        config = SimulationConfig(params=PARAMS, num_blocks=500, seed=1)
        copy = config.with_seed(99)
        assert copy.seed == 99
        assert copy.num_blocks == 500
        assert copy.params == config.params

    def test_with_params_changes_only_the_parameters(self):
        config = SimulationConfig(params=PARAMS, schedule=FlatUncleSchedule(0.5), seed=3)
        other = MiningParams(alpha=0.1, gamma=0.9)
        copy = config.with_params(other)
        assert copy.params == other
        assert copy.seed == 3
        assert isinstance(copy.schedule, FlatUncleSchedule)
