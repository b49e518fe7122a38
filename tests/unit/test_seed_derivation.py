"""Regression tests for the shared seed-derivation helper.

Seed derivation used to be spelled several times — ``RandomSource.spawn``, the
runner's ``_derive_run_configs`` and the scenario layer's run plans.  They all share
:func:`repro.simulation.rng.derive_seed` now; these tests pin (a) that the
consolidated helper still produces the historical stream (literal values
recorded before the refactor), and (b) that every consumer agrees with it.
"""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.rng import RandomSource, derive_seed, derive_seed_sequence, derive_seeds
from repro.simulation.runner import _derive_run_configs


class TestDeriveSeed:
    def test_pinned_historical_values(self):
        """The exact child seeds the pre-refactor spawn-based code derived."""
        assert derive_seeds(2019, 3) == [2149709420, 1024779215, 4192080708]
        assert derive_seeds(0, 2) == [3757552657, 673228719]
        assert derive_seeds(42, 4) == [2684470948, 4091952314, 233227757, 3276785861]

    def test_matches_random_source_spawn(self):
        for master in (0, 7, 2019, 2**40 + 5):
            source = RandomSource(master)
            for index in range(5):
                assert derive_seed(master, index) == source.spawn(index).seed

    def test_children_are_distinct(self):
        assert len(set(derive_seeds(5, 64))) == 64

    def test_negative_index_rejected(self):
        with pytest.raises(ParameterError):
            derive_seed(1, -1)
        with pytest.raises(ParameterError):
            derive_seeds(1, -1)

    def test_sequence_seeds_the_spawned_generator(self):
        sequence = derive_seed_sequence(7, 2)
        assert int(sequence.generate_state(1)[0]) == derive_seed(7, 2)


class TestConsumersShareTheHelper:
    def test_runner_config_derivation_uses_the_helper(self):
        config = SimulationConfig(
            params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=100, seed=2019
        )
        derived = _derive_run_configs(config, 3)
        assert [c.seed for c in derived] == derive_seeds(2019, 3)

    def test_scenario_run_plan_uses_the_helper(self):
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(name="seeds", alphas=(0.3,), num_blocks=100, seed=2019, num_runs=3)
        plan = spec.run_plan()
        assert [run.config.seed for run in plan] == derive_seeds(2019, 3)
