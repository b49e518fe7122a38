"""Property-based tests for the strategy layer.

For random parameter points, seeds and strategies the engine must uphold its
accounting and bookkeeping invariants: every mined block is classified exactly
once (reward conservation), :meth:`RaceState.check_invariants` never fires (it is
exercised after every step by the engine itself), and the rendered tree stays
structurally valid.  The selfish strategy additionally must agree with the
analytical relative-revenue prediction in distribution, but that is covered by the
integration suite; here the focus is on universally quantified safety properties.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.validation import validate_tree
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator
from repro.strategies import Action, available_strategies, make_strategy

# The stateless catalogue strategies: "optimal" is excluded because it is
# configuration-aware (one MDP solve per distinct random parameter point would
# dominate the suite); its engine invariants are covered with directly
# constructed policy tables in tests/property/test_property_mdp.py.
STRATEGY_NAMES = sorted(name for name in available_strategies() if name != "optimal")

simulation_cases = st.fixed_dictionaries(
    {
        "alpha": st.floats(min_value=0.0, max_value=0.49, allow_nan=False),
        "gamma": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "strategy": st.sampled_from(STRATEGY_NAMES),
        "blocks": st.integers(min_value=50, max_value=400),
    }
)

race_views = st.builds(
    lambda private, published_cut, public: _View(
        private, min(published_cut, private, public), public
    ),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)


class _View:
    """Minimal RaceView stand-in for decision-totality checks."""

    def __init__(self, private: int, published: int, public: int) -> None:
        self._private = private
        self.published_count = published
        self._public = public

    @property
    def private_length(self) -> int:
        return self._private

    @property
    def public_length(self) -> int:
        return self._public


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=simulation_cases)
def test_reward_conservation_and_invariants(case):
    """Runs complete, invariants hold at every step, and block accounting closes."""
    config = SimulationConfig(
        params=MiningParams(alpha=case["alpha"], gamma=case["gamma"]),
        num_blocks=case["blocks"],
        seed=case["seed"],
        strategy=case["strategy"],
        validate_chain=True,
    )
    simulator = ChainSimulator(config)
    result = simulator.run()
    # Every mined block is classified exactly once.
    assert (
        result.regular_blocks + result.uncle_blocks + result.stale_blocks
        == result.total_blocks
        == config.num_blocks
    )
    assert result.pool_regular_blocks + result.honest_regular_blocks == result.regular_blocks
    assert result.pool_uncle_blocks + result.honest_uncle_blocks == result.uncle_blocks
    # Relative revenue is a share.
    assert 0.0 <= result.relative_pool_revenue <= 1.0
    # Rewards are non-negative per party and type.
    for party in (result.pool_rewards, result.honest_rewards):
        assert party.static >= 0.0 and party.uncle >= 0.0 and party.nephew >= 0.0
    # The finished tree is structurally valid (finalise published all blocks).
    validate_tree(simulator.tree)


@settings(max_examples=40, deadline=None)
@given(case=simulation_cases)
def test_honest_strategy_produces_a_clean_chain(case):
    """An honest pool never forks: no stale blocks, no uncles, whatever the seed."""
    config = SimulationConfig(
        params=MiningParams(alpha=case["alpha"], gamma=case["gamma"]),
        num_blocks=case["blocks"],
        seed=case["seed"],
        strategy="honest",
    )
    result = ChainSimulator(config).run()
    assert result.stale_blocks == 0.0
    assert result.uncle_blocks == 0.0
    assert result.regular_blocks == result.total_blocks


@settings(max_examples=100, deadline=None)
@given(view=race_views, name=st.sampled_from(STRATEGY_NAMES))
def test_decisions_are_total_and_deterministic(view, name):
    """Every strategy answers every conceivable view with a valid, stable action."""
    strategy = make_strategy(name)
    for method in (strategy.after_pool_block, strategy.after_honest_block):
        action = method(view)
        assert isinstance(action, Action)
        assert method(view) is action


