"""Unit tests for the stationary-distribution solvers."""

from __future__ import annotations

import pytest

from reference_markov import build_selfish_mining_chain, solve_power_iteration

from repro.markov.chain import MarkovChain, Transition
from repro.markov.stationary import stationary_distribution
from repro.markov.state import State
from repro.params import MiningParams


def two_state_chain(p: float = 0.3, q: float = 0.6) -> MarkovChain[str]:
    return MarkovChain(
        ["up", "down"],
        [
            Transition("up", "down", p),
            Transition("up", "up", 1 - p),
            Transition("down", "up", q),
            Transition("down", "down", 1 - q),
        ],
    )


class TestSimpleChains:
    def test_two_state_chain_has_known_stationary_distribution(self):
        # pi_up / pi_down = q / p for the standard two-state chain.
        result = stationary_distribution(two_state_chain(p=0.3, q=0.6))
        assert result.probability("up") == pytest.approx(0.6 / 0.9)
        assert result.probability("down") == pytest.approx(0.3 / 0.9)

    def test_power_iteration_agrees_with_direct(self):
        chain = two_state_chain(p=0.2, q=0.5)
        direct = stationary_distribution(chain)
        iterative = solve_power_iteration(chain)
        for state in chain.states:
            assert direct.probability(state) == pytest.approx(iterative.probability(state), abs=1e-9)

    def test_distribution_sums_to_one(self):
        result = stationary_distribution(two_state_chain())
        assert result.total_probability() == pytest.approx(1.0)

    def test_residual_is_small(self):
        assert stationary_distribution(two_state_chain()).residual < 1e-10

    def test_getitem_and_mapping_view(self):
        result = stationary_distribution(two_state_chain())
        mapping = result.as_mapping()
        assert mapping["up"] == result["up"]
        assert set(mapping) == {"up", "down"}


class TestSelfishMiningChain:
    @pytest.mark.parametrize("alpha,gamma", [(0.2, 0.5), (0.35, 0.0), (0.45, 0.9)])
    def test_solvers_agree_on_the_selfish_chain(self, alpha, gamma):
        chain = build_selfish_mining_chain(MiningParams(alpha=alpha, gamma=gamma), max_lead=25)
        direct = stationary_distribution(chain)
        iterative = solve_power_iteration(chain, tolerance=1e-13)
        for state in [State(0, 0), State(1, 0), State(1, 1), State(3, 1), State(5, 2)]:
            assert direct.probability(state) == pytest.approx(iterative.probability(state), abs=1e-7)

    def test_probabilities_non_negative_and_normalised(self):
        chain = build_selfish_mining_chain(MiningParams(alpha=0.4, gamma=0.5), max_lead=30)
        result = stationary_distribution(chain)
        assert all(probability >= 0.0 for probability in result.probabilities)
        assert result.total_probability() == pytest.approx(1.0)

    def test_truncation_insensitivity(self):
        # The truncation error decays like (alpha/beta)**max_lead (the pool's lead is
        # a biased random walk), so at alpha = 0.35 the 30-state truncation is already
        # converged to ~1e-9.
        params = MiningParams(alpha=0.35, gamma=0.5)
        small = stationary_distribution(build_selfish_mining_chain(params, max_lead=30))
        large = stationary_distribution(build_selfish_mining_chain(params, max_lead=60))
        for state in [State(0, 0), State(1, 1), State(4, 1), State(8, 3)]:
            assert small.probability(state) == pytest.approx(large.probability(state), abs=1e-6)

    def test_truncation_error_shrinks_with_deeper_truncation(self):
        # At alpha = 0.45 the tail is heavy; deeper truncations must move pi(0,0)
        # monotonically towards the converged value.
        params = MiningParams(alpha=0.45, gamma=0.5)
        reference = stationary_distribution(build_selfish_mining_chain(params, max_lead=90))
        coarse = stationary_distribution(build_selfish_mining_chain(params, max_lead=30))
        fine = stationary_distribution(build_selfish_mining_chain(params, max_lead=60))
        target = reference.probability(State(0, 0))
        assert abs(fine.probability(State(0, 0)) - target) < abs(coarse.probability(State(0, 0)) - target)
