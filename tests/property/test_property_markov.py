"""Property-based tests on the Markov chain and the reward-case engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_markov import StateSpace, build_selfish_mining_chain

from repro.analysis.reward_cases import transition_rewards
from repro.markov.state import State
from repro.markov.stationary import stationary_distribution
from repro.markov.transitions import transitions_from_state
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule

alphas = st.floats(min_value=0.01, max_value=0.49, allow_nan=False)
gammas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SCHEDULE = EthereumByzantiumSchedule()


def reachable_states(max_lead: int = 12) -> list[State]:
    return list(StateSpace(max_lead).states)


class TestChainProperties:
    @settings(max_examples=15, deadline=None)
    @given(alpha=alphas, gamma=gammas)
    def test_stationary_distribution_is_a_probability_vector(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        chain = build_selfish_mining_chain(params, max_lead=25)
        result = stationary_distribution(chain)
        assert result.total_probability() == pytest.approx(1.0, abs=1e-9)
        assert all(probability >= -1e-12 for probability in result.probabilities)
        assert result.residual < 1e-8

    @settings(max_examples=15, deadline=None)
    @given(alpha=alphas, gamma=gammas)
    def test_exit_rate_is_one_from_every_state(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        for state in reachable_states():
            total = sum(t.rate for t in transitions_from_state(state, params, max_lead=1000))
            assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(alpha=alphas, gamma=gammas)
    def test_transition_targets_are_reachable_states(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        for state in reachable_states():
            for transition in transitions_from_state(state, params, max_lead=1000):
                assert transition.target.is_valid(), transition

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=0.05, max_value=0.45), gamma=gammas)
    def test_pi00_decreases_when_the_pool_grows(self, alpha, gamma):
        params_small = MiningParams(alpha=alpha * 0.5, gamma=gamma)
        params_large = MiningParams(alpha=alpha, gamma=gamma)
        small = stationary_distribution(build_selfish_mining_chain(params_small, max_lead=25))
        large = stationary_distribution(build_selfish_mining_chain(params_large, max_lead=25))
        assert small.probability(State(0, 0)) >= large.probability(State(0, 0)) - 1e-9


class TestRewardCaseProperties:
    @settings(max_examples=20, deadline=None)
    @given(alpha=alphas, gamma=gammas)
    def test_destiny_probabilities_are_valid_for_every_transition(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        for state in reachable_states():
            for transition in transitions_from_state(state, params, max_lead=1000):
                record = transition_rewards(transition, params, SCHEDULE)
                assert -1e-12 <= record.regular_probability <= 1.0 + 1e-12
                assert -1e-12 <= record.uncle_probability <= 1.0 + 1e-12
                assert record.regular_probability + record.uncle_probability <= 1.0 + 1e-9
                assert 0.0 <= record.pool_mined_probability <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(alpha=alphas, gamma=gammas)
    def test_expected_static_reward_equals_regular_probability(self, alpha, gamma):
        # Static rewards are paid exactly to regular blocks, so summed over both
        # parties the expected static reward of a transition must equal Ks times the
        # probability that its target block becomes regular.
        params = MiningParams(alpha=alpha, gamma=gamma)
        for state in reachable_states():
            for transition in transitions_from_state(state, params, max_lead=1000):
                record = transition_rewards(transition, params, SCHEDULE)
                total_static = record.pool.static + record.honest.static
                assert total_static == pytest.approx(
                    SCHEDULE.static_reward * record.regular_probability, abs=1e-9
                )

    @settings(max_examples=20, deadline=None)
    @given(alpha=alphas, gamma=gammas, fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_uncle_and_nephew_rewards_are_bounded_by_the_schedule(self, alpha, gamma, fraction):
        params = MiningParams(alpha=alpha, gamma=gamma)
        schedule = FlatUncleSchedule(fraction)
        for state in reachable_states():
            for transition in transitions_from_state(state, params, max_lead=1000):
                record = transition_rewards(transition, params, schedule)
                assert record.pool.uncle + record.honest.uncle <= fraction + 1e-9
                assert record.pool.nephew + record.honest.nephew <= schedule.nephew_reward(1) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(alpha=alphas, gamma=gammas)
    def test_nephew_reward_is_paid_exactly_when_an_uncle_is_created(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        for state in reachable_states():
            for transition in transitions_from_state(state, params, max_lead=1000):
                record = transition_rewards(transition, params, SCHEDULE)
                total_nephew = record.pool.nephew + record.honest.nephew
                if record.uncle_probability == 0.0:
                    assert total_nephew == 0.0
                else:
                    expected = SCHEDULE.nephew_reward(record.uncle_distance) * record.uncle_probability
                    assert total_nephew == pytest.approx(expected, abs=1e-9)
