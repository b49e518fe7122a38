"""Unit tests for the Appendix-B reward-case engine."""

from __future__ import annotations

import pytest

from repro.analysis.reward_cases import REWARD_COMPONENTS, fold_rewards, transition_rewards
from repro.markov.state import State
from repro.markov.transitions import TransitionKind, transitions_from_state
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule

PARAMS = MiningParams(alpha=0.3, gamma=0.4)
SCHEDULE = EthereumByzantiumSchedule()
ALPHA, BETA, GAMMA = PARAMS.alpha, PARAMS.beta, PARAMS.gamma


def record_for(state: State, kind: TransitionKind, params: MiningParams = PARAMS, schedule=SCHEDULE):
    transitions = [t for t in transitions_from_state(state, params, max_lead=100) if t.kind is kind]
    assert len(transitions) == 1, f"expected exactly one {kind} transition out of {state}"
    return transition_rewards(transitions[0], params, schedule)


class TestCase1HonestExtendsConsensus:
    def test_honest_block_is_regular_and_earns_static_reward(self):
        record = record_for(State(0, 0), TransitionKind.HONEST_EXTENDS_CONSENSUS)
        assert record.regular_probability == 1.0
        assert record.uncle_probability == 0.0
        assert record.honest.static == pytest.approx(SCHEDULE.static_reward)
        assert record.pool.total == 0.0
        assert record.pool_mined_probability == 0.0


class TestCase2PoolHidesFirstBlock:
    def test_destiny_probabilities(self):
        record = record_for(State(0, 0), TransitionKind.POOL_HIDES_FIRST_BLOCK)
        expected_regular = ALPHA + ALPHA * BETA + BETA**2 * GAMMA
        assert record.regular_probability == pytest.approx(expected_regular)
        assert record.uncle_probability == pytest.approx(BETA**2 * (1 - GAMMA))
        assert record.regular_probability + record.uncle_probability == pytest.approx(1.0)

    def test_rewards_split(self):
        record = record_for(State(0, 0), TransitionKind.POOL_HIDES_FIRST_BLOCK)
        assert record.pool.static == pytest.approx(record.regular_probability)
        assert record.pool.uncle == pytest.approx(SCHEDULE.uncle_reward(1) * record.uncle_probability)
        assert record.honest.nephew == pytest.approx(SCHEDULE.nephew_reward(1) * record.uncle_probability)
        assert record.pool.nephew == 0.0
        assert record.uncle_distance == 1


class TestCase4HonestForcesTie:
    def test_destiny_probabilities(self):
        record = record_for(State(1, 0), TransitionKind.HONEST_FORCES_TIE)
        assert record.regular_probability == pytest.approx(BETA * (1 - GAMMA))
        assert record.uncle_probability == pytest.approx(ALPHA + BETA * GAMMA)

    def test_nephew_reward_split_between_pool_and_honest(self):
        record = record_for(State(1, 0), TransitionKind.HONEST_FORCES_TIE)
        nephew = SCHEDULE.nephew_reward(1)
        assert record.pool.nephew == pytest.approx(nephew * ALPHA)
        assert record.honest.nephew == pytest.approx(nephew * BETA * GAMMA)
        assert record.honest.uncle == pytest.approx(SCHEDULE.uncle_reward(1) * (ALPHA + BETA * GAMMA))


class TestCase5TieResolved:
    def test_static_reward_split_by_hash_power(self):
        record = record_for(State(1, 1), TransitionKind.TIE_RESOLVED)
        assert record.pool.static == pytest.approx(ALPHA)
        assert record.honest.static == pytest.approx(BETA)
        assert record.pool_mined_probability == pytest.approx(ALPHA)
        assert record.regular_probability == 1.0


class TestPoolLeadCases:
    @pytest.mark.parametrize(
        "state,kind",
        [
            (State(1, 0), TransitionKind.POOL_BUILDS_LEAD_OF_TWO),
            (State(4, 1), TransitionKind.POOL_EXTENDS_PRIVATE_LEAD),
            (State(2, 0), TransitionKind.POOL_EXTENDS_PRIVATE_LEAD),
        ],
    )
    def test_pool_blocks_on_a_lead_are_regular_with_certainty(self, state, kind):
        record = record_for(state, kind)
        assert record.regular_probability == 1.0
        assert record.pool.static == pytest.approx(SCHEDULE.static_reward)
        assert record.honest.total == 0.0


class TestHonestUncleCases:
    def test_lead_two_fork_uncle_distance_is_two(self):
        record = record_for(State(4, 2), TransitionKind.HONEST_ON_PREFIX_LEAD_TWO)
        assert record.uncle_distance == 2
        assert record.uncle_probability == 1.0
        assert record.honest.uncle == pytest.approx(SCHEDULE.uncle_reward(2))

    def test_lead_two_from_i0_matches_fork_case(self):
        fork = record_for(State(4, 2), TransitionKind.HONEST_ON_PREFIX_LEAD_TWO)
        no_fork = record_for(State(2, 0), TransitionKind.HONEST_CLOSES_LEAD_TWO)
        assert no_fork.honest.uncle == pytest.approx(fork.honest.uncle)
        assert no_fork.pool.nephew == pytest.approx(fork.pool.nephew)
        assert no_fork.honest.nephew == pytest.approx(fork.honest.nephew)

    def test_long_lead_fork_distance_is_the_lead(self):
        record = record_for(State(7, 3), TransitionKind.HONEST_ON_PREFIX_LONG_LEAD)
        assert record.uncle_distance == 4
        assert record.honest.uncle == pytest.approx(SCHEDULE.uncle_reward(4))

    def test_long_lead_without_fork_distance_is_private_length(self):
        record = record_for(State(5, 0), TransitionKind.HONEST_FORKS_LONG_LEAD)
        assert record.uncle_distance == 5
        assert record.honest.uncle == pytest.approx(SCHEDULE.uncle_reward(5))

    def test_nephew_probability_formula(self):
        record = record_for(State(5, 0), TransitionKind.HONEST_FORKS_LONG_LEAD)
        distance = 5
        honest_probability = BETA ** (distance - 1) * (1 + ALPHA * BETA * (1 - GAMMA))
        nephew = SCHEDULE.nephew_reward(distance)
        assert record.honest.nephew == pytest.approx(nephew * honest_probability)
        assert record.pool.nephew == pytest.approx(nephew * (1 - honest_probability))

    def test_distance_beyond_window_earns_nothing_but_is_still_stale(self):
        record = record_for(State(9, 0), TransitionKind.HONEST_FORKS_LONG_LEAD)
        assert record.uncle_distance == 9
        assert record.uncle_probability == 0.0  # not includable => not a referenced uncle
        assert record.honest.uncle == 0.0
        assert record.honest.nephew == 0.0
        assert record.pool.nephew == 0.0


class TestLosingHonestBranchCases:
    @pytest.mark.parametrize(
        "state,kind",
        [
            (State(6, 2), TransitionKind.HONEST_ON_HONEST_BRANCH),
            (State(4, 2), TransitionKind.HONEST_ON_HONEST_LEAD_TWO),
        ],
    )
    def test_no_rewards_at_all(self, state, kind):
        record = record_for(state, kind)
        assert record.pool.total == 0.0
        assert record.honest.total == 0.0
        assert record.regular_probability == 0.0
        assert record.uncle_probability == 0.0
        assert record.stale_probability == 1.0


class TestConservationAndSchedules:
    def test_destiny_probabilities_never_exceed_one(self):
        for state in [State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(5, 0), State(6, 2), State(4, 2)]:
            for transition in transitions_from_state(state, PARAMS, max_lead=100):
                record = transition_rewards(transition, PARAMS, SCHEDULE)
                assert 0.0 <= record.regular_probability <= 1.0
                assert 0.0 <= record.uncle_probability <= 1.0
                assert record.regular_probability + record.uncle_probability <= 1.0 + 1e-12

    def test_bitcoin_schedule_removes_uncle_and_nephew_rewards(self):
        bitcoin = BitcoinSchedule()
        for state in [State(0, 0), State(1, 0), State(2, 0), State(6, 2)]:
            for transition in transitions_from_state(state, PARAMS, max_lead=100):
                record = transition_rewards(transition, PARAMS, bitcoin)
                assert record.pool.uncle == record.honest.uncle == 0.0
                assert record.pool.nephew == record.honest.nephew == 0.0


class TestRewardFold:
    def test_distance_contributions_split_the_uncle_mass_by_miner(self):
        tie = record_for(State(1, 0), TransitionKind.HONEST_FORCES_TIE)
        assert tie.distance_contributions() == ((False, 1, ALPHA + BETA * GAMMA),)
        hidden = record_for(State(0, 0), TransitionKind.POOL_HIDES_FIRST_BLOCK)
        assert hidden.distance_contributions() == ((True, 1, BETA * BETA * (1.0 - GAMMA)),)
        assert record_for(State(1, 1), TransitionKind.TIE_RESOLVED).distance_contributions() == ()

    def test_fold_weighs_each_record_and_skips_zero_weights(self):
        tie = record_for(State(1, 0), TransitionKind.HONEST_FORCES_TIE)
        long_lead = record_for(State(5, 1), TransitionKind.HONEST_ON_PREFIX_LONG_LEAD)
        records = [tie, long_lead]
        totals = fold_rewards(
            [3, 0],
            [record.component_vector() for record in records],
            [record.distance_contributions() for record in records],
        )
        by_name = dict(zip(REWARD_COMPONENTS, tie.component_vector()))
        assert totals.honest.static == 3 * by_name["honest_static"]
        assert totals.pool.nephew == 3 * by_name["pool_nephew"]
        assert totals.uncle_blocks == 3 * by_name["uncle"]
        assert totals.honest_uncle_distance_counts == {1: 3 * (ALPHA + BETA * GAMMA)}
        assert totals.pool_uncle_distance_counts == {}

    def test_fold_of_no_records_is_zero(self):
        totals = fold_rewards([], [], [])
        assert totals.pool.total == totals.honest.total == 0.0
        assert totals.regular_blocks == totals.stale_blocks == 0.0
        assert totals.honest_uncle_distance_counts == totals.pool_uncle_distance_counts == {}
