"""Property-based tests for reward schedules and reward containers."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rewards.breakdown import PartyRewards, RevenueSplit
from repro.rewards.schedule import CustomSchedule, EthereumByzantiumSchedule, FlatUncleSchedule

finite_rewards = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
party_rewards = st.builds(PartyRewards, static=finite_rewards, uncle=finite_rewards, nephew=finite_rewards)
distances = st.integers(min_value=0, max_value=20)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Rewards that are 0 or at least 1e-300, so a factor of 0.1 keeps them normal.  A
#: subnormal reward has no model meaning; how its scaling underflows is pinned in
#: ``tests/unit/test_reward_breakdown.py``.
normal_rewards = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e6))
normal_party_rewards = st.builds(PartyRewards, static=normal_rewards, uncle=normal_rewards, nephew=normal_rewards)


class TestScheduleProperties:
    @given(distance=distances)
    def test_ethereum_uncle_reward_is_bounded_by_seven_eighths(self, distance):
        reward = EthereumByzantiumSchedule().uncle_reward(distance)
        assert 0.0 <= reward <= 7 / 8

    @given(distance=st.integers(min_value=1, max_value=5))
    def test_ethereum_uncle_reward_strictly_decreases_inside_the_window(self, distance):
        schedule = EthereumByzantiumSchedule()
        assert schedule.uncle_reward(distance) > schedule.uncle_reward(distance + 1)

    @given(distance=distances, fraction=fractions)
    def test_flat_schedule_never_exceeds_its_fraction(self, distance, fraction):
        schedule = FlatUncleSchedule(fraction)
        assert 0.0 <= schedule.uncle_reward(distance) <= fraction

    @given(distance=distances)
    def test_includable_distances_are_exactly_those_with_possible_rewards(self, distance):
        schedule = EthereumByzantiumSchedule()
        if schedule.includable(distance):
            assert 1 <= distance <= schedule.max_uncle_distance
        else:
            assert schedule.uncle_reward(distance) == 0.0
            assert schedule.nephew_reward(distance) == 0.0

    @given(distance=st.integers(min_value=1, max_value=6), scale=st.floats(min_value=0.1, max_value=10.0))
    def test_rewards_scale_linearly_with_the_static_reward(self, distance, scale):
        base = EthereumByzantiumSchedule()
        scaled = EthereumByzantiumSchedule(static_reward=scale)
        assert scaled.uncle_reward(distance) == base.uncle_reward(distance) * scale
        assert scaled.nephew_reward(distance) == base.nephew_reward(distance) * scale

    @given(distance=distances)
    def test_custom_schedule_respects_its_window(self, distance):
        schedule = CustomSchedule(uncle_fn=lambda d: 0.5, nephew_fn=lambda d: 0.1, max_uncle_distance=4)
        if distance < 1 or distance > 4:
            assert schedule.uncle_reward(distance) == 0.0


class TestPartyRewardsProperties:
    @given(first=party_rewards, second=party_rewards)
    def test_addition_is_commutative(self, first, second):
        assert (first + second).isclose(second + first)

    @given(first=party_rewards, second=party_rewards, third=party_rewards)
    def test_addition_is_associative(self, first, second, third):
        left = (first + second) + third
        right = first + (second + third)
        assert left.isclose(right, rel_tol=1e-9, abs_tol=1e-6)

    @given(rewards=party_rewards, factor=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_scaling_scales_the_total(self, rewards, factor):
        scaled = rewards.scaled(factor)
        assert scaled.total <= rewards.total * factor + 1e-6
        assert abs(scaled.total - rewards.total * factor) < 1e-6 * max(1.0, rewards.total)

    @given(rewards=party_rewards)
    def test_total_is_sum_of_components(self, rewards):
        assert rewards.total == rewards.static + rewards.uncle + rewards.nephew

    @given(pool=party_rewards, honest=party_rewards)
    def test_pool_share_is_a_probability(self, pool, honest):
        split = RevenueSplit(pool=pool, honest=honest)
        assert 0.0 <= split.pool_share() <= 1.0

    @settings(max_examples=25)
    @given(pool=normal_party_rewards, honest=normal_party_rewards, factor=st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_a_split_preserves_the_share(self, pool, honest, factor):
        split = RevenueSplit(pool=pool, honest=honest)
        scaled = split.scaled(factor)
        if split.total > 0:
            assert scaled.pool_share() == split.pool_share() or abs(
                scaled.pool_share() - split.pool_share()
            ) < 1e-9
