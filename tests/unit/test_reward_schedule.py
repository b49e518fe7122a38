"""Unit tests for :mod:`repro.rewards.schedule`."""

from __future__ import annotations

import pickle

import pytest

from repro.constants import MAX_UNCLE_DISTANCE, NEPHEW_REWARD_FRACTION
from repro.errors import ParameterError
from repro.rewards.schedule import (
    BitcoinSchedule,
    CustomSchedule,
    EthereumByzantiumSchedule,
    FlatUncleSchedule,
    _probe_fingerprint,
    ethereum_schedule,
    flat_uncle_schedule,
    make_schedule,
    schedule_fingerprint,
)


class TestEthereumByzantiumSchedule:
    def test_static_reward_normalised_to_one(self):
        assert EthereumByzantiumSchedule().static_reward == 1.0

    @pytest.mark.parametrize("distance,expected", [(1, 7 / 8), (2, 6 / 8), (3, 5 / 8), (6, 2 / 8)])
    def test_uncle_reward_follows_eight_minus_d_over_eight(self, distance, expected):
        assert EthereumByzantiumSchedule().uncle_reward(distance) == pytest.approx(expected)

    @pytest.mark.parametrize("distance", [0, 7, 10, 100])
    def test_uncle_reward_zero_outside_window(self, distance):
        assert EthereumByzantiumSchedule().uncle_reward(distance) == 0.0

    def test_nephew_reward_is_one_thirty_second(self):
        schedule = EthereumByzantiumSchedule()
        for distance in range(1, MAX_UNCLE_DISTANCE + 1):
            assert schedule.nephew_reward(distance) == pytest.approx(1 / 32)

    def test_nephew_reward_zero_outside_window(self):
        assert EthereumByzantiumSchedule().nephew_reward(7) == 0.0

    def test_scales_with_static_reward(self):
        schedule = EthereumByzantiumSchedule(static_reward=3.0)
        assert schedule.uncle_reward(1) == pytest.approx(3.0 * 7 / 8)
        assert schedule.nephew_reward(1) == pytest.approx(3.0 / 32)

    def test_rejects_non_positive_static_reward(self):
        with pytest.raises(ParameterError):
            EthereumByzantiumSchedule(static_reward=0.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ParameterError):
            EthereumByzantiumSchedule().uncle_reward(-1)

    def test_rejects_non_integer_distance(self):
        with pytest.raises(ParameterError):
            EthereumByzantiumSchedule().uncle_reward(1.5)  # type: ignore[arg-type]

    def test_includable_window(self):
        schedule = EthereumByzantiumSchedule()
        assert schedule.includable(1)
        assert schedule.includable(6)
        assert not schedule.includable(0)
        assert not schedule.includable(7)

    def test_has_uncle_rewards(self):
        assert EthereumByzantiumSchedule().has_uncle_rewards

    def test_describe_mentions_every_distance(self):
        text = EthereumByzantiumSchedule().describe()
        for distance in range(1, 7):
            assert f"Ku({distance})" in text


class TestFlatUncleSchedule:
    def test_constant_reward_over_window(self):
        schedule = FlatUncleSchedule(0.5)
        assert {schedule.uncle_reward(d) for d in range(1, 7)} == {0.5}

    def test_zero_outside_window(self):
        assert FlatUncleSchedule(0.5).uncle_reward(7) == 0.0

    def test_nephew_default_matches_ethereum(self):
        assert FlatUncleSchedule(0.5).nephew_reward(3) == pytest.approx(NEPHEW_REWARD_FRACTION)

    def test_custom_nephew_fraction(self):
        assert FlatUncleSchedule(0.5, nephew_fraction=0.25).nephew_reward(2) == pytest.approx(0.25)

    def test_zero_uncle_fraction_has_no_uncle_rewards(self):
        assert not FlatUncleSchedule(0.0).has_uncle_rewards

    def test_rejects_negative_fractions(self):
        with pytest.raises(ParameterError):
            FlatUncleSchedule(-0.1)
        with pytest.raises(ParameterError):
            FlatUncleSchedule(0.5, nephew_fraction=-0.1)

    def test_uncle_fraction_property(self):
        assert FlatUncleSchedule(0.25).uncle_fraction == 0.25


class TestBitcoinSchedule:
    def test_no_uncle_or_nephew_rewards(self):
        schedule = BitcoinSchedule()
        assert all(schedule.uncle_reward(d) == 0.0 for d in range(0, 10))
        assert all(schedule.nephew_reward(d) == 0.0 for d in range(0, 10))

    def test_nothing_is_includable(self):
        schedule = BitcoinSchedule()
        assert not any(schedule.includable(d) for d in range(0, 10))

    def test_has_no_uncle_rewards(self):
        assert not BitcoinSchedule().has_uncle_rewards

    def test_static_reward_present(self):
        assert BitcoinSchedule().static_reward == 1.0


class TestCustomSchedule:
    def test_callables_are_used_inside_window(self):
        schedule = CustomSchedule(uncle_fn=lambda d: d / 10, nephew_fn=lambda d: d / 100)
        assert schedule.uncle_reward(3) == pytest.approx(0.3)
        assert schedule.nephew_reward(3) == pytest.approx(0.03)

    def test_zero_outside_window(self):
        schedule = CustomSchedule(uncle_fn=lambda d: 1.0, nephew_fn=lambda d: 1.0, max_uncle_distance=2)
        assert schedule.uncle_reward(3) == 0.0
        assert schedule.nephew_reward(3) == 0.0

    def test_negative_reward_from_callable_rejected(self):
        schedule = CustomSchedule(uncle_fn=lambda d: -1.0, nephew_fn=lambda d: 0.0)
        with pytest.raises(ParameterError):
            schedule.uncle_reward(1)

    def test_rejects_bad_construction_arguments(self):
        with pytest.raises(ParameterError):
            CustomSchedule(uncle_fn=lambda d: 0.0, nephew_fn=lambda d: 0.0, static_reward=0.0)
        with pytest.raises(ParameterError):
            CustomSchedule(uncle_fn=lambda d: 0.0, nephew_fn=lambda d: 0.0, max_uncle_distance=-1)


class TestFactories:
    def test_ethereum_schedule_factory(self):
        assert isinstance(ethereum_schedule(), EthereumByzantiumSchedule)

    def test_flat_uncle_schedule_factory(self):
        schedule = flat_uncle_schedule(0.5)
        assert isinstance(schedule, FlatUncleSchedule)
        assert schedule.uncle_reward(4) == pytest.approx(0.5)


#: One instance of every schedule the package ships, plus the Fig. 9
#: unwindowed reading (probe capped at 16 distances).
SHIPPED_SCHEDULES = [
    EthereumByzantiumSchedule(),
    EthereumByzantiumSchedule(static_reward=2.0),
    FlatUncleSchedule(4 / 8),
    FlatUncleSchedule(7 / 8, max_uncle_distance=1_000_000),
    BitcoinSchedule(),
    make_schedule("flat:0.25"),
]


class TestFingerprintCache:
    @pytest.mark.parametrize("schedule", SHIPPED_SCHEDULES, ids=lambda s: s.describe())
    def test_cached_fingerprint_equals_a_fresh_probe(self, schedule):
        first = schedule_fingerprint(schedule)
        assert first == _probe_fingerprint(schedule)
        assert schedule_fingerprint(schedule) is first  # probed once, then cached

    @pytest.mark.parametrize("schedule", SHIPPED_SCHEDULES, ids=lambda s: s.describe())
    def test_pickled_copy_keeps_the_fingerprint(self, schedule):
        schedule_fingerprint(schedule)
        copy = pickle.loads(pickle.dumps(schedule))
        # The cache is not pickled: the copy probes afresh and agrees.
        assert "_fingerprint" not in copy.__dict__
        assert schedule_fingerprint(copy) == _probe_fingerprint(copy)
        assert schedule_fingerprint(copy) == schedule_fingerprint(schedule)
        assert copy == schedule and hash(copy) == hash(schedule)

    def test_custom_schedule_is_cached_too(self):
        schedule = CustomSchedule(lambda d: 0.5 / d, lambda d: 0.01)
        assert schedule_fingerprint(schedule) == _probe_fingerprint(schedule)
        assert schedule_fingerprint(schedule) is schedule_fingerprint(schedule)
