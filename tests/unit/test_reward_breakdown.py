"""Unit tests for :mod:`repro.rewards.breakdown`."""

from __future__ import annotations

import pytest

from repro.rewards.breakdown import PartyRewards, RevenueSplit


class TestPartyRewards:
    def test_defaults_to_zero(self):
        rewards = PartyRewards()
        assert rewards.static == rewards.uncle == rewards.nephew == 0.0
        assert rewards.total == 0.0

    def test_total_sums_components(self):
        rewards = PartyRewards(static=1.0, uncle=0.5, nephew=0.25)
        assert rewards.total == pytest.approx(1.75)

    def test_addition_is_componentwise(self):
        left = PartyRewards(static=1.0, uncle=2.0, nephew=3.0)
        right = PartyRewards(static=0.5, uncle=0.5, nephew=0.5)
        combined = left + right
        assert combined == PartyRewards(static=1.5, uncle=2.5, nephew=3.5)

    def test_subtraction_is_componentwise(self):
        left = PartyRewards(static=1.0, uncle=2.0, nephew=3.0)
        right = PartyRewards(static=0.5, uncle=0.5, nephew=0.5)
        assert left - right == PartyRewards(static=0.5, uncle=1.5, nephew=2.5)

    def test_scaling(self):
        rewards = PartyRewards(static=1.0, uncle=2.0, nephew=4.0)
        assert rewards.scaled(0.5) == PartyRewards(static=0.5, uncle=1.0, nephew=2.0)
        assert 0.5 * rewards == rewards * 0.5 == rewards.scaled(0.5)

    def test_as_dict_includes_total(self):
        assert PartyRewards(static=1.0).as_dict() == {
            "static": 1.0,
            "uncle": 0.0,
            "nephew": 0.0,
            "total": 1.0,
        }

    def test_isclose(self):
        left = PartyRewards(static=1.0, uncle=2.0, nephew=3.0)
        right = PartyRewards(static=1.0 + 1e-13, uncle=2.0, nephew=3.0)
        assert left.isclose(right)
        assert not left.isclose(PartyRewards(static=1.1, uncle=2.0, nephew=3.0))

    def test_adding_non_rewards_is_rejected(self):
        with pytest.raises(TypeError):
            PartyRewards() + 1  # type: ignore[operator]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PartyRewards().static = 1.0  # type: ignore[misc]


class TestRevenueSplit:
    def test_totals(self):
        split = RevenueSplit(
            pool=PartyRewards(static=1.0, uncle=0.5, nephew=0.25),
            honest=PartyRewards(static=2.0, uncle=1.0, nephew=0.75),
        )
        assert split.total == pytest.approx(5.5)
        assert split.total_static == pytest.approx(3.0)
        assert split.total_uncle == pytest.approx(1.5)
        assert split.total_nephew == pytest.approx(1.0)

    def test_pool_share(self):
        split = RevenueSplit(pool=PartyRewards(static=1.0), honest=PartyRewards(static=3.0))
        assert split.pool_share() == pytest.approx(0.25)

    def test_pool_share_of_empty_split_is_zero(self):
        assert RevenueSplit().pool_share() == 0.0

    def test_addition(self):
        first = RevenueSplit(pool=PartyRewards(static=1.0), honest=PartyRewards(uncle=1.0))
        second = RevenueSplit(pool=PartyRewards(nephew=2.0), honest=PartyRewards(static=3.0))
        combined = first + second
        assert combined.pool == PartyRewards(static=1.0, nephew=2.0)
        assert combined.honest == PartyRewards(static=3.0, uncle=1.0)

    def test_scaling(self):
        split = RevenueSplit(pool=PartyRewards(static=2.0), honest=PartyRewards(static=4.0))
        halved = split.scaled(0.5)
        assert halved.pool.static == 1.0
        assert halved.honest.static == 2.0
        assert (0.5 * split).isclose(halved)

    def test_scaling_a_subnormal_reward_can_underflow_the_share_to_zero(self):
        split = RevenueSplit(pool=PartyRewards(nephew=5e-324))
        assert split.pool_share() == 1.0
        assert split.scaled(0.5).pool_share() == 0.0

    def test_as_dict_structure(self):
        data = RevenueSplit(pool=PartyRewards(static=1.0)).as_dict()
        assert set(data) == {"pool", "honest"}
        assert data["pool"]["static"] == 1.0

    def test_isclose(self):
        split = RevenueSplit(pool=PartyRewards(static=1.0), honest=PartyRewards(static=2.0))
        nearly = RevenueSplit(pool=PartyRewards(static=1.0 + 1e-12), honest=PartyRewards(static=2.0))
        assert split.isclose(nearly)
        assert not split.isclose(RevenueSplit())
