"""Unit tests for the analytical revenue engine."""

from __future__ import annotations

import dataclasses
import random

import pytest
from reference_markov import (
    StateSpace,
    banded_stationary_distribution,
    full_chain_revenue_rates,
    scalar_revenue_rates,
)

from repro.analysis.revenue import RevenueModel
from repro.analysis.reward_cases import transition_rewards
from repro.markov.chain import MarkovChain
from repro.markov.state import LumpedSpace
from repro.markov.transitions import selfish_mining_transitions, transitions_from_state
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule


class TestBasicProperties:
    def test_block_rate_is_one(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        assert rates.block_rate == pytest.approx(1.0, abs=1e-9)

    def test_regular_rate_equals_total_static_reward(self, ethereum_model, params_point):
        # With Ks = 1 every regular block pays exactly one unit of static reward.
        rates = ethereum_model.revenue_rates(params_point)
        assert rates.regular_rate == pytest.approx(rates.split.total_static, abs=1e-12)

    def test_rates_are_non_negative(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        for value in (
            rates.pool.static,
            rates.pool.uncle,
            rates.pool.nephew,
            rates.honest.static,
            rates.honest.uncle,
            rates.honest.nephew,
            rates.regular_rate,
            rates.uncle_rate,
            rates.stale_rate,
        ):
            assert value >= 0.0

    def test_uncle_rate_decomposes_by_miner(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        assert rates.uncle_rate == pytest.approx(rates.pool_uncle_rate + rates.honest_uncle_rate)

    def test_honest_uncle_distance_rates_sum_to_honest_uncle_rate(self, ethereum_model, params_point):
        rates = ethereum_model.revenue_rates(params_point)
        within_window = sum(rates.honest_uncle_distance_rates.values())
        assert within_window == pytest.approx(rates.honest_uncle_rate, abs=1e-9)

    def test_as_dict_round_trips_key_quantities(self, ethereum_model):
        params = MiningParams(alpha=0.3, gamma=0.5)
        rates = ethereum_model.revenue_rates(params)
        data = rates.as_dict()
        assert data["alpha"] == params.alpha
        assert data["pool_static"] == pytest.approx(rates.pool.static)
        assert data["relative_pool_revenue"] == pytest.approx(rates.relative_pool_revenue)


class TestAgainstKnownBehaviour:
    def test_tiny_pool_earns_roughly_its_share(self, ethereum_model):
        rates = ethereum_model.revenue_rates(MiningParams(alpha=0.01, gamma=0.5))
        assert rates.relative_pool_revenue == pytest.approx(0.01, abs=0.005)

    def test_static_rewards_match_eyal_sirer_formula(self, ethereum_model):
        # Remark 4: the static-reward analysis coincides with Eyal-Sirer's.
        params = MiningParams(alpha=0.35, gamma=0.5)
        rates = ethereum_model.revenue_rates(params)
        alpha, gamma = params.alpha, params.gamma
        expected_pool = (
            alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha**3
        ) / (2 * alpha**3 - 4 * alpha**2 + 1)
        assert rates.pool.static == pytest.approx(expected_pool, abs=1e-9)

    def test_pool_uncles_all_at_distance_one(self, ethereum_model):
        # Remark 5: the pool's uncles are always referenced at distance 1, so its
        # uncle revenue equals Ku(1) times its uncle creation rate.
        params = MiningParams(alpha=0.3, gamma=0.4)
        rates = ethereum_model.revenue_rates(params)
        assert rates.pool.uncle == pytest.approx(rates.pool_uncle_rate * 7 / 8, abs=1e-9)

    def test_bitcoin_schedule_produces_no_uncle_revenue(self, bitcoin_model, params_point):
        rates = bitcoin_model.revenue_rates(params_point)
        assert rates.pool.uncle == 0.0
        assert rates.honest.uncle == 0.0
        assert rates.pool.nephew == 0.0
        assert rates.honest.nephew == 0.0
        assert rates.uncle_rate == 0.0

    def test_uncle_revenue_scales_with_flat_fraction(self):
        params = MiningParams(alpha=0.3, gamma=0.5)
        small = RevenueModel(FlatUncleSchedule(0.25), max_lead=40).revenue_rates(params)
        large = RevenueModel(FlatUncleSchedule(0.75), max_lead=40).revenue_rates(params)
        assert large.pool.uncle == pytest.approx(3 * small.pool.uncle, rel=1e-9)
        assert large.honest.uncle == pytest.approx(3 * small.honest.uncle, rel=1e-9)
        # Static rewards and block classification are schedule-independent.
        assert large.pool.static == pytest.approx(small.pool.static)
        assert large.uncle_rate == pytest.approx(small.uncle_rate)


class TestTruncationAndReuse:
    def test_truncation_insensitivity(self):
        # Truncation error decays roughly like (alpha/beta)**max_lead; at alpha = 0.45
        # the 30-state model is accurate to a few 1e-3 and the 70-state model to
        # better than 1e-7, so the two must agree to the coarser of the two errors.
        params = MiningParams(alpha=0.45, gamma=0.5)
        coarse = RevenueModel(EthereumByzantiumSchedule(), max_lead=30).revenue_rates(params)
        fine = RevenueModel(EthereumByzantiumSchedule(), max_lead=70).revenue_rates(params)
        assert coarse.pool.total == pytest.approx(fine.pool.total, abs=5e-3)
        assert coarse.honest.total == pytest.approx(fine.honest.total, abs=5e-3)
        assert coarse.uncle_rate == pytest.approx(fine.uncle_rate, abs=5e-3)

    def test_truncation_error_decreases_with_depth(self):
        params = MiningParams(alpha=0.45, gamma=0.5)
        reference = RevenueModel(EthereumByzantiumSchedule(), max_lead=90).revenue_rates(params)
        coarse = RevenueModel(EthereumByzantiumSchedule(), max_lead=30).revenue_rates(params)
        fine = RevenueModel(EthereumByzantiumSchedule(), max_lead=60).revenue_rates(params)
        assert abs(fine.pool.total - reference.pool.total) < abs(coarse.pool.total - reference.pool.total)

    def test_relative_revenue_shortcut(self, ethereum_model):
        params = MiningParams(alpha=0.3, gamma=0.5)
        assert ethereum_model.relative_pool_revenue(params) == pytest.approx(
            ethereum_model.revenue_rates(params).relative_pool_revenue
        )

    def test_describe_mentions_schedule_and_truncation(self, ethereum_model):
        text = ethereum_model.describe()
        assert "EthereumByzantiumSchedule" in text
        assert "max_lead=60" in text

    @pytest.mark.parametrize("max_lead", [2, 60])
    def test_one_model_over_a_shuffled_repeating_sequence_equals_a_fresh_model_per_point(self, max_lead):
        points = [MiningParams(alpha=alpha, gamma=gamma) for alpha in (1e-4, 0.2, 0.45) for gamma in (0.0, 0.5, 1.0)]
        sequence = points * 3
        random.Random(7).shuffle(sequence)
        reused = RevenueModel(FlatUncleSchedule(0.5), max_lead=max_lead)
        for params in sequence:
            fresh = RevenueModel(FlatUncleSchedule(0.5), max_lead=max_lead).revenue_rates(params)
            evaluated = reused.revenue_rates(params)
            for field in dataclasses.fields(fresh):
                assert getattr(evaluated, field.name) == getattr(fresh, field.name), field.name

    @pytest.mark.parametrize("max_lead", [2, 60])
    def test_the_models_solve_equals_the_banded_solve_of_the_lumped_chain(self, max_lead):
        model = RevenueModel(max_lead=max_lead)
        space = LumpedSpace(max_lead)
        for params in (MiningParams(alpha=0.3, gamma=0.0), MiningParams(alpha=0.45, gamma=0.5)):
            chain = MarkovChain(space.states, [t.as_transition() for t in selfish_mining_transitions(params, space)])
            expected = banded_stationary_distribution(chain)
            rates = model.chain.rates(params)
            probabilities = model.chain.solve(rates)
            residual = model.chain.plan.residual(probabilities, rates)
            assert (probabilities, residual) == (expected.probabilities, expected.residual)


#: The figure-8 alpha grid (0.0 to 0.45 in steps of 0.05).
FIGURE8_ALPHAS = [round(0.05 * k, 2) for k in range(10)]


class TestRewardFoldOracle:
    """The one-product fold agrees with the per-transition scalar accumulation."""

    @pytest.mark.parametrize("schedule", [EthereumByzantiumSchedule(), FlatUncleSchedule(0.5)], ids=type)
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_every_field_matches_the_scalar_loop(self, schedule, gamma):
        model = RevenueModel(schedule, max_lead=30)
        for alpha in FIGURE8_ALPHAS:
            params = MiningParams(alpha=alpha, gamma=gamma)
            folded = model.revenue_rates(params)
            scalar = scalar_revenue_rates(model, params)
            for name in ("static", "uncle", "nephew"):
                assert getattr(folded.pool, name) == pytest.approx(getattr(scalar.pool, name), abs=1e-12)
                assert getattr(folded.honest, name) == pytest.approx(getattr(scalar.honest, name), abs=1e-12)
            for name in (
                "regular_rate",
                "uncle_rate",
                "pool_uncle_rate",
                "honest_uncle_rate",
                "stale_rate",
                "truncation_mass",
            ):
                assert getattr(folded, name) == pytest.approx(getattr(scalar, name), abs=1e-12), name
            assert list(folded.honest_uncle_distance_rates) == list(scalar.honest_uncle_distance_rates)
            for distance, rate in scalar.honest_uncle_distance_rates.items():
                assert folded.honest_uncle_distance_rates[distance] == pytest.approx(rate, abs=1e-12)


@pytest.fixture(scope="module")
def oracle_at_300():
    """The unlumped chain at alpha 0.45, gamma 0.5 with the private branch capped at 300."""
    return full_chain_revenue_rates(RevenueModel(max_lead=300), MiningParams(alpha=0.45, gamma=0.5))


def assert_every_field_agrees(rates, reference, tolerance: float) -> None:
    assert rates.params == reference.params
    for party in ("pool", "honest"):
        for name in ("static", "uncle", "nephew"):
            measured, expected = getattr(getattr(rates, party), name), getattr(getattr(reference, party), name)
            assert measured == pytest.approx(expected, abs=tolerance), (party, name)
    for name in (
        "regular_rate",
        "uncle_rate",
        "pool_uncle_rate",
        "honest_uncle_rate",
        "stale_rate",
        "truncation_mass",
    ):
        assert getattr(rates, name) == pytest.approx(getattr(reference, name), abs=tolerance), name
    assert list(rates.honest_uncle_distance_rates) == list(reference.honest_uncle_distance_rates)
    for distance, rate in reference.honest_uncle_distance_rates.items():
        assert rates.honest_uncle_distance_rates[distance] == pytest.approx(rate, abs=tolerance)


class TestLumpingIsExact:
    """The ``(lead, forked)`` chain ``RevenueModel`` solves is an exact lumping of ``(Ls, Lh)``."""

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
    def test_every_state_moves_like_its_representative(self, gamma):
        params = MiningParams(alpha=0.3, gamma=gamma)
        schedule = EthereumByzantiumSchedule()
        lumped = LumpedSpace(30)
        by_source: dict = {}
        for transition in selfish_mining_transitions(params, lumped):
            by_source.setdefault(transition.source, []).append(transition)
        compared = 0
        for state in StateSpace(30):
            if state.private == 30:
                continue  # at the private cap, where only the unlumped chain self-loops
            own = list(transitions_from_state(state, params, max_lead=30))
            representative = by_source[lumped.representative(state)]
            assert [(t.kind, t.rate, lumped.representative(t.target)) for t in own] == [
                (t.kind, t.rate, t.target) for t in representative
            ]
            for mine, theirs in zip(own, representative):
                record = transition_rewards(mine, params, schedule)
                lumped_record = transition_rewards(theirs, params, schedule)
                assert record.component_vector() == lumped_record.component_vector()
                assert record.distance_contributions() == lumped_record.distance_contributions()
            compared += 1
        assert compared == len(StateSpace(29))

    def test_every_field_matches_the_full_chain_where_its_truncation_is_negligible(self):
        compared = 0
        for schedule in (EthereumByzantiumSchedule(), FlatUncleSchedule(0.5)):
            model = RevenueModel(schedule, max_lead=60)
            for gamma in (0.0, 0.5, 1.0):
                for alpha in FIGURE8_ALPHAS:
                    params = MiningParams(alpha=alpha, gamma=gamma)
                    reference = full_chain_revenue_rates(model, params)
                    if reference.truncation_mass >= 1e-12:
                        continue
                    assert_every_field_agrees(model.revenue_rates(params), reference, 1e-10)
                    compared += 1
        # alpha up to 0.2 at gamma 0, up to 0.35 at gamma 0.5 and 1, per schedule.
        assert compared == 42

    def test_large_alpha_matches_the_deep_full_chain(self, oracle_at_300):
        assert oracle_at_300.truncation_mass < 1e-12
        rates = RevenueModel(max_lead=200).revenue_rates(oracle_at_300.params)
        assert_every_field_agrees(rates, oracle_at_300, 1e-10)


class TestMeasuredTruncation:
    """Pins the truncation table of the unlumped ``(Ls, Lh)`` chain within a factor of 2.

    That chain caps the private branch, so at ``gamma = 0`` its boundary carries
    real mass and ``Rs`` is off by about that much; at ``gamma = 0.5`` it is
    negligible.  ``RevenueModel`` caps the lead instead (:class:`TestLumpedTruncation`).
    """

    ALPHA = 0.45

    def rates(self, gamma: float, max_lead: int):
        return full_chain_revenue_rates(RevenueModel(max_lead=max_lead), MiningParams(alpha=self.ALPHA, gamma=gamma))

    @staticmethod
    def assert_within_factor_two(measured: float, documented: float) -> None:
        assert documented / 2 <= measured <= documented * 2

    def test_gamma_zero_boundary_mass_and_error(self):
        reference = self.rates(0.0, 300).relative_pool_revenue
        for max_lead, mass, error in ((60, 1.6e-2, 1.7e-2), (200, 1.4e-3, 1.2e-3)):
            rates = self.rates(0.0, max_lead)
            self.assert_within_factor_two(rates.truncation_mass, mass)
            self.assert_within_factor_two(abs(rates.relative_pool_revenue - reference), error)

    def test_gamma_zero_boundary_mass_falls_with_alpha(self):
        model = RevenueModel(max_lead=60)
        for alpha, mass in ((0.3, 9e-8), (0.2, 2.7e-15)):
            rates = full_chain_revenue_rates(model, MiningParams(alpha=alpha, gamma=0.0))
            self.assert_within_factor_two(rates.truncation_mass, mass)

    def test_gamma_half_boundary_mass_and_error(self):
        # max_lead = 100 stands in for 300 here: its own boundary mass is below 1e-8.
        reference = self.rates(0.5, 100)
        assert reference.truncation_mass < 1e-8
        rates = self.rates(0.5, 60)
        self.assert_within_factor_two(rates.truncation_mass, 1.8e-6)
        self.assert_within_factor_two(
            abs(rates.relative_pool_revenue - reference.relative_pool_revenue), 1.9e-6
        )


class TestLumpedTruncation:
    """Pins the truncation table of the ``RevenueModel`` docstring within a factor of 2.

    The lead is a gamma-independent biased random walk, so the boundary mass is the
    same for every gamma and falls like ``(alpha / beta) ** max_lead``.
    """

    assert_within_factor_two = staticmethod(TestMeasuredTruncation.assert_within_factor_two)

    def test_boundary_mass_is_the_same_for_every_gamma(self):
        for max_lead, mass in ((60, 8.7e-7), (200, 5.5e-19)):
            model = RevenueModel(max_lead=max_lead)
            masses = [
                model.revenue_rates(MiningParams(alpha=0.45, gamma=gamma)).truncation_mass
                for gamma in (0.0, 0.5, 1.0)
            ]
            for measured in masses:
                self.assert_within_factor_two(measured, mass)
                assert measured == pytest.approx(masses[0], rel=1e-9)

    def test_boundary_mass_falls_with_alpha(self):
        rates = RevenueModel(max_lead=60).revenue_rates(MiningParams(alpha=0.3, gamma=0.0))
        self.assert_within_factor_two(rates.truncation_mass, 3.4e-23)

    def test_relative_revenue_error_against_the_deep_full_chain(self, oracle_at_300):
        rates = RevenueModel(max_lead=60).revenue_rates(oracle_at_300.params)
        error = abs(rates.relative_pool_revenue - oracle_at_300.relative_pool_revenue)
        self.assert_within_factor_two(error, 9.5e-7)
