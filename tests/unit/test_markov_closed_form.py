"""Unit tests for the closed-form stationary distribution (Eq. 2, Appendix A)."""

from __future__ import annotations

import pytest
from reference_closed_form import (
    closed_form_distribution,
    multiple_summation,
    pi_00,
    pi_11,
    pi_i0,
    pi_ij,
)
from reference_markov import build_selfish_mining_chain

from repro.errors import ParameterError
from repro.markov.state import State
from repro.markov.stationary import stationary_distribution
from repro.params import MiningParams


class TestMultipleSummation:
    @pytest.mark.parametrize("x,y", [(3, 1), (5, 1), (7, 2), (10, 0)])
    def test_single_sum_matches_appendix_example_1(self, x, y):
        # f(x, y, 1) = x - y - 1.
        assert multiple_summation(x, y, 1) == x - y - 1

    @pytest.mark.parametrize("x,y", [(3, 1), (5, 1), (7, 2), (10, 0)])
    def test_double_sum_matches_appendix_example_2(self, x, y):
        # f(x, y, 2) = (x - y - 1)(x - y + 2) / 2.
        assert multiple_summation(x, y, 2) == (x - y - 1) * (x - y + 2) // 2

    def test_zero_when_z_is_zero_or_negative(self):
        assert multiple_summation(5, 1, 0) == 0
        assert multiple_summation(5, 1, -1) == 0

    def test_zero_when_x_below_y_plus_two(self):
        assert multiple_summation(2, 1, 1) == 0
        assert multiple_summation(3, 2, 2) == 0

    def test_triple_sum_against_brute_force(self):
        def brute_force(x, y):
            count = 0
            for s3 in range(y + 2, x + 1):
                for s2 in range(y + 1, s3 + 1):
                    for s1 in range(y, s2 + 1):
                        count += 1
            return count

        for x, y in [(4, 1), (6, 2), (8, 3)]:
            assert multiple_summation(x, y, 3) == brute_force(x, y)

    def test_monotone_in_x(self):
        values = [multiple_summation(x, 1, 2) for x in range(3, 12)]
        assert values == sorted(values)


class TestClosedFormProbabilities:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.45])
    def test_pi00_matches_printed_formula(self, alpha):
        expected = (1 - 2 * alpha) / (2 * alpha**3 - 4 * alpha**2 + 1)
        assert pi_00(alpha) == pytest.approx(expected)

    def test_pi00_decreases_with_alpha(self):
        values = [pi_00(alpha) for alpha in (0.05, 0.15, 0.25, 0.35, 0.45)]
        assert values == sorted(values, reverse=True)

    def test_pi_i0_is_geometric(self):
        alpha = 0.3
        assert pi_i0(alpha, 3) == pytest.approx(alpha**3 * pi_00(alpha))
        assert pi_i0(alpha, 4) / pi_i0(alpha, 3) == pytest.approx(alpha)

    def test_pi_11_formula(self):
        alpha = 0.3
        assert pi_11(alpha) == pytest.approx((alpha - alpha**2) * pi_00(alpha))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.2])
    def test_out_of_range_alpha_rejected(self, alpha):
        with pytest.raises(ParameterError):
            pi_00(alpha)

    def test_pi_ij_rejects_invalid_coordinates(self):
        with pytest.raises(ParameterError):
            pi_ij(0.3, 0.5, 2, 1)
        with pytest.raises(ParameterError):
            pi_ij(0.3, 0.5, 4, 0)

    def test_pi_ij_rejects_unknown_convention(self):
        with pytest.raises(ParameterError):
            pi_ij(0.3, 0.5, 4, 1, f_zero_convention="maybe")

    def test_pi_i0_requires_positive_index(self):
        with pytest.raises(ParameterError):
            pi_i0(0.3, 0)


class TestAgreementWithNumericalSolver:
    @pytest.mark.parametrize("alpha,gamma", [(0.2, 0.3), (0.3, 0.5), (0.42, 0.8)])
    def test_closed_form_matches_numerical_distribution(self, alpha, gamma):
        params = MiningParams(alpha=alpha, gamma=gamma)
        numerical = stationary_distribution(build_selfish_mining_chain(params, max_lead=60))
        closed = closed_form_distribution(params, max_lead=12)
        for state, value in closed.items():
            assert value == pytest.approx(numerical.probability(state), abs=5e-9), state

    def test_distribution_covers_expected_states(self):
        closed = closed_form_distribution(MiningParams(alpha=0.3, gamma=0.5), max_lead=6)
        assert State(0, 0) in closed
        assert State(1, 1) in closed
        assert State(6, 4) in closed
        assert State(2, 1) not in closed  # unreachable state is not part of Eq. (2)
