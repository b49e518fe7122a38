"""Unit tests for the MDP solver (:mod:`repro.mdp.solver`)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.revenue import RevenueModel
from repro.errors import ConvergenceError, ParameterError
from repro.markov.state import State
from repro.mdp import solver as solver_module
from repro.mdp.model import PoolDecision
from repro.mdp.solver import (
    MdpSolver,
    clear_policy_cache,
    solve_optimal_policy,
)
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule, FlatUncleSchedule

MAX_LEAD = 20


def solver_at(alpha: float, gamma: float, **kwargs) -> MdpSolver:
    return MdpSolver(MiningParams(alpha=alpha, gamma=gamma), max_lead=MAX_LEAD, **kwargs)


class TestPolicyEvaluation:
    def test_selfish_pinned_matches_the_analytical_revenue_model(self):
        model = RevenueModel(max_lead=MAX_LEAD)
        for alpha, gamma in [(0.2, 0.3), (0.35, 0.5), (0.45, 0.9)]:
            solver = solver_at(alpha, gamma)
            evaluated = solver.evaluate(solver.model.selfish_policy()).rates
            expected = model.revenue_rates(MiningParams(alpha=alpha, gamma=gamma))
            for field in dataclasses.fields(expected):
                assert getattr(evaluated, field.name) == getattr(expected, field.name), field.name

    def test_selfish_pinned_equals_the_revenue_model_field_by_field(self):
        # Withholding everywhere is the analytical model's lumped chain, solved
        # and folded by the same calls, so nothing may differ.
        for max_lead in (MAX_LEAD, 60):
            model = RevenueModel(max_lead=max_lead)
            for alpha, gamma in [(0.2, 0.3), (0.35, 0.0), (0.45, 0.0), (0.45, 1.0)]:
                params = MiningParams(alpha=alpha, gamma=gamma)
                solver = MdpSolver(params, max_lead=max_lead)
                evaluated = solver.evaluate(solver.model.selfish_policy()).rates
                expected = model.revenue_rates(params)
                for field in dataclasses.fields(expected):
                    assert getattr(evaluated, field.name) == getattr(expected, field.name), field.name

    def test_honest_pinned_earns_exactly_alpha(self):
        for alpha in (0.1, 0.3, 0.45):
            solver = solver_at(alpha, 0.5)
            evaluation = solver.evaluate(solver.model.honest_policy())
            assert evaluation.share == pytest.approx(alpha, abs=1e-12)
            assert evaluation.rates.stale_rate == pytest.approx(0.0, abs=1e-12)

    def test_decision_map_form_overrides_selected_states(self):
        solver = solver_at(0.3, 0.5)
        pinned = solver.evaluate_decisions({State(0, 0): PoolDecision.OVERRIDE})
        assert pinned.share == pytest.approx(0.3, abs=1e-12)


class TestSolve:
    def test_below_threshold_the_optimal_policy_is_honest(self):
        result = solver_at(0.1, 0.5).solve()
        assert result.policy_label() == "honest"
        assert result.optimal_share == pytest.approx(0.1, abs=1e-10)
        assert State(0, 0) in result.divergence_from_selfish()

    def test_above_threshold_the_optimal_policy_is_algorithm_1(self):
        result = solver_at(0.4, 0.5).solve()
        assert result.policy_label() == "selfish"
        assert result.divergence_from_selfish() == ()
        expected = RevenueModel(max_lead=MAX_LEAD).relative_pool_revenue(MiningParams(alpha=0.4, gamma=0.5))
        assert result.optimal_share == expected

    def test_share_sequence_is_monotone_and_ends_at_the_optimum(self):
        result = solver_at(0.15, 0.5).solve()
        assert list(result.shares) == sorted(result.shares)
        assert result.shares[-1] == pytest.approx(result.optimal_share, abs=1e-12)

    def test_decisions_cover_the_lumped_space(self):
        result = solver_at(0.1, 0.5).solve()
        assert len(result.decisions) == 2 * MAX_LEAD + 1
        assert result.override_codes == (State(0, 0).encode(), State(1, 1).encode())

    def test_override_codes_always_contain_the_forced_tie_break(self):
        for alpha in (0.1, 0.3, 0.45):
            result = solver_at(alpha, 0.5).solve()
            assert State(1, 1).encode() in result.override_codes

    def test_zero_alpha_degenerates_to_share_zero(self):
        result = solver_at(0.0, 0.5).solve()
        assert result.optimal_share == 0.0
        assert result.shares == (0.0,)

    def test_bitcoin_schedule_recovers_the_eyal_sirer_threshold_side(self):
        # At gamma=0 the Bitcoin threshold is 1/3: below it honest, above selfish.
        below = MdpSolver(
            MiningParams(alpha=0.30, gamma=0.0), BitcoinSchedule(), max_lead=MAX_LEAD
        ).solve()
        above = MdpSolver(
            MiningParams(alpha=0.36, gamma=0.0), BitcoinSchedule(), max_lead=MAX_LEAD
        ).solve()
        assert below.policy_label() == "honest"
        assert above.policy_label() == "selfish"

    def test_round_cap_enforced(self, monkeypatch):
        # At alpha 0.1 the solve accepts one round (to honest) and needs a second
        # to confirm that nothing switches.
        monkeypatch.setattr(solver_module, "_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError, match="policy iteration"):
            solver_at(0.1, 0.5).solve()


class TestPolicyIteration:
    @pytest.mark.parametrize("alpha,gamma", [(0.1, 0.5), (0.35, 0.0), (0.45, 1.0)])
    @pytest.mark.parametrize("pinned", ["selfish_policy", "honest_policy"])
    def test_bias_of_a_pinned_policy_satisfies_its_equations(self, alpha, gamma, pinned):
        solver = solver_at(alpha, gamma)
        model = solver.model
        policy = getattr(model, pinned)()
        share = solver.evaluate(policy).share
        bias = solver.bias(policy, share)
        rewards = model.pool_rewards[policy] - share * model.total_rewards[policy]
        residual = bias - model.expected_values(bias)[policy] - rewards
        assert bias[0] == 0.0
        # Row 0 is left out of the solve, yet holds too: the gain is zero at the
        # policy's own share.
        assert np.abs(residual).max() <= 1e-12

    def test_an_exact_tie_keeps_the_incumbent_decision(self):
        # At alpha 0 the pool never mines, so withholding and overriding differ
        # only in an edge of rate 0 and tie exactly at every state.
        solver = solver_at(0.0, 0.5)
        model = solver.model
        q = model.pool_rewards + model.expected_values(solver.bias(model.honest_policy(), 0.0))
        withhold = q[model.selfish_policy()]
        override = q[model.honest_policy()]
        assert np.array_equal(withhold, override)
        for policy in (model.honest_policy(), model.selfish_policy()):
            assert np.array_equal(solver.policy_step(policy, 0.0), policy)

    def test_a_strictly_better_action_switches(self):
        solver = solver_at(0.1, 0.5)
        model = solver.model
        selfish = model.selfish_policy()
        improved = solver.policy_step(selfish, solver.evaluate(selfish).share)
        assert improved[0] == model.flat_index(0, PoolDecision.OVERRIDE)
        assert np.array_equal(solver.policy_step(improved, solver.evaluate(improved).share), improved)


class TestCaching:
    def test_cache_returns_the_same_result_object(self):
        clear_policy_cache()
        params = MiningParams(alpha=0.33, gamma=0.4)
        first = solve_optimal_policy(params, max_lead=MAX_LEAD)
        second = solve_optimal_policy(params, EthereumByzantiumSchedule(), max_lead=MAX_LEAD)
        assert second is first  # schedules compared by value, not identity

    def test_cache_distinguishes_schedules_and_truncations(self):
        clear_policy_cache()
        params = MiningParams(alpha=0.33, gamma=0.4)
        byzantium = solve_optimal_policy(params, max_lead=MAX_LEAD)
        flat = solve_optimal_policy(params, FlatUncleSchedule(0.5), max_lead=MAX_LEAD)
        deeper = solve_optimal_policy(params, max_lead=MAX_LEAD + 5)
        assert flat is not byzantium
        assert deeper is not byzantium
        assert deeper.max_lead == MAX_LEAD + 5

    def test_invalid_truncation_rejected(self):
        with pytest.raises(ParameterError, match="max_lead"):
            solve_optimal_policy(MiningParams(alpha=0.3, gamma=0.5), max_lead=1)


class TestNoInteriorPolicyWins:
    """README's finding: every optimum is honest mining or exactly Algorithm 1.

    A policy-improvement loop that stopped a round early would leave an optimum
    below one of the two corners, or label it ``selfish+k``.
    """

    ALPHAS = [round(0.05 + 0.04 * step, 2) for step in range(12)]
    SCHEDULES = {
        "byzantium": EthereumByzantiumSchedule(),
        "flat-2/8": FlatUncleSchedule(2 / 8),
        "flat-7/8": FlatUncleSchedule(7 / 8),
        "bitcoin": BitcoinSchedule(),
    }

    @pytest.mark.parametrize("name", SCHEDULES)
    def test_every_optimum_is_a_corner(self, name):
        schedule = self.SCHEDULES[name]
        for alpha in self.ALPHAS:
            for gamma in (0.0, 0.5, 1.0):
                solver = MdpSolver(MiningParams(alpha=alpha, gamma=gamma), schedule)
                result = solver.solve()
                selfish = solver.evaluate(solver.model.selfish_policy()).share
                honest = solver.evaluate(solver.model.honest_policy()).share
                point = (alpha, gamma)
                assert result.policy_label() in ("honest", "selfish"), point
                assert result.optimal_share == max(selfish, honest), point
