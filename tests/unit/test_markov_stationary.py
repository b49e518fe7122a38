"""Unit tests for the stationary-distribution solvers."""

from __future__ import annotations

import warnings

import pytest

from reference_markov import (
    banded_stationary_distribution,
    build_selfish_mining_chain,
    solve_power_iteration,
)

from repro.errors import SolverError
from repro.markov.chain import MarkovChain, Transition
from repro.markov.stationary import stationary_distribution
from repro.markov.state import LumpedSpace, State
from repro.markov.transitions import selfish_mining_transitions
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


def lumped_chain(params: MiningParams, max_lead: int) -> MarkovChain[State]:
    space = LumpedSpace(max_lead)
    return MarkovChain(space.states, [t.as_transition() for t in selfish_mining_transitions(params, space)])


class TestBandedSolver:
    @pytest.mark.parametrize("max_lead", [30, 60, 200])
    @pytest.mark.parametrize("alpha", [1e-4, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49])
    def test_agrees_with_the_sparse_lu_solve_on_lumped_chains(self, max_lead, alpha):
        for gamma in (0.0, 0.5, 1.0):
            chain = lumped_chain(MiningParams(alpha=alpha, gamma=gamma), max_lead)
            banded = banded_stationary_distribution(chain)
            direct = stationary_distribution(chain)
            assert max(abs(b - d) for b, d in zip(banded.probabilities, direct.probabilities)) <= 1e-14
            assert banded.residual <= 1e-12

    def test_two_state_chain(self):
        result = banded_stationary_distribution(two_state_chain(p=0.3, q=0.6))
        assert result.probability("up") == pytest.approx(0.6 / 0.9, abs=1e-15)
        assert result.total_probability() == pytest.approx(1.0, abs=1e-15)

    def test_fill_in_on_a_wide_chain_matches_the_sparse_lu_solve(self):
        # The (Ls, Lh) order is not banded: elimination fills in, and the
        # answer must still be the sparse LU one.
        chain = build_selfish_mining_chain(MiningParams(alpha=0.35, gamma=0.5), max_lead=12)
        banded = banded_stationary_distribution(chain)
        direct = stationary_distribution(chain)
        assert max(abs(b - d) for b, d in zip(banded.probabilities, direct.probabilities)) <= 1e-14

    @pytest.mark.parametrize("max_lead", [2, 3, 60])
    def test_lumped_chain_inflows_stay_within_two_positions(self, max_lead):
        # Resets to (0, 0) land in the anchor row, which the solve replaces;
        # every other inflow must come from at most two positions away, so the
        # elimination creates no fill-in.
        chain = lumped_chain(MiningParams(alpha=0.3, gamma=0.5), max_lead)
        widths = [
            abs(chain.index_of(t.source) - chain.index_of(t.target))
            for t in chain.transitions
            if chain.index_of(t.target) != 0
        ]
        assert max(widths) <= 2


class TestSolverErrors:
    def transient_anchor_chain(self) -> MarkovChain[int]:
        # State 0 leaks into the absorbing state 1, so pi(0) = 0 and anchoring
        # pi(0) = 1 has no solution.
        return MarkovChain([0, 1], [Transition(0, 1, 1.0), Transition(1, 1, 1.0)])

    def test_banded_solve_reports_the_zero_pivot(self):
        with pytest.raises(SolverError, match="zero pivot at state index 1"):
            banded_stationary_distribution(self.transient_anchor_chain())

    def test_sparse_lu_solve_reports_the_singular_system(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns that the matrix is singular
            with pytest.raises(SolverError):
                stationary_distribution(self.transient_anchor_chain())


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
