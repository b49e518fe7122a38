"""The MDP's closing loop: solver predictions vs Monte Carlo of the extracted policy.

Two acceptance facts pin the subsystem end to end:

* at representative ``(alpha, gamma)`` grid points the solver-predicted relative
  revenue of the extracted optimal policy matches a >= 50k-block Monte Carlo run
  of :class:`~repro.strategies.optimal.OptimalStrategy` within statistical error
  (3 sigma of the run spread, plus the same small finite-sample slack the network
  equivalence suite uses);
* across the whole figure-8 alpha grid the optimal share dominates Algorithm 1's
  revenue from :class:`~repro.analysis.revenue.RevenueModel` at the same lead
  cap (equality where Algorithm 1 *is* optimal), and the solver's policy structure flips from honest to selfish
  exactly once — the profitability threshold, rediscovered as an argmax rather
  than a revenue crossing.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.sweep import alpha_grid
from repro.mdp.solver import solve_optimal_policy
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_many

#: The figure-8 grid (0 .. 0.45 in steps of 0.05).
ALPHAS = alpha_grid(0.0, 0.45, 0.05)

RUNS = 4
SEED = 2026

#: Grid points of the solver-vs-simulation check, with the backend each uses:
#: one full-fidelity chain run above the threshold, the cheap compiled-table
#: Monte Carlo below it and at the high-gamma corner.
GRID_POINTS = [
    (0.10, 0.5, "markov", 100_000),
    (0.30, 0.5, "chain", 50_000),
    (0.40, 0.9, "markov", 100_000),
]


class TestSolverMatchesMonteCarlo:
    @pytest.mark.parametrize(
        "alpha,gamma,backend,blocks",
        GRID_POINTS,
        ids=lambda value: str(value),
    )
    def test_predicted_revenue_within_3_sigma_of_simulation(self, alpha, gamma, backend, blocks):
        params = MiningParams(alpha=alpha, gamma=gamma)
        predicted = solve_optimal_policy(params).optimal_share
        config = SimulationConfig(
            params=params, num_blocks=blocks, seed=SEED, strategy="optimal"
        )
        aggregate = run_many(config, RUNS, backend=backend)
        measured = aggregate.relative_pool_revenue
        sigma = measured.std / math.sqrt(RUNS)
        assert abs(measured.mean - predicted) <= 3.0 * sigma + 3e-3, (
            f"alpha={alpha}, gamma={gamma} ({backend}): "
            f"solver {predicted:.5f} vs simulation {measured}"
        )


class TestFigure8Dominance:
    @pytest.fixture(scope="class")
    def frontier(self, ethereum_model):
        cells = []
        for alpha in ALPHAS:
            params = MiningParams(alpha=alpha, gamma=0.5)
            policy = solve_optimal_policy(params)
            selfish = ethereum_model.relative_pool_revenue(params) if alpha > 0.0 else 0.0
            cells.append((alpha, policy, selfish))
        return cells

    def test_optimal_dominates_selfish_on_the_whole_grid(self, frontier):
        for alpha, policy, selfish in frontier:
            assert policy.optimal_share >= selfish - 1e-12, (
                f"alpha={alpha}: optimal {policy.optimal_share:.6f} "
                f"below selfish {selfish:.6f}"
            )

    def test_optimal_dominates_the_honest_baseline(self, frontier):
        for alpha, policy, _ in frontier:
            assert policy.optimal_share >= alpha - 1e-12

    def test_policy_structure_is_a_single_threshold(self, frontier):
        labels = [policy.policy_label() for alpha, policy, _ in frontier if alpha > 0.0]
        assert set(labels) <= {"honest", "selfish"}
        # Honest below the threshold, Algorithm 1 above: one flip, never back.
        first_selfish = labels.index("selfish")
        assert all(label == "honest" for label in labels[:first_selfish])
        assert all(label == "selfish" for label in labels[first_selfish:])

    def test_optimal_equals_the_better_corner_on_this_grid(self, frontier):
        for alpha, policy, selfish in frontier:
            best_corner = max(selfish, alpha)
            assert policy.optimal_share == pytest.approx(best_corner, abs=1e-9)


class TestStubbornMiningBeatsTheWithholdOverrideOptimum:
    """The MDP optimises withhold/override on pool events only.

    Honest-event responses stay fixed to Algorithm 1, so the catalogue's
    ``lead_stubborn``, which keeps racing where Algorithm 1 gives up, lies
    outside its policy class and beats its exact optimum at large ``alpha``.
    """

    def test_lead_stubborn_earns_more_than_five_standard_errors_above(self):
        params = MiningParams(alpha=0.45, gamma=0.5)
        optimum = solve_optimal_policy(params).optimal_share
        config = SimulationConfig(
            params=params, num_blocks=20_000, seed=SEED, strategy="lead_stubborn"
        )
        runs = 10
        measured = run_many(config, runs, backend="chain", max_workers=1).relative_pool_revenue
        standard_error = measured.std / math.sqrt(runs)
        assert measured.mean - optimum > 5.0 * standard_error, (
            f"lead_stubborn {measured} vs withhold/override optimum {optimum:.5f}"
        )
