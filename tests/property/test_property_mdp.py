"""Property-based tests for the optimal-strategy MDP subsystem.

Three families of universally quantified facts:

* **Solver optimality** — the solved share dominates every policy the MDP's
  family contains, in particular the analytically evaluable catalogue corners
  (Algorithm 1, honest mining's ``revenue = alpha``), for random
  ``(alpha, gamma)`` points.
* **Policy-improvement monotonicity** — the policy-iteration share sequence never
  decreases, and pinning the policy to Algorithm 1 reproduces
  :class:`~repro.analysis.revenue.RevenueModel`'s rates exactly: the MDP is a
  strict generalisation of the paper's chain, not a parallel implementation.
* **Engine safety of arbitrary tables** — an :class:`OptimalStrategy` built from
  a *random* withhold/override table (not just solved ones) keeps every chain
  simulator invariant: the accounting closes, the tree validates, and overrides
  are always protocol-valid (the published branch is strictly longest).
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.analysis.revenue import RevenueModel
from repro.chain.validation import validate_tree
from repro.markov.state import LumpedSpace, State
from repro.mdp.solver import MdpSolver
from repro.params import MiningParams
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator
from repro.strategies import OptimalStrategy

#: Truncation used by the random-point solves: small enough that one solve costs
#: milliseconds, and every analytical comparison uses the *same* truncation so
#: the dominance facts are exact rather than tolerance-smeared.
MAX_LEAD = 12

#: Codes eligible for random policy tables (class representatives of a small
#: space), always joined with the forced tie-break code.
TABLE_CODES = sorted(state.encode() for state in LumpedSpace(8))
TIE_CODE = State(1, 1).encode()

parameter_points = st.tuples(
    st.floats(min_value=0.0, max_value=0.45, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point=parameter_points)
def test_optimal_share_dominates_the_evaluable_catalogue(point):
    """Optimal >= Algorithm 1 and >= honest everywhere (both are corner policies)."""
    alpha, gamma = point
    params = MiningParams(alpha=alpha, gamma=gamma)
    solver = MdpSolver(params, max_lead=MAX_LEAD)
    result = solver.solve()
    selfish = solver.evaluate(solver.model.selfish_policy()).share
    honest = solver.evaluate(solver.model.honest_policy()).share
    assert result.optimal_share >= selfish - 1e-12
    assert result.optimal_share >= honest - 1e-12
    assert result.optimal_share == pytest.approx(max(result.shares), abs=1e-15)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point=parameter_points)
def test_policy_improvement_is_monotone(point):
    """The policy-iteration share sequence strictly increases round by round."""
    alpha, gamma = point
    result = MdpSolver(MiningParams(alpha=alpha, gamma=gamma), max_lead=MAX_LEAD).solve()
    for earlier, later in zip(result.shares, result.shares[1:]):
        assert later > earlier  # each improvement round strictly raises the share


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point=parameter_points)
def test_selfish_pinned_value_matches_the_markov_chain_revenue(point):
    """Pinning the policy to Algorithm 1 reproduces the analytical model's rates exactly."""
    alpha, gamma = point
    params = MiningParams(alpha=alpha, gamma=gamma)
    solver = MdpSolver(params, max_lead=MAX_LEAD)
    pinned = solver.evaluate(solver.model.selfish_policy()).rates
    expected = RevenueModel(max_lead=MAX_LEAD).revenue_rates(params)
    for field in dataclasses.fields(expected):
        assert getattr(pinned, field.name) == getattr(expected, field.name), field.name


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    alpha=st.floats(min_value=0.05, max_value=0.45, allow_nan=False),
    gamma=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    blocks=st.integers(min_value=60, max_value=300),
    extra_codes=st.sets(st.sampled_from(TABLE_CODES), max_size=6),
)
def test_random_policy_tables_uphold_the_engine_invariants(
    alpha, gamma, seed, blocks, extra_codes
):
    """Any withhold/override table runs safely through the full chain simulator."""
    table = tuple(sorted(extra_codes | {TIE_CODE}))
    strategy = OptimalStrategy(override_codes=table)
    config = SimulationConfig(
        params=MiningParams(alpha=alpha, gamma=gamma),
        num_blocks=blocks,
        seed=seed,
        validate_chain=True,
    )
    simulator = ChainSimulator(config, strategy=strategy)
    result = simulator.run()
    assert (
        result.regular_blocks + result.uncle_blocks + result.stale_blocks
        == result.total_blocks
        == blocks
    )
    assert result.pool_regular_blocks + result.honest_regular_blocks == result.regular_blocks
    assert 0.0 <= result.relative_pool_revenue <= 1.0
    validate_tree(simulator.tree)
