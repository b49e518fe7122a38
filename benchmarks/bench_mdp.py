"""Micro-benchmarks of the optimal-strategy MDP solver.

The solver works on the analytical model's lumped ``(lead, forked)`` space
(``2 * max_lead + 1`` states, ``4 * max_lead + 1`` actions).  Tracked here:
compiling the model, a full solve at the strategy default lead cap
(``max_lead=60``, what every ``strategy="optimal"`` simulation pays once per
process and parameter point) and at ``max_lead=200`` (the largest cap the
``optimal`` experiment driver is asked for in practice), one bias solve of
policy iteration, and the exact evaluation of one policy — the MDP side of
``test_revenue_evaluation_benchmark`` in ``bench_engines.py``, which makes the
same banded solve and reward fold.  The solve is run uncached
(:class:`~repro.mdp.solver.MdpSolver` directly) so the numbers measure model
compilation plus the policy-iteration rounds (exact evaluation, bias solve,
improvement), not the cache.

Sizes honour ``REPRO_BENCH_SCALE`` like the other benchmark files: the scale
multiplies the lead cap (floor 12), which smoke runs use to finish in
milliseconds.
"""

from __future__ import annotations

import os

import pytest

from repro.mdp.model import MdpModel
from repro.mdp.solver import MdpSolver
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule

#: A profitable parameter point, so the solve performs real improvement rounds.
PARAMS = MiningParams(alpha=0.4, gamma=0.5)

#: Scale multiplier for the lead caps (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled_lead(max_lead: int) -> int:
    """``max_lead`` scaled by ``REPRO_BENCH_SCALE`` (at least 12)."""
    return max(12, int(max_lead * BENCH_SCALE))


def _solve(max_lead: int):
    solver = MdpSolver(PARAMS, max_lead=max_lead)
    return solver.solve()


def test_mdp_compile_benchmark(benchmark):
    """Model compilation alone: actions, edge arrays and expected rewards."""
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    model = benchmark(MdpModel, PARAMS, EthereumByzantiumSchedule(), max_lead=lead)
    assert model.num_states == 2 * lead + 1


def test_mdp_solve_default_truncation_benchmark(benchmark):
    """Full solve at the strategy default lead cap (model build + policy iteration)."""
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    result = benchmark.pedantic(_solve, args=(lead,), rounds=3, iterations=1)
    assert result.optimal_share >= PARAMS.alpha


def test_mdp_solve_paper_truncation_benchmark(benchmark):
    """Full solve at ``max_lead=200``, the driver's worst case."""
    lead = scaled_lead(200)
    benchmark.extra_info["max_lead"] = lead
    result = benchmark.pedantic(_solve, args=(lead,), rounds=1, iterations=1)
    assert result.optimal_share >= PARAMS.alpha


def test_mdp_bias_solve_benchmark(benchmark):
    """One bias solve of Algorithm 1's policy at the default lead cap.

    Separates policy iteration's linear solve (the policy's transitions
    scattered into a dense system, then ``numpy.linalg.solve``) from model
    compilation and policy evaluation.
    """
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    solver = MdpSolver(PARAMS, max_lead=lead)
    policy = solver.model.selfish_policy()
    share = solver.evaluate(policy).share
    bias = benchmark(solver.bias, policy, share)
    assert bias[0] == 0.0
    assert len(bias) == solver.model.num_states


def test_mdp_policy_evaluation_benchmark(benchmark):
    """Exact evaluation of Algorithm 1's policy: edge gather, banded solve, fold."""
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    solver = MdpSolver(PARAMS, max_lead=lead)
    policy = solver.model.selfish_policy()
    evaluation = benchmark(solver.evaluate, policy)
    assert evaluation.rates.block_rate == pytest.approx(1.0)
