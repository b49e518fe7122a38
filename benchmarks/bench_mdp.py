"""Micro-benchmarks of the optimal-strategy MDP solver.

Tracks the cost of solving the withhold/override decision process at the two
truncation levels that matter in practice: the strategy default (``max_lead=60``,
what every ``strategy="optimal"`` simulation pays once per process and parameter
point) and the paper's full truncation (``max_lead=200``, the worst case the
``optimal`` experiment driver can be asked for), plus the exact evaluation of one
policy — the MDP side of the reward fold ``test_revenue_evaluation_benchmark`` in
``bench_engines.py`` times for the analytical model.  The solve is run uncached
(:class:`~repro.mdp.solver.MdpSolver` directly) so the numbers measure model
compilation plus relative value iteration plus the exact Dinkelbach evaluations,
not the cache.

Sizes honour ``REPRO_BENCH_SCALE`` like the other benchmark files: the scale
multiplies the truncation level (floor 12), which smoke runs use to finish in
milliseconds.
"""

from __future__ import annotations

import os

import pytest

from repro.mdp.solver import MdpSolver
from repro.params import MiningParams

#: A profitable parameter point, so the solve performs real improvement rounds.
PARAMS = MiningParams(alpha=0.4, gamma=0.5)

#: Scale multiplier for the truncation levels (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled_lead(max_lead: int) -> int:
    """``max_lead`` scaled by ``REPRO_BENCH_SCALE`` (at least 12)."""
    return max(12, int(max_lead * BENCH_SCALE))


def _solve(max_lead: int):
    solver = MdpSolver(PARAMS, max_lead=max_lead)
    return solver.solve()


def test_mdp_solve_default_truncation_benchmark(benchmark):
    """Full solve at the strategy default truncation (model build + RVI + evaluation)."""
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    result = benchmark.pedantic(_solve, args=(lead,), rounds=1, iterations=1)
    assert result.optimal_share >= PARAMS.alpha


def test_mdp_solve_paper_truncation_benchmark(benchmark):
    """Full solve at the paper's truncation level (the driver's worst case)."""
    lead = scaled_lead(200)
    benchmark.extra_info["max_lead"] = lead
    result = benchmark.pedantic(_solve, args=(lead,), rounds=1, iterations=1)
    assert result.optimal_share >= PARAMS.alpha


def test_mdp_improve_sweep_benchmark(benchmark):
    """One converged relative-value-iteration call at the default truncation.

    Separates the Bellman-sweep cost from model compilation, so regressions in
    the compiled tables and in the iteration itself are distinguishable.
    """
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    solver = MdpSolver(PARAMS, max_lead=lead)
    rho = float(PARAMS.alpha)
    policy, _, sweeps = benchmark.pedantic(
        lambda: solver.improve(rho), rounds=1, iterations=1
    )
    assert sweeps >= 1
    assert len(policy) == solver.model.num_states


def test_mdp_policy_evaluation_benchmark(benchmark):
    """Exact evaluation of Algorithm 1's policy: chain build, stationary solve, fold."""
    lead = scaled_lead(60)
    benchmark.extra_info["max_lead"] = lead
    solver = MdpSolver(PARAMS, max_lead=lead)
    policy = solver.model.selfish_policy()
    evaluation = benchmark(solver.evaluate, policy)
    assert evaluation.rates.block_rate == pytest.approx(1.0)
