"""Micro-benchmarks of the underlying engines.

These do not correspond to a specific paper artifact; they track the cost of the
building blocks every experiment rests on — the stationary solve, one analytical
revenue evaluation, a threshold search, and the two simulator backends — so that
performance regressions show up alongside the reproduction benchmarks.

Benchmarked sizes honour the ``REPRO_BENCH_SCALE`` environment variable (a float
multiplier applied to the block counts, default 1.0) so that CI can run the same
suite as a quick smoke at a fraction of paper scale; ``benchmarks/run_benchmarks.py``
sets it for its ``--smoke`` mode.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.absolute import Scenario
from repro.analysis.revenue import RevenueModel
from repro.analysis.threshold import profitable_threshold
from repro.markov.chain import MarkovChain
from repro.markov.state import LumpedSpace
from repro.markov.stationary import stationary_distribution
from repro.markov.transitions import LumpedChain, selfish_mining_transitions
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ChainSimulator
from repro.simulation.fast import MarkovMonteCarlo

PARAMS = MiningParams(alpha=0.35, gamma=0.5)

#: Scale multiplier for the simulator block counts (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(blocks: int) -> int:
    """``blocks`` scaled by ``REPRO_BENCH_SCALE`` (at least 1000)."""
    return max(1000, int(blocks * BENCH_SCALE))


def lumped_chain(max_lead: int) -> MarkovChain:
    """The lumped chain ``RevenueModel`` solves at ``PARAMS``."""
    space = LumpedSpace(max_lead)
    return MarkovChain(space.states, [t.as_transition() for t in selfish_mining_transitions(PARAMS, space)])


@pytest.mark.parametrize("max_lead", [60, 200])
def test_stationary_solve_benchmark(benchmark, max_lead):
    """The production elimination of the lumped chain (``LumpedChain.solve``), rates precomputed."""
    chain = LumpedChain(LumpedSpace(max_lead))
    probabilities, _ = benchmark(chain.solve, chain.rates(PARAMS))
    assert sum(probabilities) == pytest.approx(1.0)


@pytest.mark.parametrize("max_lead", [60, 200])
def test_stationary_superlu_comparison_benchmark(benchmark, max_lead):
    """Comparison only: the generic sparse LU solve (SuperLU) on the same chain."""
    result = benchmark(stationary_distribution, lumped_chain(max_lead))
    assert result.total_probability() == pytest.approx(1.0)


def test_revenue_evaluation_benchmark(benchmark):
    model = RevenueModel(EthereumByzantiumSchedule(), max_lead=60)
    rates = benchmark(model.revenue_rates, PARAMS)
    assert rates.block_rate == pytest.approx(1.0)


def test_threshold_search_benchmark(benchmark):
    model = RevenueModel(FlatUncleSchedule(0.5), max_lead=30)
    result = benchmark.pedantic(
        profitable_threshold,
        args=(0.5,),
        kwargs={"scenario": Scenario.REGULAR_ONLY, "model": model},
        rounds=1,
        iterations=1,
    )
    assert result.alpha_star == pytest.approx(0.163, abs=0.005)


def test_uncle_candidate_lookup_benchmark(benchmark):
    """Track the uncle-selection hot path over a finished tree.

    Runs ``select_uncles`` from every block of a finished chain run as the
    parent, once with the pool's full view and once with the honest published
    view — the call both simulators make per mined block.
    """
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=scaled(10_000), seed=1
    )
    simulator = ChainSimulator(config)
    simulator.run()
    tree = simulator.tree
    published = tree.published_ids

    def select_from_every_parent():
        total = 0
        for parent_id in range(len(tree)):
            total += len(tree.select_uncles(parent_id, max_distance=6, max_count=2))
            total += len(
                tree.select_uncles(parent_id, max_distance=6, max_count=2, known=published)
            )
        return total

    total = benchmark(select_from_every_parent)
    assert total > 0


def test_chain_simulator_benchmark(benchmark):
    blocks = scaled(20_000)
    benchmark.extra_info["blocks"] = blocks
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=blocks, seed=1
    )
    result = benchmark.pedantic(lambda: ChainSimulator(config).run(), rounds=1, iterations=1)
    assert result.total_blocks == blocks


def test_markov_monte_carlo_benchmark(benchmark):
    """The compiled-table Markov backend."""
    blocks = scaled(100_000)
    benchmark.extra_info["blocks"] = blocks
    config = SimulationConfig(
        params=PARAMS, schedule=EthereumByzantiumSchedule(), num_blocks=blocks, seed=1
    )
    result = benchmark.pedantic(lambda: MarkovMonteCarlo(config).run(), rounds=1, iterations=1)
    assert result.total_blocks == blocks
