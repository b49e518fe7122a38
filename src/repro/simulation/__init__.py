"""Discrete-event simulation of selfish mining in Ethereum (Section V of the paper).

Two simulators are provided:

* :class:`~repro.simulation.engine.ChainSimulator` — the full-fidelity simulator: it
  records every block in a :class:`~repro.chain.arrays.ArrayBlockTree`, runs the
  selfish pool's Algorithm 1 against honest miners with ``gamma`` tie-breaking, lets
  both sides attach uncle references under the protocol rules, and settles rewards on
  the final main chain.  It shares *no* code with the analytical reward
  engine, which makes the analysis-vs-simulation agreement a genuine cross-check.
* :class:`~repro.simulation.fast.MarkovMonteCarlo` — a lightweight Monte Carlo that
  samples the Markov chain's transitions directly and accrues the per-transition
  expected rewards.  It is orders of magnitude faster and validates the chain/
  stationary machinery, at the price of reusing the analytical reward cases.

Multi-run orchestration, seeding and aggregation live in
:mod:`repro.simulation.runner`.
"""

from .config import SimulationConfig
from .difficulty import DifficultyRule, EIP100Rule, PreByzantiumRule, difficulty_rule_for
from .engine import ChainSimulator, RaceState
from .fast import MarkovMonteCarlo
from .metrics import AggregatedResult, SimulationResult, aggregate_results
from .rng import RandomSource
from .runner import (
    run_many,
    run_many_grid,
    run_once,
    simulate_alpha_sweep,
    simulate_strategy_sweep,
)

__all__ = [
    "AggregatedResult",
    "ChainSimulator",
    "DifficultyRule",
    "EIP100Rule",
    "MarkovMonteCarlo",
    "PreByzantiumRule",
    "RaceState",
    "RandomSource",
    "SimulationConfig",
    "SimulationResult",
    "aggregate_results",
    "difficulty_rule_for",
    "run_many",
    "run_many_grid",
    "run_once",
    "simulate_alpha_sweep",
    "simulate_strategy_sweep",
]
