"""repro — a reproduction of "Selfish Mining in Ethereum" (Niu & Feng, ICDCS 2019).

The package models the selfish-mining race between a colluding pool and honest miners
under Ethereum's reward rules (static, uncle and nephew rewards) three ways, and lets
them be compared number for number:

* an **analytical model**: the paper's 2-dimensional Markov process, its stationary
  distribution, the probabilistic per-transition reward tracking of Appendix B, and
  the resulting revenue/threshold results (:mod:`repro.analysis`, :mod:`repro.markov`);
* a **discrete-event simulator** that materialises every block, runs Algorithm 1
  against honest miners and settles rewards on the final chain
  (:mod:`repro.simulation`, :mod:`repro.chain`);
* the **Eyal–Sirer Bitcoin baseline** used for comparison, in closed form
  (:mod:`repro.analysis.bitcoin`).

Typical quick start::

    from repro import MiningParams, RevenueModel, Scenario, absolute_revenue

    model = RevenueModel()                       # Ethereum Byzantium rewards
    rates = model.revenue_rates(MiningParams(alpha=0.3, gamma=0.5))
    print(absolute_revenue(rates, Scenario.REGULAR_ONLY).pool)

The experiment drivers in :mod:`repro.experiments` regenerate every table and figure
of the paper's evaluation; the ``repro-experiments`` console script exposes them on
the command line.
"""

from .analysis.absolute import AbsoluteRevenue, Scenario, absolute_revenue
from .analysis.bitcoin import bitcoin_relative_revenue, bitcoin_threshold
from .analysis.revenue import RevenueModel, RevenueRates
from .analysis.sweep import sweep_alpha
from .analysis.threshold import ThresholdResult, profitable_threshold
from .analysis.uncle_distance import UncleDistanceDistribution
from .errors import (
    ChainStructureError,
    ConvergenceError,
    ParameterError,
    ReproError,
    SimulationError,
    SolverError,
    StateSpaceError,
)
from .params import MiningParams
from .rewards.breakdown import PartyRewards, RevenueSplit
from .rewards.schedule import (
    BitcoinSchedule,
    CustomSchedule,
    EthereumByzantiumSchedule,
    FlatUncleSchedule,
    RewardSchedule,
    ethereum_schedule,
    flat_uncle_schedule,
)
from .backends import SimulatorBackend, available_backends, make_simulator, register_backend
from .network.latency import ConstantLatency, ExponentialLatency, LatencyModel, ZeroLatency
from .network.simulator import NetworkSimulator
from .network.topology import MinerSpec, Topology, multi_pool_topology, single_pool_topology
from .scenarios import ScenarioSpec, run_scenario, run_scenarios
from .store import ResultStore, config_fingerprint
from .simulation.config import SimulationConfig
from .simulation.engine import ChainSimulator
from .simulation.fast import MarkovMonteCarlo
from .simulation.metrics import (
    AggregatedResult,
    MinerOutcome,
    NetworkSimulationResult,
    SimulationResult,
    aggregate_results,
)
from .simulation.runner import run_many, run_once
from .strategies import (
    Action,
    EqualForkStubbornStrategy,
    HonestStrategy,
    LeadEqualForkStubbornStrategy,
    LeadStubbornStrategy,
    MiningStrategy,
    SelfishStrategy,
    available_strategies,
    make_strategy,
    register_strategy,
)

__version__ = "1.0.0"

__all__ = [
    "AbsoluteRevenue",
    "Action",
    "AggregatedResult",
    "BitcoinSchedule",
    "ChainSimulator",
    "ChainStructureError",
    "ConstantLatency",
    "ConvergenceError",
    "CustomSchedule",
    "EqualForkStubbornStrategy",
    "EthereumByzantiumSchedule",
    "ExponentialLatency",
    "FlatUncleSchedule",
    "HonestStrategy",
    "LatencyModel",
    "LeadEqualForkStubbornStrategy",
    "LeadStubbornStrategy",
    "MarkovMonteCarlo",
    "MinerOutcome",
    "MinerSpec",
    "MiningParams",
    "MiningStrategy",
    "NetworkSimulationResult",
    "NetworkSimulator",
    "ParameterError",
    "PartyRewards",
    "ReproError",
    "ResultStore",
    "RevenueModel",
    "RevenueRates",
    "RevenueSplit",
    "RewardSchedule",
    "Scenario",
    "ScenarioSpec",
    "SimulatorBackend",
    "SelfishStrategy",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "SolverError",
    "StateSpaceError",
    "ThresholdResult",
    "Topology",
    "UncleDistanceDistribution",
    "ZeroLatency",
    "absolute_revenue",
    "aggregate_results",
    "available_backends",
    "available_strategies",
    "config_fingerprint",
    "bitcoin_relative_revenue",
    "bitcoin_threshold",
    "ethereum_schedule",
    "flat_uncle_schedule",
    "make_simulator",
    "make_strategy",
    "multi_pool_topology",
    "profitable_threshold",
    "register_backend",
    "register_strategy",
    "run_many",
    "run_once",
    "run_scenario",
    "run_scenarios",
    "single_pool_topology",
    "sweep_alpha",
    "__version__",
]
