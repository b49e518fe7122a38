"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every driver follows the same pattern: a ``run_*`` function evaluates the analytical
model (and, where the paper does, the simulator) over the grid the paper used and
returns a result dataclass with a ``report()`` method that renders the same rows or
series the paper presents.  The ``repro-experiments`` CLI prints these reports.

Fidelity knobs: every driver accepts a ``fast`` flag (coarser grids, shorter
simulations) so that the full suite can be exercised quickly in CI.
"""

from .discussion import DiscussionResult, run_discussion
from .figure8 import Figure8Result, run_figure8
from .figure9 import Figure9Result, run_figure9
from .figure10 import Figure10Result, run_figure10
from .network import NetworkExperimentResult, run_network
from .pools import MiningPool, TOP_POOLS_2018, pool_concentration_report
from .strategies import StrategyComparisonResult, run_strategy_comparison
from .table1 import Table1Result, run_table1
from .table2 import Table2Result, run_table2

__all__ = [
    "DiscussionResult",
    "Figure10Result",
    "Figure8Result",
    "Figure9Result",
    "MiningPool",
    "NetworkExperimentResult",
    "StrategyComparisonResult",
    "TOP_POOLS_2018",
    "Table1Result",
    "Table2Result",
    "pool_concentration_report",
    "run_discussion",
    "run_figure10",
    "run_figure8",
    "run_figure9",
    "run_network",
    "run_strategy_comparison",
    "run_table1",
    "run_table2",
]
