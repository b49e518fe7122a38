"""Strategy comparison: relative revenue of every mining strategy vs pool size.

A Fig-8-style overlay that goes beyond the paper: instead of comparing analysis
against simulation for the one strategy the paper studies, this driver sweeps the
pool's *behaviour* — honest mining, the paper's Algorithm 1, and the stubborn-mining
family of Nayak et al. — over a grid of pool sizes and reports the pool's relative
revenue under each.  The honest row doubles as the ``revenue = alpha`` reference
line: a strategy is profitable at a grid point exactly where its relative revenue
exceeds the honest value.

All strategies are simulated with the full chain simulator (the stubborn variants
have no Markov-chain model) under a paired protocol: every strategy sees the same
master seed, so at each grid point the strategies face identical mining luck and
the differences between rows are attributable to behaviour alone.  The independent
runs behind every cell can be fanned out over a process pool (``max_workers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..analysis.sweep import alpha_grid
from ..errors import ParameterError
from ..rewards.schedule import RewardSchedule
from ..scenarios import ScenarioSpec, run_scenario
from ..simulation.fast import MARKOV_STRATEGIES
from ..simulation.metrics import AggregatedResult
from ..strategies import available_strategies
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy

#: Strategies compared by default: the protocol baseline, the paper's Algorithm 1,
#: and the two single-deviation stubborn variants.
DEFAULT_STRATEGIES = ("honest", "selfish", "lead_stubborn", "equal_fork_stubborn")

#: The tie-breaking parameter used by default (matches Fig. 8).
STRATEGIES_GAMMA = 0.5


@dataclass(frozen=True)
class StrategyComparisonResult:
    """Aggregated simulation results per (strategy, alpha) grid point."""

    gamma: float
    strategies: tuple[str, ...]
    alphas: tuple[float, ...]
    aggregates: Mapping[str, tuple[AggregatedResult, ...]]
    backend: str = "chain"

    def relative_revenue(self, strategy: str) -> list[float]:
        """Mean relative pool revenue of ``strategy`` at every swept ``alpha``."""
        return [point.relative_pool_revenue.mean for point in self.aggregates[strategy]]

    def stale_fraction(self, strategy: str) -> list[float]:
        """Mean stale-block fraction of ``strategy`` at every swept ``alpha``."""
        return [point.stale_fraction.mean for point in self.aggregates[strategy]]

    def crossover_alpha(self, strategy: str) -> float | None:
        """First swept ``alpha`` at which ``strategy`` beats honest mining.

        Profitability is measured against the paired honest baseline when the sweep
        includes one, falling back to the ideal ``revenue = alpha`` line otherwise.
        """
        if strategy == "honest":
            return None
        baseline = (
            self.relative_revenue("honest")
            if "honest" in self.aggregates
            else list(self.alphas)
        )
        for alpha, revenue, fair in zip(self.alphas, self.relative_revenue(strategy), baseline):
            if alpha > 0.0 and revenue > fair:
                return alpha
        return None

    def report(self) -> str:
        """Render the comparison as one relative-revenue table plus crossover notes."""
        table = Table(
            headers=["alpha"] + [strategy.replace("_", " ") for strategy in self.strategies],
            title=(
                "Strategy comparison - relative pool revenue vs pool size "
                f"(gamma={self.gamma}, {self.backend} simulator)"
            ),
        )
        columns = {strategy: self.relative_revenue(strategy) for strategy in self.strategies}
        for index, alpha in enumerate(self.alphas):
            table.add_row(alpha, *[columns[strategy][index] for strategy in self.strategies])
        lines = [table.render()]
        for strategy in self.strategies:
            if strategy == "honest":
                continue
            crossover = self.crossover_alpha(strategy)
            if crossover is None:
                lines.append(f"{strategy} never beats honest mining on this grid.")
            else:
                lines.append(f"{strategy} first beats honest mining at alpha ~ {crossover:.3f}.")
        return "\n".join(lines)


def strategies_scenario(
    *,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    alphas: Sequence[float],
    gamma: float = STRATEGIES_GAMMA,
    schedule: RewardSchedule | None = None,
    simulation_blocks: int = 25_000,
    simulation_runs: int = 3,
    simulation_backend: str = "chain",
    seed: int = 2019,
) -> ScenarioSpec:
    """The declarative (strategy x alpha) sweep behind the comparison table.

    Every cell shares the scenario's master seed, so at each grid point the
    strategies face identical mining luck (paired-comparison protocol).
    """
    return ScenarioSpec(
        name="strategies",
        alphas=tuple(alphas),
        gammas=(gamma,),
        strategies=tuple(strategies),
        backends=(simulation_backend,),
        schedules=(schedule if schedule is not None else "ethereum",),
        num_runs=simulation_runs,
        num_blocks=simulation_blocks,
        seed=seed,
    )


def run_strategy_comparison(
    *,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    alphas: Sequence[float] | None = None,
    gamma: float = STRATEGIES_GAMMA,
    schedule: RewardSchedule | None = None,
    simulation_blocks: int = 25_000,
    simulation_runs: int = 3,
    simulation_backend: str = "chain",
    seed: int = 2019,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> StrategyComparisonResult:
    """Sweep relative revenue across mining strategies (Fig-8-style overlay).

    Parameters
    ----------
    strategies:
        Strategy names to compare (must be registered in :mod:`repro.strategies`).
    alphas:
        Pool sizes to evaluate; defaults to the 0.05..0.45 grid.
    gamma, schedule:
        Model configuration; the default schedule is Ethereum Byzantium.
    simulation_blocks, simulation_runs, seed:
        Simulation fidelity; every (strategy, alpha) cell averages
        ``simulation_runs`` runs seeded from the same master seed.
    simulation_backend:
        ``"chain"`` (default) or ``"network"`` — the two backends that support
        every registered strategy (the Markov backend models only honest/selfish
        and raises for the stubborn variants).
    max_workers:
        Fan the runs of each cell out over a process pool, as
        :func:`~repro.utils.resilient.resilient_map` defines it (bit-identical
        to serial; purely a wall-clock optimisation).
    store:
        Optional :class:`~repro.store.ResultStore`: only the cells missing from
        the cache are simulated.
    fast:
        Shrink the grid and the simulation for quick smoke runs.
    """
    unknown = [name for name in strategies if name not in available_strategies()]
    if unknown:
        raise ParameterError(
            f"unknown strategies {unknown!r}; available: {', '.join(available_strategies())}"
        )
    if simulation_backend == "markov":
        unsupported = [name for name in strategies if name not in MARKOV_STRATEGIES]
        if unsupported:
            raise ParameterError(
                f"the 'markov' backend has no transition model for {unsupported!r}; "
                "compare these strategies on the 'chain' or 'network' backend"
            )
    if alphas is None:
        alphas = alpha_grid(0.05, 0.45, 0.05) if not fast else alpha_grid(0.15, 0.45, 0.15)
    if fast:
        simulation_blocks = min(simulation_blocks, 4_000)
        simulation_runs = 1

    # One declarative (strategy x alpha) grid through the shared sweep engine, so
    # every independent run shares one process pool — with small per-cell run
    # counts this is what keeps all workers busy.
    sweep = run_scenario(
        strategies_scenario(
            strategies=strategies,
            alphas=alphas,
            gamma=gamma,
            schedule=schedule,
            simulation_blocks=simulation_blocks,
            simulation_runs=simulation_runs,
            simulation_backend=simulation_backend,
            seed=seed,
        ),
        store=store,
        max_workers=max_workers,
        policy=resilience,
    )
    grid_aggregates = sweep.aggregates()
    aggregates: dict[str, tuple[AggregatedResult, ...]] = {
        strategy: tuple(
            grid_aggregates[row * len(alphas) : (row + 1) * len(alphas)]
        )
        for row, strategy in enumerate(strategies)
    }

    return StrategyComparisonResult(
        gamma=gamma,
        strategies=tuple(strategies),
        alphas=tuple(alphas),
        aggregates=aggregates,
        backend=simulation_backend,
    )
