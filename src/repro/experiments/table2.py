"""Table II: distribution of honest miners' uncle referencing distances.

At ``gamma = 0.5`` the paper tabulates, for ``alpha = 0.3`` and ``alpha = 0.45``, the
probability that an honest miner's uncle is referenced at distance 1..6 together with
the expected distance (1.75 and 2.72 respectively).  The pool's uncles, by contrast,
are always referenced at distance 1 — this asymmetry motivates the reward-function
redesign of Section VI.

The driver reproduces the table from the analytical model and can optionally overlay
a simulated histogram from the full chain simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..analysis.revenue import RevenueModel
from ..analysis.uncle_distance import UncleDistanceDistribution, distribution_from_rates
from ..constants import MAX_UNCLE_DISTANCE
from ..params import MiningParams
from ..rewards.schedule import EthereumByzantiumSchedule
from ..scenarios import ScenarioSpec, run_scenario
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy

#: Pool sizes tabulated by the paper.
TABLE2_ALPHAS = (0.3, 0.45)

#: Tie-breaking parameter used by the paper's table.
TABLE2_GAMMA = 0.5


@dataclass(frozen=True)
class Table2Column:
    """Analytical (and optional simulated) distance distribution at one ``alpha``."""

    params: MiningParams
    analysis: UncleDistanceDistribution
    simulated: Mapping[int, float] | None
    simulated_expectation: float | None


@dataclass(frozen=True)
class Table2Result:
    """The reproduced Table II."""

    gamma: float
    columns: tuple[Table2Column, ...]
    max_distance: int

    def report(self) -> str:
        """Render the table: one analytical (and optional simulated) column per alpha."""
        headers = ["Referencing distance"]
        for column in self.columns:
            headers.append(f"alpha={column.params.alpha:g} (analysis)")
            if column.simulated is not None:
                headers.append(f"alpha={column.params.alpha:g} (simulation)")
        table = Table(
            headers=headers,
            title=f"Table II - honest miners' uncle distance distribution (gamma={self.gamma})",
            float_format=".3f",
        )
        for distance in range(1, self.max_distance + 1):
            row: list[object] = [distance]
            for column in self.columns:
                row.append(column.analysis.probability(distance))
                if column.simulated is not None:
                    row.append(column.simulated.get(distance, 0.0))
            table.add_row(*row)
        expectation_row: list[object] = ["Expectation"]
        for column in self.columns:
            expectation_row.append(column.analysis.expectation)
            if column.simulated is not None:
                expectation_row.append(column.simulated_expectation or 0.0)
        table.add_row(*expectation_row)
        return table.render()


def table2_scenario(
    *,
    alphas: Sequence[float] = TABLE2_ALPHAS,
    gamma: float = TABLE2_GAMMA,
    simulation_blocks: int = 75_000,
    simulation_runs: int = 2,
    simulation_backend: str = "chain",
    seed: int = 2019,
) -> ScenarioSpec:
    """The declarative sweep behind Table II's simulated histogram overlay."""
    return ScenarioSpec(
        name="table2",
        alphas=tuple(alphas),
        gammas=(gamma,),
        strategies=("selfish",),
        backends=(simulation_backend,),
        schedules=(EthereumByzantiumSchedule(),),
        num_runs=simulation_runs,
        num_blocks=simulation_blocks,
        seed=seed,
    )


def run_table2(
    *,
    alphas: Sequence[float] = TABLE2_ALPHAS,
    gamma: float = TABLE2_GAMMA,
    include_simulation: bool = False,
    simulation_blocks: int = 75_000,
    simulation_runs: int = 2,
    simulation_backend: str = "chain",
    seed: int = 2019,
    max_lead: int = 60,
    max_distance: int = MAX_UNCLE_DISTANCE,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> Table2Result:
    """Reproduce Table II.

    The analytical distribution is exact (up to state-space truncation); the optional
    simulation overlay estimates the same histogram from settled runs of the chosen
    ``simulation_backend`` (any backend that materialises real uncle references),
    emitted as a scenario through the shared sweep engine (cached by ``store``;
    ``max_workers`` as :func:`~repro.utils.resilient.resilient_map` defines it,
    bit-identical to serial).
    """
    if fast:
        simulation_blocks = min(simulation_blocks, 10_000)
        simulation_runs = 1
        max_lead = min(max_lead, 40)

    aggregates = None
    if include_simulation:
        sweep = run_scenario(
            table2_scenario(
                alphas=alphas,
                gamma=gamma,
                simulation_blocks=simulation_blocks,
                simulation_runs=simulation_runs,
                simulation_backend=simulation_backend,
                seed=seed,
            ),
            store=store,
            max_workers=max_workers,
            policy=resilience,
        )
        aggregates = sweep.aggregates()

    model = RevenueModel(EthereumByzantiumSchedule(), max_lead=max_lead)
    columns: list[Table2Column] = []
    for index, alpha in enumerate(alphas):
        params = MiningParams(alpha=alpha, gamma=gamma)
        rates = model.revenue_rates(params)
        analysis = distribution_from_rates(rates, max_distance=max_distance)
        simulated: Mapping[int, float] | None = None
        simulated_expectation: float | None = None
        if aggregates is not None:
            simulated = aggregates[index].honest_uncle_distance_distribution()
            simulated_expectation = sum(d * p for d, p in simulated.items())
        columns.append(
            Table2Column(
                params=params,
                analysis=analysis,
                simulated=simulated,
                simulated_expectation=simulated_expectation,
            )
        )
    return Table2Result(gamma=gamma, columns=tuple(columns), max_distance=max_distance)
