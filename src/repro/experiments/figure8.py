"""Figure 8: absolute revenue of the pool and of honest miners vs pool size.

The paper's Fig. 8 plots, for ``gamma = 0.5`` and the flat uncle reward
``Ku = 4/8 * Ks``, the long-run absolute revenue (scenario 1 normalisation) of the
selfish pool and of honest miners as the pool's hash power ``alpha`` grows from 0 to
0.45, from both the analytical model and the simulator, together with the
``revenue = alpha`` honest-mining reference line.  The headline observations are

* analysis and simulation coincide across the whole range,
* the pool's curve crosses the honest-mining line at ``alpha ~ 0.163``,
* below the threshold the pool's loss is small (the uncle rewards cushion the cost of
  a failed attack), unlike in Bitcoin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..analysis.absolute import Scenario
from ..analysis.revenue import RevenueModel
from ..analysis.sweep import AlphaSweep, alpha_grid, sweep_alpha
from ..rewards.schedule import FlatUncleSchedule, RewardSchedule
from ..scenarios import ScenarioSpec, run_scenario
from ..simulation.runner import SimulatedAlphaSweep
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy

#: The uncle reward used in Fig. 8 (``Ku = 4/8 * Ks``).
FIGURE8_UNCLE_FRACTION = 0.5

#: The tie-breaking parameter used in Fig. 8.
FIGURE8_GAMMA = 0.5


@dataclass(frozen=True)
class Figure8Result:
    """The analytical curves and (optionally) the simulation overlay of Fig. 8."""

    gamma: float
    scenario: Scenario
    analysis: AlphaSweep
    simulation: SimulatedAlphaSweep | None

    @property
    def alphas(self) -> list[float]:
        """The swept pool sizes."""
        return self.analysis.alphas

    def crossover_alpha(self) -> float | None:
        """First swept ``alpha`` at which selfish mining beats honest mining."""
        return self.analysis.crossover_alpha()

    def report(self) -> str:
        """Render the figure's series as a text table (one row per ``alpha``)."""
        headers = ["alpha", "honest mining", "pool (analysis)", "honest (analysis)"]
        if self.simulation is not None:
            headers += ["pool (simulation)", "honest (simulation)"]
        table = Table(
            headers=headers,
            title=(
                "Figure 8 - absolute revenue vs pool size "
                f"(gamma={self.gamma}, Ku=4/8*Ks, {self.scenario.value})"
            ),
        )
        simulated_pool = self.simulation.pool_absolute_scenario1() if self.simulation else []
        simulated_honest = self.simulation.honest_absolute_scenario1() if self.simulation else []
        for index, point in enumerate(self.analysis.points):
            row: list[object] = [
                point.params.alpha,
                point.params.alpha,
                point.pool_absolute,
                point.honest_absolute,
            ]
            if self.simulation is not None:
                row += [simulated_pool[index], simulated_honest[index]]
            table.add_row(*row)
        lines = [table.render()]
        crossover = self.crossover_alpha()
        if crossover is not None:
            lines.append(
                f"Selfish mining first beats honest mining at alpha ~ {crossover:.3f} "
                "(the paper reports a threshold of 0.163)."
            )
        return "\n".join(lines)


def figure8_scenario(
    *,
    alphas: Sequence[float],
    gamma: float = FIGURE8_GAMMA,
    schedule: RewardSchedule | None = None,
    simulation_blocks: int = 50_000,
    simulation_runs: int = 2,
    simulation_backend: str = "chain",
    seed: int = 2019,
) -> ScenarioSpec:
    """The declarative sweep behind Fig. 8's simulation overlay.

    One cell per pool size, the paper's selfish pool under the figure's flat
    uncle reward; the driver runs it through the shared sweep engine, so a
    configured result store (``--cache-dir``) makes warm re-runs free.
    """
    if schedule is None:
        schedule = FlatUncleSchedule(FIGURE8_UNCLE_FRACTION)
    return ScenarioSpec(
        name="figure8",
        alphas=tuple(alphas),
        gammas=(gamma,),
        strategies=("selfish",),
        backends=(simulation_backend,),
        schedules=(schedule,),
        num_runs=simulation_runs,
        num_blocks=simulation_blocks,
        seed=seed,
    )


def run_figure8(
    *,
    alphas: Sequence[float] | None = None,
    gamma: float = FIGURE8_GAMMA,
    schedule: RewardSchedule | None = None,
    include_simulation: bool = True,
    simulation_blocks: int = 50_000,
    simulation_runs: int = 2,
    simulation_backend: str = "chain",
    seed: int = 2019,
    max_lead: int = 60,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> Figure8Result:
    """Reproduce Fig. 8.

    Parameters
    ----------
    alphas:
        Pool sizes to evaluate; defaults to the paper's 0..0.45 grid.
    gamma, schedule:
        Model configuration; defaults match the figure (``gamma = 0.5``,
        ``Ku = 4/8 * Ks``).
    include_simulation:
        Also run the discrete-event simulator at every grid point (the paper's
        validation overlay).
    simulation_blocks, simulation_runs, seed:
        Simulation fidelity; the paper uses 100 000 blocks and 10 runs, the defaults
        here are lighter but already reproduce the curves to about three decimals.
        (The default grew from 40 000 to 50 000 blocks in PR 2, paid for by the
        faster uncle-selection and settlement paths of the chain engine.)
    simulation_backend:
        ``"chain"`` (default) overlays the full discrete-event simulator, the
        figure's validation claim.  ``"markov"`` overlays the compiled-table Monte
        Carlo instead, which is ~100x faster — paper-scale fidelity
        (``simulation_blocks=100_000, simulation_runs=10``) costs well under a
        second there, at the price of validating only the chain structure.
    max_lead:
        Truncation of the analytical model.
    max_workers:
        Fan the simulation runs behind every grid point out over a process pool
        (as :func:`~repro.utils.resilient.resilient_map` defines it;
        bit-identical to serial).
    store:
        Optional :class:`~repro.store.ResultStore`: the overlay executes only
        the runs missing from the cache (a warm re-run does zero simulation
        work) and persists the new ones.
    fast:
        Shrink the grid and the simulation for quick smoke runs.
    """
    if schedule is None:
        schedule = FlatUncleSchedule(FIGURE8_UNCLE_FRACTION)
    if alphas is None:
        alphas = alpha_grid(0.0, 0.45, 0.05) if not fast else alpha_grid(0.1, 0.45, 0.175)
    if fast:
        simulation_blocks = min(simulation_blocks, 8_000)
        simulation_runs = 1
        max_lead = min(max_lead, 40)

    model = RevenueModel(schedule, max_lead=max_lead)
    analysis = sweep_alpha(alphas, gamma, scenario=Scenario.REGULAR_ONLY, model=model)

    simulation: SimulatedAlphaSweep | None = None
    if include_simulation:
        spec = figure8_scenario(
            alphas=alphas,
            gamma=gamma,
            schedule=schedule,
            simulation_blocks=simulation_blocks,
            simulation_runs=simulation_runs,
            simulation_backend=simulation_backend,
            seed=seed,
        )
        sweep = run_scenario(
            spec, store=store, max_workers=max_workers, policy=resilience
        )
        simulation = SimulatedAlphaSweep.from_scenario(sweep, gamma)

    return Figure8Result(
        gamma=gamma, scenario=Scenario.REGULAR_ONLY, analysis=analysis, simulation=simulation
    )
