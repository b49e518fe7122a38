"""Figure 9: impact of the uncle-reward size on everyone's revenue.

The paper's Fig. 9 repeats the Fig. 8 sweep for four uncle-reward functions —
flat ``2/8``, ``4/8`` and ``7/8`` of the static reward, plus Ethereum's distance-based
``Ku(.)`` — and plots the pool's, honest miners' and the *total* absolute revenue.
The headline observations are

* larger uncle rewards raise both parties' absolute revenue,
* the total revenue inflates with the attack, up to roughly 135% of the no-attack
  payout at ``Ku = 7/8`` and ``alpha = 0.45`` (because scenario 1's difficulty rule
  does not account for the extra uncles),
* Ethereum's ``Ku(.)`` behaves like ``7/8`` for the pool (its uncles are always at
  distance 1) but drifts towards ``4/8`` for honest miners as ``alpha`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..analysis.absolute import Scenario
from ..analysis.revenue import RevenueModel
from ..analysis.sweep import AlphaSweep, alpha_grid, sweep_alpha
from ..rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule, RewardSchedule
from ..scenarios import ScenarioSpec, run_scenario
from ..simulation.runner import SimulatedAlphaSweep
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy

#: The flat uncle-reward fractions swept by the figure, keyed by their legend label.
FIGURE9_FLAT_FRACTIONS: dict[str, float] = {"Ku=2/8": 2 / 8, "Ku=4/8": 4 / 8, "Ku=7/8": 7 / 8}

#: Legend label of the Ethereum distance-based schedule.
ETHEREUM_LABEL = "Ku(.)"

#: The tie-breaking parameter used in Fig. 9.
FIGURE9_GAMMA = 0.5

#: Referencing-distance window used for the figure's flat schedules.  The paper sets
#: the flat reward "regardless of the distance", i.e. without the protocol's 6-block
#: inclusion window; reproducing its ~135% total-revenue peak requires the same
#: reading, so the flat curves here pay uncles at any distance.  (Section VI's
#: mitigation proposal, by contrast, is windowed at 6 — see
#: :mod:`repro.experiments.discussion`.)
UNLIMITED_DISTANCE = 10**6


def figure9_schedules() -> dict[str, RewardSchedule]:
    """The four reward schedules compared by Fig. 9, keyed by legend label."""
    schedules: dict[str, RewardSchedule] = {
        label: FlatUncleSchedule(fraction, max_uncle_distance=UNLIMITED_DISTANCE)
        for label, fraction in FIGURE9_FLAT_FRACTIONS.items()
    }
    schedules[ETHEREUM_LABEL] = EthereumByzantiumSchedule()
    return schedules


@dataclass(frozen=True)
class Figure9Result:
    """One analytical sweep per reward schedule, plus an optional simulation overlay.

    The overlay (``simulation``) validates the Ethereum ``Ku(.)`` curve with the
    simulator; the flat-reward curves are analytical-only because the figure reads
    them with an *unwindowed* uncle reward (any referencing distance), which has no
    finite protocol window for the simulator to enforce.
    """

    gamma: float
    scenario: Scenario
    sweeps: Mapping[str, AlphaSweep]
    simulation: SimulatedAlphaSweep | None = None

    @property
    def alphas(self) -> list[float]:
        """The swept pool sizes (identical across schedules)."""
        first = next(iter(self.sweeps.values()))
        return first.alphas

    def peak_total_revenue(self, label: str) -> float:
        """Largest total absolute revenue reached by one schedule across the sweep."""
        return max(self.sweeps[label].total_absolute)

    def report(self) -> str:
        """Render the figure's series: one block of columns per reward schedule."""
        labels = list(self.sweeps)
        headers = ["alpha"]
        for label in labels:
            headers += [f"{label} pool", f"{label} honest", f"{label} total"]
        if self.simulation is not None:
            headers += [f"{ETHEREUM_LABEL} pool (sim)", f"{ETHEREUM_LABEL} honest (sim)"]
        table = Table(
            headers=headers,
            title=(
                "Figure 9 - absolute revenue under different uncle rewards "
                f"(gamma={self.gamma}, {self.scenario.value})"
            ),
        )
        simulated_pool = self.simulation.pool_absolute_scenario1() if self.simulation else []
        simulated_honest = self.simulation.honest_absolute_scenario1() if self.simulation else []
        for index, alpha in enumerate(self.alphas):
            row: list[object] = [alpha]
            for label in labels:
                sweep = self.sweeps[label]
                point = sweep.points[index]
                row += [point.pool_absolute, point.honest_absolute, point.total_absolute]
            if self.simulation is not None:
                row += [simulated_pool[index], simulated_honest[index]]
            table.add_row(*row)
        lines = [table.render()]
        if "Ku=7/8" in self.sweeps:
            peak = self.peak_total_revenue("Ku=7/8")
            lines.append(
                f"Peak total revenue with Ku=7/8: {peak:.3f}x the no-attack payout "
                "(the paper reports ~1.35x at alpha=0.45)."
            )
        return "\n".join(lines)


def figure9_scenario(
    *,
    alphas: Sequence[float],
    gamma: float = FIGURE9_GAMMA,
    simulation_blocks: int = 15_000,
    simulation_runs: int = 2,
    simulation_backend: str = "chain",
    seed: int = 2019,
) -> ScenarioSpec:
    """The declarative sweep behind Fig. 9's Ethereum ``Ku(.)`` overlay."""
    return ScenarioSpec(
        name="figure9",
        alphas=tuple(alphas),
        gammas=(gamma,),
        strategies=("selfish",),
        backends=(simulation_backend,),
        schedules=(EthereumByzantiumSchedule(),),
        num_runs=simulation_runs,
        num_blocks=simulation_blocks,
        seed=seed,
    )


def run_figure9(
    *,
    alphas: Sequence[float] | None = None,
    gamma: float = FIGURE9_GAMMA,
    max_lead: int = 60,
    include_simulation: bool = False,
    simulation_blocks: int = 15_000,
    simulation_runs: int = 2,
    simulation_backend: str = "chain",
    seed: int = 2019,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> Figure9Result:
    """Reproduce Fig. 9 from the analytical model.

    The paper draws these curves from the analysis (the simulator is used in
    Fig. 8).  ``include_simulation`` adds a simulated overlay of the Ethereum
    ``Ku(.)`` curve — the one curve whose reward window the protocol actually
    enforces — on the chosen ``simulation_backend``, emitted as a scenario
    through the shared sweep engine (``max_workers`` as
    :func:`~repro.utils.resilient.resilient_map` defines it, bit-identical to
    serial; ``store`` caches the runs).
    """
    if alphas is None:
        alphas = alpha_grid(0.0, 0.45, 0.05) if not fast else alpha_grid(0.15, 0.45, 0.15)
    if fast:
        max_lead = min(max_lead, 40)
        simulation_blocks = min(simulation_blocks, 6_000)
        simulation_runs = 1
    sweeps: dict[str, AlphaSweep] = {}
    for label, schedule in figure9_schedules().items():
        model = RevenueModel(schedule, max_lead=max_lead)
        sweeps[label] = sweep_alpha(alphas, gamma, scenario=Scenario.REGULAR_ONLY, model=model)

    simulation: SimulatedAlphaSweep | None = None
    if include_simulation:
        spec = figure9_scenario(
            alphas=alphas,
            gamma=gamma,
            simulation_blocks=simulation_blocks,
            simulation_runs=simulation_runs,
            simulation_backend=simulation_backend,
            seed=seed,
        )
        sweep = run_scenario(
            spec, store=store, max_workers=max_workers, policy=resilience
        )
        simulation = SimulatedAlphaSweep.from_scenario(sweep, gamma)

    return Figure9Result(
        gamma=gamma, scenario=Scenario.REGULAR_ONLY, sweeps=sweeps, simulation=simulation
    )
