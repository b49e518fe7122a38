"""Network experiments: emergent tie-breaking and simultaneous pool races.

This driver goes beyond the paper along the axis its model fixes by assumption:
the network.  The paper treats the pool's communication capability ``gamma`` as an
exogenous parameter and studies a single attacker; the event-driven network
backend (:mod:`repro.network`) makes both endogenous, and this experiment reports
the two headline views:

* **Latency -> effective gamma.**  A single selfish pool races the honest miners
  while the mean message delay sweeps from zero (the paper's model) upwards.  The
  effective tie-breaking ratio measured from contested honest blocks falls from
  the configured ``gamma`` towards the value the raw propagation races produce,
  and the pool's relative revenue follows.  The analytical model evaluated *at
  the measured* ``gamma`` closes the loop: latency in, the paper's model out.
* **Two-pool races.**  Two selfish pools attack simultaneously over a grid of
  size pairs, quantifying how much the attackers' gains erode when they must
  race each other as well as the honest miners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..analysis.revenue import RevenueModel
from ..params import MiningParams
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from ..scenarios import ScenarioSpec, run_scenarios
from ..simulation.metrics import AggregatedResult, MeanStd, mean_effective_gamma, mean_std
from ..network.latency import ExponentialLatency
from ..network.topology import multi_pool_topology, single_pool_topology
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy

#: Mean message delays swept by default, as fractions of the block interval.
DEFAULT_LATENCY_MEANS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)

#: Two-pool hash-power pairs raced by default.
DEFAULT_TWO_POOL_GRID = ((0.15, 0.15), (0.2, 0.2), (0.25, 0.25), (0.3, 0.15))

#: Pool size of the latency sweep (a paper-typical attacker).
NETWORK_ALPHA = 0.3

#: Same-instant tie-breaking ratio (only binds at zero latency).
NETWORK_GAMMA = 0.5

#: Honest population of the simulated networks (delivery fan-out is one event per
#: miner per block, so the experiment favours a small population).
NETWORK_HONEST_MINERS = 8


@dataclass(frozen=True)
class LatencyPoint:
    """Measured outcome of the single-pool race at one mean message delay."""

    mean_delay: float
    aggregate: AggregatedResult
    effective_gamma: MeanStd
    predicted_revenue: float | None

    @property
    def relative_revenue(self) -> MeanStd:
        """The pool's measured share of all rewards."""
        return self.aggregate.relative_pool_revenue


@dataclass(frozen=True)
class TwoPoolPoint:
    """Measured outcome of one two-pool race."""

    alphas: tuple[float, float]
    aggregate: AggregatedResult
    pool_revenues: tuple[MeanStd, MeanStd]

    @property
    def honest_revenue(self) -> float:
        """The honest rest's mean share of all rewards."""
        return 1.0 - self.pool_revenues[0].mean - self.pool_revenues[1].mean


@dataclass(frozen=True)
class NetworkExperimentResult:
    """The latency sweep and the two-pool grid."""

    alpha: float
    gamma: float
    latency_points: tuple[LatencyPoint, ...]
    two_pool_points: tuple[TwoPoolPoint, ...]

    def effective_gammas(self) -> list[float]:
        """Mean effective gamma per swept delay."""
        return [point.effective_gamma.mean for point in self.latency_points]

    def report(self) -> str:
        """Render both tables plus the headline observations."""
        lines: list[str] = []

        table = Table(
            headers=[
                "mean delay",
                "effective gamma",
                "pool revenue (network)",
                "model @ effective gamma",
            ],
            title=(
                "Network - emergent tie-breaking vs message latency "
                f"(alpha={self.alpha}, zero-latency gamma={self.gamma})"
            ),
        )
        for point in self.latency_points:
            table.add_row(
                point.mean_delay,
                point.effective_gamma.mean,
                point.relative_revenue.mean,
                point.predicted_revenue if point.predicted_revenue is not None else "-",
            )
        lines.append(table.render())
        if len(self.latency_points) >= 2:
            first, last = self.latency_points[0], self.latency_points[-1]
            lines.append(
                f"Effective gamma falls from {first.effective_gamma.mean:.3f} at zero latency "
                f"(configured {self.gamma:g}) to {last.effective_gamma.mean:.3f} at mean delay "
                f"{last.mean_delay:g}: latency, not a coin, decides who wins ties."
            )

        if self.two_pool_points:
            table = Table(
                headers=[
                    "alpha A",
                    "alpha B",
                    "pool A revenue",
                    "pool B revenue",
                    "honest revenue",
                    "stale fraction",
                ],
                title="Network - two selfish pools racing simultaneously",
            )
            for point in self.two_pool_points:
                table.add_row(
                    point.alphas[0],
                    point.alphas[1],
                    point.pool_revenues[0].mean,
                    point.pool_revenues[1].mean,
                    point.honest_revenue,
                    point.aggregate.stale_fraction.mean,
                )
            lines.append(table.render())
            lines.append(
                "Each pool's share is measured against the other attacker as well as the "
                "honest miners; equal-size pools split the attacker surplus and both fall "
                "short of what a lone attacker of the same size earns."
            )
        return "\n".join(lines)


def _pool_revenue_stats(aggregate: AggregatedResult, name: str) -> MeanStd:
    """Mean/std of one named miner's revenue share over the aggregate's runs."""
    return mean_std(
        [result.miner_relative_revenue(name) for result in aggregate.results]  # type: ignore[attr-defined]
    )


def network_scenarios(
    *,
    alpha: float = NETWORK_ALPHA,
    gamma: float = NETWORK_GAMMA,
    latency_means: Sequence[float] = DEFAULT_LATENCY_MEANS,
    two_pool_grid: Sequence[tuple[float, float]] = DEFAULT_TWO_POOL_GRID,
    schedule: RewardSchedule | None = None,
    num_honest: int = NETWORK_HONEST_MINERS,
    two_pool_latency: float = 0.1,
    simulation_blocks: int = 10_000,
    simulation_runs: int = 3,
    seed: int = 2019,
) -> list[ScenarioSpec]:
    """The declarative sweeps behind both network experiments.

    The latency sweep is one scenario whose topology axis carries the
    single-pool network at every swept delay; each two-pool race is its own
    one-cell scenario because the race pairs a *specific* alpha with a specific
    topology (axes in a spec cross, they do not zip).  All specs run through
    one engine invocation, so every independent run still shares one pool.
    """
    if schedule is None:
        schedule = EthereumByzantiumSchedule()
    specs: list[ScenarioSpec] = []
    if latency_means:
        specs.append(
            ScenarioSpec(
                name="network-latency",
                alphas=(alpha,),
                gammas=(gamma,),
                backends=("network",),
                schedules=(schedule,),
                topologies=tuple(
                    single_pool_topology(
                        alpha,
                        strategy="selfish",
                        num_honest=num_honest,
                        latency=ExponentialLatency(mean=mean_delay),
                    )
                    for mean_delay in latency_means
                ),
                num_runs=simulation_runs,
                num_blocks=simulation_blocks,
                seed=seed,
            )
        )
    for index, (alpha_a, alpha_b) in enumerate(two_pool_grid):
        specs.append(
            ScenarioSpec(
                name=f"network-two-pool-{index}",
                alphas=(alpha_a,),
                gammas=(gamma,),
                backends=("network",),
                schedules=(schedule,),
                topologies=(
                    multi_pool_topology(
                        [(alpha_a, "selfish"), (alpha_b, "selfish")],
                        num_honest=num_honest,
                        latency=ExponentialLatency(mean=two_pool_latency),
                    ),
                ),
                num_runs=simulation_runs,
                num_blocks=simulation_blocks,
                seed=seed,
            )
        )
    return specs


def run_network(
    *,
    alpha: float = NETWORK_ALPHA,
    gamma: float = NETWORK_GAMMA,
    latency_means: Sequence[float] = DEFAULT_LATENCY_MEANS,
    two_pool_grid: Sequence[tuple[float, float]] = DEFAULT_TWO_POOL_GRID,
    schedule: RewardSchedule | None = None,
    num_honest: int = NETWORK_HONEST_MINERS,
    simulation_blocks: int = 10_000,
    simulation_runs: int = 3,
    seed: int = 2019,
    max_lead: int = 60,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> NetworkExperimentResult:
    """Run the latency sweep and the two-pool grid on the network backend.

    Parameters
    ----------
    alpha, gamma:
        Pool size of the latency sweep and the same-instant tie-breaking ratio
        (the latter only binds at zero latency, where it reproduces the paper's
        model).
    latency_means:
        Mean per-link message delays (exponential model), in block-interval units.
    two_pool_grid:
        Hash-power pairs for the simultaneous-race grid (both pools selfish).
    schedule:
        Reward schedule; defaults to Ethereum Byzantium.
    num_honest, simulation_blocks, simulation_runs, seed:
        Simulation fidelity.
    max_lead:
        Truncation of the analytical model evaluated at the measured gamma.
    max_workers:
        Fan all independent runs (both phases share one pool) out over
        processes, as :func:`~repro.utils.resilient.resilient_map` defines it.
    store:
        Optional :class:`~repro.store.ResultStore`: only the runs missing from
        the cache execute.
    fast:
        Shrink both grids and the runs for quick smoke runs.
    """
    if schedule is None:
        schedule = EthereumByzantiumSchedule()
    if fast:
        latency_means = tuple(latency_means)[:3] or (0.0,)
        two_pool_grid = tuple(two_pool_grid)[:1]
        simulation_blocks = min(simulation_blocks, 2_000)
        simulation_runs = 1
        max_lead = min(max_lead, 40)

    specs = network_scenarios(
        alpha=alpha,
        gamma=gamma,
        latency_means=latency_means,
        two_pool_grid=two_pool_grid,
        schedule=schedule,
        num_honest=num_honest,
        two_pool_latency=0.1,  # mild delays so the two attackers race realistically
        simulation_blocks=simulation_blocks,
        simulation_runs=simulation_runs,
        seed=seed,
    )
    sweeps = run_scenarios(
        specs, store=store, max_workers=max_workers, policy=resilience
    )
    if latency_means:
        latency_aggregates = list(sweeps[0].aggregates())
        two_pool_sweeps = sweeps[1:]
    else:
        latency_aggregates = []
        two_pool_sweeps = sweeps
    two_pool_aggregates = [sweep.aggregates()[0] for sweep in two_pool_sweeps]

    model = RevenueModel(schedule, max_lead=max_lead)
    latency_points: list[LatencyPoint] = []
    for mean_delay, aggregate in zip(latency_means, latency_aggregates):
        gamma_stats = mean_effective_gamma(aggregate.results)
        predicted: float | None = None
        if gamma_stats.count > 0:
            measured_gamma = min(max(gamma_stats.mean, 0.0), 1.0)
            predicted = model.revenue_rates(
                MiningParams(alpha=alpha, gamma=measured_gamma)
            ).relative_pool_revenue
        latency_points.append(
            LatencyPoint(
                mean_delay=mean_delay,
                aggregate=aggregate,
                effective_gamma=gamma_stats,
                predicted_revenue=predicted,
            )
        )

    two_pool_points = [
        TwoPoolPoint(
            alphas=(alpha_a, alpha_b),
            aggregate=aggregate,
            pool_revenues=(
                _pool_revenue_stats(aggregate, "pool-0"),
                _pool_revenue_stats(aggregate, "pool-1"),
            ),
        )
        for (alpha_a, alpha_b), aggregate in zip(two_pool_grid, two_pool_aggregates)
    ]

    return NetworkExperimentResult(
        alpha=alpha,
        gamma=gamma,
        latency_points=tuple(latency_points),
        two_pool_points=tuple(two_pool_points),
    )
