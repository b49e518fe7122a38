"""The profitability frontier: optimal policy vs the hand-crafted catalogue.

The driver charts, over an ``alpha x gamma`` grid, the pool's *optimal* relative
revenue — the value of the withhold/override decision process solved by
:mod:`repro.mdp` — next to the revenue of the paper's Algorithm 1 (the solver's
exact evaluation of that corner, equal to the analytical model's) and the honest baseline
(``revenue = alpha``).  Because Algorithm 1 and honest mining are both corners
of the MDP's policy space, the optimal column dominates the other two
pointwise, and the point where its policy structure flips from
"honest" to "selfish" *is* the paper's profitability threshold, rediscovered by
the solver rather than read off a revenue crossing.

Two optional simulation sections back the analysis with Monte Carlo:

* a **validation overlay** re-runs the extracted optimal strategy through a
  simulator backend at every grid point of one ``gamma`` and reports the
  measured revenue with its spread next to the solver's prediction;
* a **catalogue comparison** simulates the stubborn variants (which have no
  analytical model and whose state space the MDP deliberately excludes — see
  :mod:`repro.mdp`) on the same grid, so regions where stubbornness pays more
  than every Algorithm-1-structured policy are visible rather than hidden.

All simulation runs of both sections are fanned out over one process pool
(``max_workers``), bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..analysis.sweep import alpha_grid
from ..errors import ParameterError
from ..mdp.solver import DEFAULT_POLICY_MAX_LEAD, OptimalPolicyResult, solve_optimal_policy
from ..params import MiningParams
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from ..backends import available_backends
from ..scenarios import ScenarioSpec, run_scenario
from ..simulation.metrics import AggregatedResult, reported_spread
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..store import ResultStore
    from ..utils.resilient import RetryPolicy

#: Tie-breaking values swept by the full frontier (the paper's bracketing pair
#: plus the symmetric middle).
DEFAULT_GAMMAS = (0.0, 0.5, 1.0)

#: The gamma whose grid row gets the simulation sections.
VALIDATION_GAMMA = 0.5

#: Catalogue strategies simulated for comparison (no analytical model exists for
#: the stubborn family; honest/selfish are covered analytically).
CATALOGUE_STRATEGIES = ("lead_stubborn", "equal_fork_stubborn")


@dataclass(frozen=True)
class OptimalFrontierCell:
    """The solved frontier at one ``(alpha, gamma)`` grid point."""

    params: MiningParams
    policy: OptimalPolicyResult
    selfish_revenue: float

    @property
    def optimal_revenue(self) -> float:
        """The solved optimal relative revenue."""
        return self.policy.optimal_share

    @property
    def honest_revenue(self) -> float:
        """The protocol-following baseline (``revenue = alpha``)."""
        return self.params.alpha

    @property
    def advantage(self) -> float:
        """Optimal revenue above the best hand-crafted corner (>= 0 up to solver residual)."""
        return self.optimal_revenue - max(self.selfish_revenue, self.honest_revenue)


@dataclass(frozen=True)
class OptimalFrontierResult:
    """Solved frontier grid plus the optional simulation sections."""

    gammas: tuple[float, ...]
    alphas: tuple[float, ...]
    cells: Mapping[tuple[float, float], OptimalFrontierCell]
    max_lead: int
    backend: str = "chain"
    validation_gamma: float = VALIDATION_GAMMA
    simulated_optimal: tuple[AggregatedResult, ...] = ()
    simulated_catalogue: Mapping[str, tuple[AggregatedResult, ...]] | None = None

    def cell(self, alpha: float, gamma: float) -> OptimalFrontierCell:
        """The frontier cell at ``(alpha, gamma)``."""
        return self.cells[(alpha, gamma)]

    def threshold_alpha(self, gamma: float) -> float | None:
        """First swept ``alpha`` whose optimal policy races (is not honest).

        This is the solver's reading of the paper's profitability threshold: below
        it the best Algorithm-1-structured policy is to follow the protocol.
        """
        for alpha in self.alphas:
            if alpha > 0.0 and self.cell(alpha, gamma).policy.policy_label() != "honest":
                return alpha
        return None

    # ------------------------------------------------------------------ rendering
    def _frontier_table(self, gamma: float) -> str:
        table = Table(
            headers=["alpha", "optimal", "selfish", "honest", "advantage", "policy"],
            title=(
                f"Best withhold/override policy on pool events, honest-event "
                f"responses fixed to Algorithm 1 (gamma={gamma:g}, max_lead={self.max_lead})"
            ),
        )
        for alpha in self.alphas:
            cell = self.cell(alpha, gamma)
            table.add_row(
                alpha,
                cell.optimal_revenue,
                cell.selfish_revenue,
                cell.honest_revenue,
                cell.advantage,
                cell.policy.policy_label(),
            )
        return table.render()

    def _policy_structure(self) -> str:
        lines = ["Policy structure (where the optimal policy diverges from Algorithm 1):"]
        for gamma in self.gammas:
            threshold = self.threshold_alpha(gamma)
            if threshold is None:
                lines.append(
                    f"  gamma={gamma:g}: honest mining is optimal on the whole grid."
                )
            else:
                lines.append(
                    f"  gamma={gamma:g}: honest below alpha={threshold:g} (the "
                    "profitability threshold), Algorithm 1 at and above it."
                )
            for alpha in self.alphas:
                policy = self.cell(alpha, gamma).policy
                if policy.policy_label().startswith("selfish+"):
                    states = ", ".join(str(state) for state in policy.divergence_from_selfish())
                    lines.append(f"    alpha={alpha:g}: extra overrides at {states}")
        return "\n".join(lines)

    def _validation_table(self) -> str:
        table = Table(
            headers=["alpha", "solver", "simulated", "std", "runs"],
            title=(
                f"Optimal strategy, solver vs {self.backend} simulation "
                f"(gamma={self.validation_gamma:g})"
            ),
        )
        for alpha, aggregate in zip(self.alphas, self.simulated_optimal):
            cell = self.cell(alpha, self.validation_gamma)
            measured = aggregate.relative_pool_revenue
            table.add_row(
                alpha, cell.optimal_revenue, measured.mean, reported_spread(measured), measured.count
            )
        return table.render()

    def _catalogue_table(self) -> str:
        assert self.simulated_catalogue is not None
        strategies = tuple(self.simulated_catalogue)
        table = Table(
            headers=["alpha", "optimal"] + [name.replace("_", " ") for name in strategies],
            title=(
                "Optimal (solver) vs simulated stubborn catalogue "
                f"(gamma={self.validation_gamma:g}; stubborn policies live outside "
                "the MDP's state space)"
            ),
        )
        for index, alpha in enumerate(self.alphas):
            cell = self.cell(alpha, self.validation_gamma)
            table.add_row(
                alpha,
                cell.optimal_revenue,
                *[
                    self.simulated_catalogue[name][index].relative_pool_revenue.mean
                    for name in strategies
                ],
            )
        return table.render()

    def report(self) -> str:
        """Render the frontier tables, the policy dump and the simulation sections."""
        sections = [self._frontier_table(gamma) for gamma in self.gammas]
        sections.append(self._policy_structure())
        if self.simulated_optimal:
            sections.append(self._validation_table())
        if self.simulated_catalogue:
            sections.append(self._catalogue_table())
        return "\n\n".join(sections)


def optimal_scenario(
    *,
    strategies: Sequence[str],
    alphas: Sequence[float],
    gamma: float = VALIDATION_GAMMA,
    schedule: RewardSchedule | None = None,
    simulation_blocks: int = 50_000,
    simulation_runs: int = 3,
    simulation_backend: str = "chain",
    seed: int = 2019,
) -> ScenarioSpec:
    """The declarative (strategy x alpha) sweep behind the simulation sections."""
    return ScenarioSpec(
        name="optimal",
        alphas=tuple(alphas),
        gammas=(gamma,),
        strategies=tuple(strategies),
        backends=(simulation_backend,),
        schedules=(schedule if schedule is not None else EthereumByzantiumSchedule(),),
        num_runs=simulation_runs,
        num_blocks=simulation_blocks,
        seed=seed,
    )


def run_optimal(
    *,
    alphas: Sequence[float] | None = None,
    gammas: Sequence[float] = DEFAULT_GAMMAS,
    schedule: RewardSchedule | None = None,
    max_lead: int = DEFAULT_POLICY_MAX_LEAD,
    include_simulation: bool = True,
    include_catalogue: bool = True,
    simulation_blocks: int = 50_000,
    simulation_runs: int = 3,
    simulation_backend: str = "chain",
    seed: int = 2019,
    max_workers: int | None = None,
    store: "ResultStore | None" = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> OptimalFrontierResult:
    """Solve the optimal-strategy frontier and (optionally) back it with simulation.

    Parameters
    ----------
    alphas, gammas:
        The grid; defaults to the figure-8 pool sizes at ``gamma in {0, 0.5, 1}``.
    schedule:
        Reward schedule (default Ethereum Byzantium).
    max_lead:
        Cap on the pool's lead in the solved state space, the same lumped
        ``(lead, forked)`` space :class:`~repro.analysis.revenue.RevenueModel`
        solves, so the "selfish" column equals
        ``RevenueModel(max_lead=max_lead)``.  Non-default values require
        ``include_simulation=False``: the simulated strategy is always solved at
        the strategy default cap, so the validation table would otherwise
        compare two different policies.
    include_simulation, include_catalogue:
        Toggle the Monte-Carlo sections (the validation overlay of the extracted
        optimal strategy, and the simulated stubborn comparison).
    simulation_blocks, simulation_runs, seed:
        Simulation fidelity of both sections.
    simulation_backend:
        Backend of the simulation sections (every backend supports the optimal
        and stubborn strategies except ``markov``, which rejects the stubborn
        variants — the catalogue section then requires ``chain`` or ``network``).
    max_workers:
        Fan all simulation runs out over one process pool, as
        :func:`~repro.utils.resilient.resilient_map` defines it.
    store:
        Optional :class:`~repro.store.ResultStore`: only the simulation runs
        missing from the cache execute, and the per-point MDP solves are
        persisted alongside them.
    fast:
        Shrink the grid and the simulations to smoke fidelity.
    """
    if simulation_backend not in available_backends():
        raise ParameterError(
            f"unknown simulation backend {simulation_backend!r}; "
            f"expected one of {available_backends()}"
        )
    if include_catalogue and simulation_backend == "markov":
        raise ParameterError(
            "the 'markov' backend has no transition model for the stubborn catalogue; "
            "use simulation_backend='chain'/'network' or include_catalogue=False"
        )
    if include_simulation and max_lead != DEFAULT_POLICY_MAX_LEAD:
        # The simulated runs build their strategy through the registry, which
        # always solves at the strategy default truncation; validating a
        # different-truncation solve against them would compare two different
        # policies near the threshold.
        raise ParameterError(
            f"the validation simulation always runs the policy solved at "
            f"max_lead={DEFAULT_POLICY_MAX_LEAD} (the strategy default); pass "
            "include_simulation=False to chart a different truncation"
        )
    resolved_schedule = schedule if schedule is not None else EthereumByzantiumSchedule()
    if alphas is None:
        alphas = alpha_grid(0.05, 0.45, 0.05) if not fast else alpha_grid(0.15, 0.45, 0.15)
    if fast:
        gammas = (VALIDATION_GAMMA,)
        simulation_blocks = min(simulation_blocks, 4_000)
        simulation_runs = 1

    cells: dict[tuple[float, float], OptimalFrontierCell] = {}
    for gamma in gammas:
        for alpha in alphas:
            params = MiningParams(alpha=alpha, gamma=gamma)
            policy = solve_optimal_policy(params, resolved_schedule, max_lead=max_lead, store=store)
            # shares[0] is the solver's exact evaluation of Algorithm 1.
            cells[(alpha, gamma)] = OptimalFrontierCell(
                params=params, policy=policy, selfish_revenue=policy.shares[0]
            )

    validation_gamma = VALIDATION_GAMMA if VALIDATION_GAMMA in gammas else gammas[0]
    simulated_optimal: tuple[AggregatedResult, ...] = ()
    simulated_catalogue: dict[str, tuple[AggregatedResult, ...]] | None = None
    if include_simulation or include_catalogue:
        strategies = (("optimal",) if include_simulation else ()) + (
            CATALOGUE_STRATEGIES if include_catalogue else ()
        )
        # One declarative (strategy x alpha) grid through the shared sweep engine
        # shares a single process pool (and, with a store, one cache).
        sweep = run_scenario(
            optimal_scenario(
                strategies=strategies,
                alphas=alphas,
                gamma=validation_gamma,
                schedule=resolved_schedule,
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
        per_strategy = {
            strategy: tuple(grid_aggregates[row * len(alphas) : (row + 1) * len(alphas)])
            for row, strategy in enumerate(strategies)
        }
        if include_simulation:
            simulated_optimal = per_strategy["optimal"]
        if include_catalogue:
            simulated_catalogue = {name: per_strategy[name] for name in CATALOGUE_STRATEGIES}

    return OptimalFrontierResult(
        gammas=tuple(gammas),
        alphas=tuple(alphas),
        cells=cells,
        max_lead=max_lead,
        backend=simulation_backend,
        validation_gamma=validation_gamma,
        simulated_optimal=simulated_optimal,
        simulated_catalogue=simulated_catalogue,
    )
