"""Figure 10: profitability thresholds in Bitcoin and Ethereum as gamma varies.

For every ``gamma`` the figure reports the smallest pool size ``alpha*`` at which
selfish mining becomes profitable, under three models:

* Bitcoin (the Eyal-Sirer analysis), whose closed-form threshold is
  ``(1 - gamma) / (3 - 2*gamma)``;
* Ethereum under scenario 1 (difficulty ignores uncles) — always *below* Bitcoin,
  i.e. Ethereum is easier to attack;
* Ethereum under scenario 2 (EIP-100, difficulty counts uncles) — above Bitcoin once
  ``gamma`` exceeds roughly 0.39.

All three thresholds shrink as ``gamma`` grows and vanish at ``gamma = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..analysis.absolute import Scenario
from ..analysis.bitcoin import bitcoin_threshold
from ..analysis.revenue import RevenueModel
from ..analysis.threshold import ThresholdResult, profitable_threshold
from ..rewards.schedule import EthereumByzantiumSchedule, RewardSchedule
from ..utils.grids import inclusive_range
from ..utils.parallel import parallel_map
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..utils.resilient import RetryPolicy


def _solve_thresholds(
    task: tuple[float, RewardSchedule, int]
) -> tuple[ThresholdResult, ThresholdResult]:
    """Both scenario thresholds at one ``gamma`` (top-level so it pickles).

    The model is rebuilt inside the worker — construction is cheap and this keeps
    the inter-process payload to the schedule and the truncation.
    """
    gamma, schedule, max_lead = task
    model = RevenueModel(schedule, max_lead=max_lead)
    return (
        profitable_threshold(gamma, scenario=Scenario.REGULAR_ONLY, model=model),
        profitable_threshold(gamma, scenario=Scenario.REGULAR_PLUS_UNCLE, model=model),
    )


@dataclass(frozen=True)
class Figure10Point:
    """The three thresholds at one ``gamma`` value."""

    gamma: float
    bitcoin: float
    ethereum_scenario1: ThresholdResult
    ethereum_scenario2: ThresholdResult


@dataclass(frozen=True)
class Figure10Result:
    """The three threshold curves of Fig. 10."""

    points: tuple[Figure10Point, ...]
    schedule_name: str

    @property
    def gammas(self) -> list[float]:
        """The swept ``gamma`` values."""
        return [point.gamma for point in self.points]

    def bitcoin_thresholds(self) -> list[float]:
        """Bitcoin curve."""
        return [point.bitcoin for point in self.points]

    def scenario1_thresholds(self) -> list[float]:
        """Ethereum scenario-1 curve."""
        return [point.ethereum_scenario1.alpha_star for point in self.points]

    def scenario2_thresholds(self) -> list[float]:
        """Ethereum scenario-2 curve."""
        return [point.ethereum_scenario2.alpha_star for point in self.points]

    def scenario2_crossover_gamma(self) -> float | None:
        """First swept ``gamma`` at which the scenario-2 curve rises above Bitcoin's."""
        for point in self.points:
            if point.ethereum_scenario2.alpha_star > point.bitcoin:
                return point.gamma
        return None

    def report(self) -> str:
        """Render the three curves as a text table, one row per ``gamma``."""
        table = Table(
            headers=["gamma", "Bitcoin (Eyal-Sirer)", "Ethereum scenario 1", "Ethereum scenario 2"],
            title=f"Figure 10 - profitability threshold alpha* vs gamma ({self.schedule_name})",
        )
        for point in self.points:
            table.add_row(
                point.gamma,
                point.bitcoin,
                point.ethereum_scenario1.alpha_star,
                point.ethereum_scenario2.alpha_star,
            )
        lines = [table.render()]
        crossover = self.scenario2_crossover_gamma()
        if crossover is not None:
            lines.append(
                f"Scenario 2 rises above the Bitcoin curve at gamma ~ {crossover:.2f} "
                "(the paper reports ~0.39)."
            )
        lines.append(
            "Scenario 1 stays below Bitcoin for every gamma: without uncle-aware "
            "difficulty adjustment Ethereum is strictly easier to attack."
        )
        return "\n".join(lines)


def run_figure10(
    *,
    gammas: Sequence[float] | None = None,
    schedule: RewardSchedule | None = None,
    max_lead: int = 40,
    max_workers: int | None = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> Figure10Result:
    """Reproduce Fig. 10 by solving for the threshold at every ``gamma``.

    Parameters
    ----------
    gammas:
        Tie-breaking values to evaluate; defaults to the paper's 0..1 axis in steps of
        0.1 (or a 3-point grid when ``fast`` is set).
    schedule:
        Ethereum reward schedule; the figure uses the distance-based ``Ku(.)``.
    max_lead:
        Truncation of the analytical model.  Thresholds are insensitive to the
        truncation well below this value, and a smaller state space keeps the
        two-scenario sweep fast.
    max_workers:
        Fan the per-``gamma`` threshold solves out over a process pool (as
        :func:`~repro.utils.resilient.resilient_map` defines it).  The solves
        are deterministic, so the result is identical to a serial run.
    """
    if schedule is None:
        schedule = EthereumByzantiumSchedule()
    if gammas is None:
        gammas = inclusive_range(0.0, 1.0, 0.1) if not fast else [0.0, 0.5, 1.0]
    if fast:
        max_lead = min(max_lead, 30)

    tasks = [(gamma, schedule, max_lead) for gamma in gammas]
    solved = parallel_map(_solve_thresholds, tasks, max_workers, policy=resilience)

    points = [
        Figure10Point(
            gamma=gamma,
            bitcoin=bitcoin_threshold(gamma),
            ethereum_scenario1=scenario1,
            ethereum_scenario2=scenario2,
        )
        for gamma, (scenario1, scenario2) in zip(gammas, solved)
    ]
    return Figure10Result(points=tuple(points), schedule_name=type(schedule).__name__)
