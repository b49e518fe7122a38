"""Section VI: how a flat uncle reward raises the profitability threshold.

The paper's mitigation proposal replaces the distance-based uncle reward ``Ku(.)``
(which hands the pool the maximum ``7/8`` for every one of its uncles) with a flat
``Ku = 4/8 * Ks``.  At ``gamma = 0.5`` this raises the profitability threshold from
0.054 to 0.163 under scenario 1 and from 0.270 to 0.356 under scenario 2.  This driver
recomputes those four numbers (and works for any pair of schedules, so alternative
reward designs can be evaluated the same way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.absolute import Scenario
from ..analysis.revenue import RevenueModel
from ..analysis.threshold import ThresholdResult, profitable_threshold
from ..rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule, RewardSchedule
from ..utils.parallel import parallel_map
from ..utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..utils.resilient import RetryPolicy


def _solve_threshold(task: tuple[float, RewardSchedule, Scenario, int]) -> ThresholdResult:
    """One threshold solve (top-level so it pickles; model rebuilt in the worker)."""
    gamma, schedule, scenario, max_lead = task
    model = RevenueModel(schedule, max_lead=max_lead)
    return profitable_threshold(gamma, scenario=scenario, model=model)

#: The flat uncle fraction proposed in Section VI.
PROPOSED_FLAT_FRACTION = 0.5

#: The tie-breaking parameter at which the paper quotes its numbers.
DISCUSSION_GAMMA = 0.5


@dataclass(frozen=True)
class DiscussionResult:
    """Thresholds under the current and the proposed uncle-reward function."""

    gamma: float
    current_scenario1: ThresholdResult
    current_scenario2: ThresholdResult
    proposed_scenario1: ThresholdResult
    proposed_scenario2: ThresholdResult

    def improvement_scenario1(self) -> float:
        """Threshold increase delivered by the proposal under scenario 1."""
        return self.proposed_scenario1.alpha_star - self.current_scenario1.alpha_star

    def improvement_scenario2(self) -> float:
        """Threshold increase delivered by the proposal under scenario 2."""
        return self.proposed_scenario2.alpha_star - self.current_scenario2.alpha_star

    def report(self) -> str:
        """Render the four thresholds next to the paper's quoted values."""
        table = Table(
            headers=["Uncle reward", "Scenario 1 threshold", "Scenario 2 threshold"],
            title=f"Section VI - profitability thresholds at gamma={self.gamma}",
        )
        table.add_row(
            "Ethereum Ku(.)",
            self.current_scenario1.alpha_star,
            self.current_scenario2.alpha_star,
        )
        table.add_row(
            "Flat Ku=4/8 (proposed)",
            self.proposed_scenario1.alpha_star,
            self.proposed_scenario2.alpha_star,
        )
        lines = [table.render()]
        lines.append(
            "Paper reports 0.054 -> 0.163 (scenario 1) and 0.270 -> 0.356 (scenario 2)."
        )
        lines.append(
            f"Measured improvement: +{self.improvement_scenario1():.3f} (scenario 1), "
            f"+{self.improvement_scenario2():.3f} (scenario 2)."
        )
        return "\n".join(lines)


def run_discussion(
    *,
    gamma: float = DISCUSSION_GAMMA,
    current_schedule: RewardSchedule | None = None,
    proposed_schedule: RewardSchedule | None = None,
    max_lead: int = 40,
    max_workers: int | None = None,
    fast: bool = False,
    resilience: "RetryPolicy | None" = None,
) -> DiscussionResult:
    """Recompute the Section VI threshold comparison.

    The four threshold solves (two schedules x two scenarios) are independent, so
    ``max_workers`` fans them out over a process pool (as
    :func:`~repro.utils.resilient.resilient_map` defines it); being
    deterministic, the result is identical to a serial run.
    """
    if current_schedule is None:
        current_schedule = EthereumByzantiumSchedule()
    if proposed_schedule is None:
        proposed_schedule = FlatUncleSchedule(PROPOSED_FLAT_FRACTION)
    if fast:
        max_lead = min(max_lead, 30)
    tasks = [
        (gamma, current_schedule, Scenario.REGULAR_ONLY, max_lead),
        (gamma, current_schedule, Scenario.REGULAR_PLUS_UNCLE, max_lead),
        (gamma, proposed_schedule, Scenario.REGULAR_ONLY, max_lead),
        (gamma, proposed_schedule, Scenario.REGULAR_PLUS_UNCLE, max_lead),
    ]
    solved = parallel_map(_solve_threshold, tasks, max_workers, policy=resilience)
    return DiscussionResult(
        gamma=gamma,
        current_scenario1=solved[0],
        current_scenario2=solved[1],
        proposed_scenario1=solved[2],
        proposed_scenario2=solved[3],
    )
