"""Parameter-sweep helpers shared by the experiment drivers and benchmarks.

The paper's figures are all sweeps: Fig. 8 and Fig. 9 sweep the pool size ``alpha`` at
fixed ``gamma``, Fig. 10 sweeps ``gamma`` and reports a profitability threshold for
each value.  These helpers wrap the revenue/threshold machinery into result containers
that carry aligned arrays ready for tabulation (or plotting, for users with a plotting
stack installed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..params import MiningParams
from ..rewards.schedule import RewardSchedule
from .absolute import AbsoluteRevenue, Scenario, absolute_revenue
from .revenue import RevenueModel, RevenueRates
from .threshold import ThresholdResult, profitable_threshold


def alpha_grid(start: float = 0.0, stop: float = 0.45, step: float = 0.05) -> list[float]:
    """An inclusive ``alpha`` grid like the ones used on the x-axis of Figs. 8 and 9.

    ``alpha = 0`` is represented by a tiny positive value so the analytical model
    (which requires a strictly positive pool) remains well defined; the revenue there
    is indistinguishable from zero.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    values: list[float] = []
    current = start
    while current <= stop + 1e-12:
        values.append(max(current, 1e-4))
        current += step
    return values


@dataclass(frozen=True)
class AlphaSweepPoint:
    """Full analytical output at one ``alpha`` value."""

    params: MiningParams
    rates: RevenueRates
    absolute: AbsoluteRevenue

    @property
    def pool_absolute(self) -> float:
        """Absolute revenue of the selfish pool at this point."""
        return self.absolute.pool

    @property
    def honest_absolute(self) -> float:
        """Absolute revenue of honest miners at this point."""
        return self.absolute.honest

    @property
    def total_absolute(self) -> float:
        """System-wide absolute revenue (the "Total" curves of Fig. 9)."""
        return self.absolute.total


@dataclass(frozen=True)
class AlphaSweep:
    """Results of sweeping ``alpha`` at fixed ``gamma`` for one reward schedule."""

    gamma: float
    scenario: Scenario
    schedule_name: str
    points: tuple[AlphaSweepPoint, ...]

    @property
    def alphas(self) -> list[float]:
        """The swept ``alpha`` values."""
        return [point.params.alpha for point in self.points]

    @property
    def pool_absolute(self) -> list[float]:
        """Pool absolute revenue per swept point."""
        return [point.pool_absolute for point in self.points]

    @property
    def honest_absolute(self) -> list[float]:
        """Honest absolute revenue per swept point."""
        return [point.honest_absolute for point in self.points]

    @property
    def total_absolute(self) -> list[float]:
        """Total absolute revenue per swept point."""
        return [point.total_absolute for point in self.points]

    def crossover_alpha(self) -> float | None:
        """First swept ``alpha`` at which the attack is at least as good as honesty."""
        for point in self.points:
            if point.pool_absolute >= point.params.alpha:
                return point.params.alpha
        return None


def sweep_alpha(
    alphas: Iterable[float],
    gamma: float,
    *,
    schedule: RewardSchedule | None = None,
    scenario: Scenario = Scenario.REGULAR_ONLY,
    model: RevenueModel | None = None,
    max_lead: int = 60,
) -> AlphaSweep:
    """Evaluate the analytical model over a grid of pool sizes.

    Parameters mirror :func:`repro.analysis.threshold.profitable_threshold`; the model
    is built once and reused across the grid.
    """
    if model is None:
        model = RevenueModel(schedule, max_lead=max_lead)
    points: list[AlphaSweepPoint] = []
    for alpha in alphas:
        params = MiningParams(alpha=alpha, gamma=gamma)
        rates = model.revenue_rates(params)
        points.append(
            AlphaSweepPoint(params=params, rates=rates, absolute=absolute_revenue(rates, scenario))
        )
    return AlphaSweep(
        gamma=gamma,
        scenario=scenario,
        schedule_name=type(model.schedule).__name__,
        points=tuple(points),
    )


@dataclass(frozen=True)
class GammaSweep:
    """Profitability thresholds over a grid of ``gamma`` values (one Fig. 10 curve)."""

    scenario: Scenario
    schedule_name: str
    results: tuple[ThresholdResult, ...] = field(default_factory=tuple)

    @property
    def gammas(self) -> list[float]:
        """The swept ``gamma`` values."""
        return [result.gamma for result in self.results]

    @property
    def thresholds(self) -> list[float]:
        """The threshold ``alpha*`` per swept point."""
        return [result.alpha_star for result in self.results]


def sweep_gamma(
    gammas: Sequence[float],
    *,
    schedule: RewardSchedule | None = None,
    scenario: Scenario = Scenario.REGULAR_ONLY,
    model: RevenueModel | None = None,
    max_lead: int = 60,
) -> GammaSweep:
    """Compute the profitability threshold for every ``gamma`` in ``gammas``."""
    if model is None:
        model = RevenueModel(schedule, max_lead=max_lead)
    results = [
        profitable_threshold(gamma, scenario=scenario, model=model) for gamma in gammas
    ]
    return GammaSweep(
        scenario=scenario,
        schedule_name=type(model.schedule).__name__,
        results=tuple(results),
    )
