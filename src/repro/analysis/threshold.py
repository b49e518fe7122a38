"""Profitability thresholds: the smallest pool size for which selfish mining pays.

The pool compares its absolute revenue ``Us(alpha)`` under the attack against the
``alpha`` it would earn by mining honestly (Section IV-E.3).  The threshold
``alpha*`` is the smallest ``alpha`` with ``Us(alpha) >= alpha``.

:func:`profitable_threshold` locates the threshold by a coarse grid scan (to bracket
the first sign change of ``Us(alpha) - alpha``) followed by bisection.  The grid scan
is necessary because the gain function is not monotone near zero — for very small
pools in Ethereum the loss is tiny but still a loss (Fig. 8), and for ``gamma`` close
to one the attack is profitable for every pool size, in which case the threshold is
reported as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SolverError
from ..params import MiningParams
from ..rewards.schedule import RewardSchedule
from .absolute import Scenario, absolute_revenue
from .revenue import RevenueModel

#: Smallest pool size considered when scanning for a sign change.
MIN_ALPHA = 1e-3

#: Largest pool size considered (the model requires alpha < 1/2).
MAX_ALPHA = 0.4995


@dataclass(frozen=True)
class ThresholdResult:
    """The profitability threshold for one ``(gamma, scenario, schedule)`` combination."""

    gamma: float
    scenario: Scenario
    schedule_name: str
    alpha_star: float
    profitable_everywhere: bool
    profitable_nowhere: bool
    evaluations: int

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.profitable_everywhere:
            status = "profitable for every pool size"
        elif self.profitable_nowhere:
            status = "never profitable below alpha = 0.5"
        else:
            status = f"alpha* = {self.alpha_star:.4f}"
        return f"gamma={self.gamma:.2f}, {self.scenario.value}, {self.schedule_name}: {status}"


def selfish_gain(
    model: RevenueModel,
    params: MiningParams,
    scenario: Scenario,
) -> float:
    """``Us(alpha) - alpha``: the pool's absolute gain over honest mining."""
    rates = model.revenue_rates(params)
    absolute = absolute_revenue(rates, scenario)
    return absolute.pool - params.alpha


def profitable_threshold(
    gamma: float,
    *,
    scenario: Scenario = Scenario.REGULAR_ONLY,
    schedule: RewardSchedule | None = None,
    model: RevenueModel | None = None,
    max_lead: int = 60,
    grid_points: int = 25,
    tolerance: float = 1e-4,
) -> ThresholdResult:
    """Find the profitability threshold ``alpha*`` for a given ``gamma``.

    Parameters
    ----------
    gamma:
        Tie-breaking / network-capability parameter.
    scenario:
        Difficulty-adjustment scenario used to normalise revenues.
    schedule:
        Reward schedule; defaults to the Ethereum Byzantium rules.  Ignored when a
        pre-built ``model`` is supplied.
    model:
        Optionally, a pre-configured :class:`RevenueModel` to reuse across calls
        (recommended when sweeping ``gamma``).
    max_lead:
        Lead cap used when building a model on the fly.  At ``alpha = 0.45`` it
        puts a boundary mass of 8.7e-7 on every gamma and an error of 9.5e-7 on
        ``Rs`` at ``gamma = 0.5``; at ``alpha = 0.3`` the mass is 3.4e-23 (see
        :class:`RevenueModel`).  Every rate reports it as ``truncation_mass``.
    grid_points:
        Number of points in the initial bracketing scan.
    tolerance:
        Width of the final bisection bracket.
    """
    if model is None:
        model = RevenueModel(schedule, max_lead=max_lead)
    evaluations = 0

    def gain(alpha: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return selfish_gain(model, MiningParams(alpha=alpha, gamma=gamma), scenario)

    schedule_name = type(model.schedule).__name__

    # Coarse scan to bracket the first crossing from negative to non-negative gain.
    grid = [MIN_ALPHA + (MAX_ALPHA - MIN_ALPHA) * k / (grid_points - 1) for k in range(grid_points)]
    previous_alpha = grid[0]
    previous_gain = gain(previous_alpha)
    if previous_gain >= 0:
        return ThresholdResult(
            gamma=gamma,
            scenario=scenario,
            schedule_name=schedule_name,
            alpha_star=0.0,
            profitable_everywhere=True,
            profitable_nowhere=False,
            evaluations=evaluations,
        )
    bracket: tuple[float, float] | None = None
    for alpha in grid[1:]:
        current_gain = gain(alpha)
        if current_gain >= 0:
            bracket = (previous_alpha, alpha)
            break
        previous_alpha, previous_gain = alpha, current_gain
    if bracket is None:
        return ThresholdResult(
            gamma=gamma,
            scenario=scenario,
            schedule_name=schedule_name,
            alpha_star=MAX_ALPHA,
            profitable_everywhere=False,
            profitable_nowhere=True,
            evaluations=evaluations,
        )

    low, high = bracket
    while high - low > tolerance:
        middle = 0.5 * (low + high)
        if gain(middle) >= 0:
            high = middle
        else:
            low = middle
    alpha_star = 0.5 * (low + high)
    if not MIN_ALPHA <= alpha_star <= MAX_ALPHA:
        raise SolverError(f"threshold search produced an out-of-range alpha* = {alpha_star}")
    return ThresholdResult(
        gamma=gamma,
        scenario=scenario,
        schedule_name=schedule_name,
        alpha_star=alpha_star,
        profitable_everywhere=False,
        profitable_nowhere=False,
        evaluations=evaluations,
    )
