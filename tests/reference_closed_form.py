"""The paper's printed closed forms: Eq. (2), Appendix A and Eqs. (3)-(9).

A test oracle.  Every result of the package comes from the numerical model
(``repro.analysis.revenue``); the paper additionally prints closed forms for the
stationary distribution and for the individual revenue components.  This module
transcribes those printed formulas *as written*, so the suites can record how
well they agree with the numerical model.

Stationary distribution (Eq. 2, Appendix A):

* ``pi_{0,0} = (1 - 2*alpha) / (2*alpha**3 - 4*alpha**2 + 1)``
* ``pi_{i,0} = alpha**i * pi_{0,0}``                              for ``i >= 1``
* ``pi_{1,1} = (alpha - alpha**2) * pi_{0,0}``
* a longer expression for ``pi_{i,j}`` with ``i >= j + 2, j >= 1`` built from the
  multiple-summation helper ``f(x, y, z)`` of Appendix A.

The first three expressions are exact and the suites check them against the
numerical solver.  The published ``pi_{i,j}`` leaves the value of ``f(x, y, 0)``
(which appears in its last sum when ``k = j``) to interpretation, so
:func:`pi_ij` accepts a ``f_zero_convention`` argument and the suites record how
well each convention matches the numerical stationary distribution.

Revenue components (Eqs. 3-9):

* Eq. (3) ``r_b^s`` and Eq. (4) ``r_b^h`` — static rewards (these match the case
  engine and the Eyal–Sirer static analysis exactly);
* Eq. (5) ``r_u^s`` — the pool's uncle reward;
* Eq. (6) ``r_u^h`` — honest miners' uncle rewards;
* Eq. (8) ``r_n^s`` and Eq. (9) ``r_n^h`` — nephew rewards.

Two transcription notes:

* The printed nephew equations write ``Ks(i)`` where the nephew reward function
  ``Kn(i)`` is clearly meant (the nephew reward is the only distance-indexed reward
  left); we use ``Kn``.
* The printed sums in Eqs. (6), (8) and (9) run only over states ``(i+j, j)`` with
  ``j >= 1`` and therefore omit the uncle/nephew rewards generated out of the
  ``(i, 0)`` states (the paper's Appendix-B Cases 9 and 10), and the pool-side nephew
  weight in Eq. (8) differs from the case analysis.  The case engine keeps those
  terms.  The static-reward equations (3)-(4) and the pool uncle reward (5) are
  unaffected and agree with the case engine to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from repro.errors import ParameterError
from repro.markov.state import State
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, RewardSchedule


@lru_cache(maxsize=None)
def multiple_summation(x: int, y: int, z: int) -> int:
    """The nested-summation counter ``f(x, y, z)`` of Appendix A.

    ``f(x, y, z)`` counts integer tuples ``(s_1, ..., s_z)`` with

    * ``s_z`` ranging from ``y + 2`` to ``x``,
    * ``s_{k}`` ranging from ``y - z + k + 2`` to ``s_{k+1}`` for ``k < z``.

    By definition the value is 0 when ``z < 1`` or ``x < y + 2``.

    Examples (Appendix A):

    >>> multiple_summation(5, 1, 1)   # f(x, y, 1) = x - y - 1
    3
    >>> multiple_summation(5, 1, 2)   # f(x, y, 2) = (x-y-1)(x-y+2)/2
    9
    """
    if z < 1 or x < y + 2:
        return 0

    # Dynamic programme over the nesting levels.  count[upper] is the number of ways
    # to choose s_1..s_level with s_level <= upper.
    def lower_bound(level: int) -> int:
        return y - z + level + 2

    # Level 1: s_1 ranges from lower_bound(1) to its upper limit.
    # counts_for_upper(u) at level 1 = max(0, u - lower_bound(1) + 1).
    max_upper = x
    level_counts = [max(0, upper - lower_bound(1) + 1) for upper in range(0, max_upper + 1)]
    for level in range(2, z + 1):
        prefix = [0] * (max_upper + 1)
        running = 0
        for upper in range(0, max_upper + 1):
            running += level_counts[upper]
            prefix[upper] = running
        new_counts = [0] * (max_upper + 1)
        low = lower_bound(level)
        for upper in range(0, max_upper + 1):
            if upper < low:
                new_counts[upper] = 0
            else:
                new_counts[upper] = prefix[upper] - (prefix[low - 1] if low - 1 >= 0 else 0)
        level_counts = new_counts
    return int(level_counts[x])


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"the closed forms require 0 < alpha < 0.5, got {alpha}")
    return float(alpha)


def pi_00(alpha: float) -> float:
    """Closed-form stationary probability of state ``(0, 0)``."""
    alpha = _check_alpha(alpha)
    return (1.0 - 2.0 * alpha) / (2.0 * alpha**3 - 4.0 * alpha**2 + 1.0)


def pi_i0(alpha: float, i: int) -> float:
    """Closed-form stationary probability of state ``(i, 0)`` for ``i >= 1``."""
    if i < 1:
        raise ParameterError(f"pi_i0 requires i >= 1, got {i}")
    alpha = _check_alpha(alpha)
    return alpha**i * pi_00(alpha)


def pi_11(alpha: float) -> float:
    """Closed-form stationary probability of state ``(1, 1)``."""
    alpha = _check_alpha(alpha)
    return (alpha - alpha**2) * pi_00(alpha)


def pi_ij(
    alpha: float,
    gamma: float,
    i: int,
    j: int,
    *,
    f_zero_convention: str = "zero",
) -> float:
    """The paper's closed-form expression for ``pi_{i,j}`` with ``i >= j+2, j >= 1``.

    Parameters
    ----------
    alpha, gamma:
        Model parameters.
    i, j:
        State coordinates; must satisfy ``i >= j + 2`` and ``j >= 1``.
    f_zero_convention:
        Value assigned to ``f(x, y, 0)`` inside the final sum: ``"zero"`` follows the
        literal Appendix-A definition, ``"one"`` treats an empty nest of summations as
        the multiplicative identity.
    """
    if j < 1 or i < j + 2:
        raise ParameterError(f"pi_ij requires i >= j + 2 and j >= 1, got (i, j) = ({i}, {j})")
    if f_zero_convention not in {"zero", "one"}:
        raise ParameterError(f"unknown f_zero_convention {f_zero_convention!r}")
    alpha = _check_alpha(alpha)
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    beta = 1.0 - alpha
    base = pi_00(alpha)

    def f_value(x: int, y: int, z: int) -> float:
        if z == 0 and f_zero_convention == "one":
            return 1.0
        return float(multiple_summation(x, y, z))

    first = alpha**i * beta**j * (1.0 - gamma) ** j * f_value(i, j, j)
    second = (
        alpha ** (i - j)
        * gamma
        * (1.0 - gamma) ** (j - 1)
        * (1.0 / beta ** (i - j - 1) - 1.0)
    )
    third = 0.0
    for k in range(1, j + 1):
        third += alpha ** (i - k) * beta ** (j - k) * f_value(i, j, j - k)
    third *= gamma * (1.0 - gamma) ** (j - 1)
    return (first + second - third) * base


def closed_form_distribution(
    params: MiningParams,
    *,
    max_lead: int = 30,
    f_zero_convention: str = "zero",
) -> Mapping[State, float]:
    """Evaluate the closed-form expressions over a truncated state space.

    The suites compare it with the numerical stationary distribution; the revenue
    pipeline always uses the numerical distribution.
    """
    distribution: dict[State, float] = {}
    alpha, gamma = params.alpha, params.gamma
    distribution[State(0, 0)] = pi_00(alpha)
    distribution[State(1, 1)] = pi_11(alpha)
    for i in range(1, max_lead + 1):
        distribution[State(i, 0)] = pi_i0(alpha, i)
    for i in range(3, max_lead + 1):
        for j in range(1, i - 1):
            distribution[State(i, j)] = pi_ij(
                alpha, gamma, i, j, f_zero_convention=f_zero_convention
            )
    return distribution


#: Default truncation for the infinite sums in Eqs. (6), (8) and (9).
DEFAULT_SUM_TRUNCATION = 60


@dataclass(frozen=True)
class ClosedFormRevenue:
    """The six revenue components of Eqs. (3)-(9) at one parameter point."""

    params: MiningParams
    pool_static: float
    honest_static: float
    pool_uncle: float
    honest_uncle: float
    pool_nephew: float
    honest_nephew: float

    @property
    def pool_total(self) -> float:
        """``r_b^s + r_u^s + r_n^s``."""
        return self.pool_static + self.pool_uncle + self.pool_nephew

    @property
    def honest_total(self) -> float:
        """``r_b^h + r_u^h + r_n^h``."""
        return self.honest_static + self.honest_uncle + self.honest_nephew

    @property
    def total(self) -> float:
        """The paper's ``r_total`` (Eq. 10)."""
        return self.pool_total + self.honest_total

    @property
    def relative_pool_revenue(self) -> float:
        """The pool's revenue share ``Rs``."""
        total = self.total
        return self.pool_total / total if total > 0 else 0.0


def pool_static_revenue(params: MiningParams) -> float:
    """Eq. (3): the pool's long-run static reward rate ``r_b^s``."""
    alpha, gamma = params.alpha, params.gamma
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"Eq. (3) requires 0 < alpha < 0.5, got {alpha}")
    numerator = alpha * (1.0 - alpha) ** 2 * (4.0 * alpha + gamma * (1.0 - 2.0 * alpha)) - alpha**3
    return numerator / (2.0 * alpha**3 - 4.0 * alpha**2 + 1.0)


def honest_static_revenue(params: MiningParams) -> float:
    """Eq. (4): honest miners' long-run static reward rate ``r_b^h``."""
    alpha, gamma = params.alpha, params.gamma
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"Eq. (4) requires 0 < alpha < 0.5, got {alpha}")
    numerator = (1.0 - 2.0 * alpha) * (1.0 - alpha) * (alpha * (1.0 - alpha) * (2.0 - gamma) + 1.0)
    return numerator / (2.0 * alpha**3 - 4.0 * alpha**2 + 1.0)


def pool_uncle_revenue(params: MiningParams, schedule: RewardSchedule) -> float:
    """Eq. (5): the pool's uncle reward rate ``r_u^s`` (always referenced at distance 1)."""
    alpha, gamma = params.alpha, params.gamma
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"Eq. (5) requires 0 < alpha < 0.5, got {alpha}")
    coefficient = (1.0 - 2.0 * alpha) * (1.0 - alpha) ** 2 * alpha * (1.0 - gamma)
    return coefficient / (2.0 * alpha**3 - 4.0 * alpha**2 + 1.0) * schedule.uncle_reward(1)


def honest_uncle_revenue(
    params: MiningParams, schedule: RewardSchedule, *, truncation: int = DEFAULT_SUM_TRUNCATION
) -> float:
    """Eq. (6): honest miners' uncle reward rate ``r_u^h`` (sums truncated at ``truncation``)."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    total = (alpha * beta + beta**2 * gamma) * schedule.uncle_reward(1) * pi_i0(alpha, 1)
    for i in range(2, truncation + 1):
        total += beta * schedule.uncle_reward(i) * pi_i0(alpha, i)
    for i in range(2, truncation + 1):
        for j in range(1, truncation + 1):
            total += beta * gamma * schedule.uncle_reward(i) * pi_ij(alpha, gamma, i + j, j)
    return total


def pool_nephew_revenue(
    params: MiningParams, schedule: RewardSchedule, *, truncation: int = DEFAULT_SUM_TRUNCATION
) -> float:
    """Eq. (8): the pool's nephew reward rate ``r_n^s`` as printed in the paper."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    total = alpha * beta * schedule.nephew_reward(1) * pi_i0(alpha, 1)
    for i in range(2, truncation + 1):
        for j in range(1, truncation + 1):
            total += (
                beta ** (i - 1)
                * gamma
                * (alpha - alpha * beta**2 * (1.0 - gamma))
                * schedule.nephew_reward(i)
                * pi_ij(alpha, gamma, i + j, j)
            )
    return total


def honest_nephew_revenue(
    params: MiningParams, schedule: RewardSchedule, *, truncation: int = DEFAULT_SUM_TRUNCATION
) -> float:
    """Eq. (9): honest miners' nephew reward rate ``r_n^h`` as printed in the paper."""
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    total = alpha * beta**2 * (1.0 - gamma) * schedule.nephew_reward(1) * pi_00(alpha)
    total += beta**2 * gamma * schedule.nephew_reward(1) * pi_i0(alpha, 1)
    for i in range(2, truncation + 1):
        for j in range(1, truncation + 1):
            total += (
                beta**i
                * gamma
                * (1.0 + alpha * beta * (1.0 - gamma))
                * schedule.nephew_reward(i)
                * pi_ij(alpha, gamma, i + j, j)
            )
    return total


def closed_form_revenue(
    params: MiningParams,
    schedule: RewardSchedule | None = None,
    *,
    truncation: int = DEFAULT_SUM_TRUNCATION,
) -> ClosedFormRevenue:
    """Evaluate all six printed revenue expressions at one parameter point."""
    if schedule is None:
        schedule = EthereumByzantiumSchedule()
    return ClosedFormRevenue(
        params=params,
        pool_static=pool_static_revenue(params),
        honest_static=honest_static_revenue(params),
        pool_uncle=pool_uncle_revenue(params, schedule),
        honest_uncle=honest_uncle_revenue(params, schedule, truncation=truncation),
        pool_nephew=pool_nephew_revenue(params, schedule, truncation=truncation),
        honest_nephew=honest_nephew_revenue(params, schedule, truncation=truncation),
    )
