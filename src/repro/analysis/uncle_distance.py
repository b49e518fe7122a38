"""Distribution of honest miners' uncle referencing distances (Table II).

Section VI of the paper motivates its reward-function redesign with the observation
that the pool's uncles are always referenced at distance 1 (the maximum reward) while
honest miners' uncles drift to larger distances — and therefore smaller rewards — as
the pool grows.  Table II quantifies this with the distribution of honest uncles over
referencing distances 1..6 at ``gamma = 0.5`` for ``alpha = 0.3`` and ``alpha = 0.45``.

:func:`distribution_from_rates` reproduces that table from the analytical model: the
per-distance creation rates of honest referenced uncles are read off a point's
:class:`~repro.analysis.revenue.RevenueRates` and normalised over the
protocol-includable distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..constants import MAX_UNCLE_DISTANCE
from ..errors import ParameterError
from ..params import MiningParams
from .revenue import RevenueRates


@dataclass(frozen=True)
class UncleDistanceDistribution:
    """Distribution of honest uncles over referencing distances at one parameter point."""

    params: MiningParams
    rates: Mapping[int, float]
    probabilities: Mapping[int, float]
    max_distance: int

    @property
    def expectation(self) -> float:
        """Expected referencing distance (the paper's "Expectation" row in Table II)."""
        return sum(distance * probability for distance, probability in self.probabilities.items())

    def probability(self, distance: int) -> float:
        """Probability that an honest uncle is referenced at ``distance``."""
        return self.probabilities.get(distance, 0.0)

    def as_rows(self) -> list[tuple[int, float]]:
        """``(distance, probability)`` rows in distance order, for table rendering."""
        return [(distance, self.probabilities.get(distance, 0.0)) for distance in range(1, self.max_distance + 1)]

    def total_probability(self) -> float:
        """Sum of the distribution (1 unless there are no honest uncles at all)."""
        return sum(self.probabilities.values())


def distribution_from_rates(
    rates: RevenueRates, *, max_distance: int = MAX_UNCLE_DISTANCE
) -> UncleDistanceDistribution:
    """Normalise the per-distance honest-uncle rates of ``rates`` into a distribution.

    Only distances up to ``max_distance`` (the protocol's inclusion window) are kept,
    matching Table II, whose columns sum to one over distances 1..6.
    """
    if max_distance < 1:
        raise ParameterError(f"max_distance must be at least 1, got {max_distance}")
    kept = {
        distance: rate
        for distance, rate in rates.honest_uncle_distance_rates.items()
        if 1 <= distance <= max_distance
    }
    total = sum(kept.values())
    if total > 0:
        probabilities = {distance: rate / total for distance, rate in sorted(kept.items())}
    else:
        probabilities = {}
    return UncleDistanceDistribution(
        params=rates.params,
        rates=dict(sorted(kept.items())),
        probabilities=probabilities,
        max_distance=max_distance,
    )
