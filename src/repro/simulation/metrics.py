"""Result containers for simulation runs and multi-run aggregates.

A :class:`SimulationResult` captures everything a single run produced: accumulated
rewards per party, block classification counts, and the honest uncle-distance
histogram.  From those it derives the quantities the paper plots — relative revenue,
and absolute revenue under either difficulty-adjustment scenario.

:func:`aggregate_results` averages several runs (the paper averages 10) and reports
the sample standard deviation alongside each mean so experiment reports can show the
statistical error of the simulation next to the analytical prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..analysis.absolute import Scenario
from ..chain.rewards import ChainSettlement
from ..errors import SimulationError
from ..rewards.breakdown import PartyRewards, RevenueSplit
from .config import SimulationConfig


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a single simulation run."""

    config: SimulationConfig
    pool_rewards: PartyRewards
    honest_rewards: PartyRewards
    regular_blocks: float
    pool_regular_blocks: float
    honest_regular_blocks: float
    uncle_blocks: float
    pool_uncle_blocks: float
    honest_uncle_blocks: float
    stale_blocks: float
    total_blocks: float
    num_events: int
    honest_uncle_distance_counts: Mapping[int, float] = field(default_factory=dict)
    pool_uncle_distance_counts: Mapping[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ revenue views
    @property
    def split(self) -> RevenueSplit:
        """Rewards of both parties as a :class:`RevenueSplit`."""
        return RevenueSplit(pool=self.pool_rewards, honest=self.honest_rewards)

    @property
    def total_reward(self) -> float:
        """All rewards paid out during the run."""
        return self.pool_rewards.total + self.honest_rewards.total

    @property
    def relative_pool_revenue(self) -> float:
        """The pool's share of all rewards (the paper's ``Rs``).

        A degenerate run that paid no reward at all has no meaningful revenue
        share, so — consistently with :meth:`pool_absolute_revenue` — it raises
        instead of silently reporting ``0.0``.
        """
        total = self.total_reward
        if total <= 0:
            raise SimulationError("run paid no rewards; relative revenue is undefined")
        return self.pool_rewards.total / total

    def normaliser(self, scenario: Scenario) -> float:
        """Block count the chosen difficulty rule holds constant (per Section IV-E.2)."""
        if scenario is Scenario.REGULAR_ONLY:
            return self.regular_blocks
        if scenario is Scenario.REGULAR_PLUS_UNCLE:
            return self.regular_blocks + self.uncle_blocks
        raise SimulationError(f"unknown scenario {scenario!r}")

    def pool_absolute_revenue(self, scenario: Scenario = Scenario.REGULAR_ONLY) -> float:
        """Pool reward per difficulty-counted block (the paper's ``Us``)."""
        normaliser = self.normaliser(scenario)
        if normaliser <= 0:
            raise SimulationError("run produced no qualifying blocks; cannot normalise")
        return self.pool_rewards.total / normaliser

    def honest_absolute_revenue(self, scenario: Scenario = Scenario.REGULAR_ONLY) -> float:
        """Honest reward per difficulty-counted block (the paper's ``Uh``)."""
        normaliser = self.normaliser(scenario)
        if normaliser <= 0:
            raise SimulationError("run produced no qualifying blocks; cannot normalise")
        return self.honest_rewards.total / normaliser

    def total_absolute_revenue(self, scenario: Scenario = Scenario.REGULAR_ONLY) -> float:
        """System-wide reward per difficulty-counted block (the "Total" curves of Fig. 9)."""
        return self.pool_absolute_revenue(scenario) + self.honest_absolute_revenue(scenario)

    # ------------------------------------------------------------------ block statistics
    @property
    def stale_fraction(self) -> float:
        """Fraction of all blocks that ended up neither regular nor referenced uncles."""
        return self.stale_blocks / self.total_blocks if self.total_blocks > 0 else 0.0

    @property
    def uncle_fraction(self) -> float:
        """Fraction of all blocks that ended up as referenced uncles."""
        return self.uncle_blocks / self.total_blocks if self.total_blocks > 0 else 0.0

    def honest_uncle_distance_distribution(self) -> dict[int, float]:
        """Normalised distribution of honest uncles over referencing distances (Table II)."""
        total = sum(self.honest_uncle_distance_counts.values())
        if total <= 0:
            return {}
        return {
            distance: count / total
            for distance, count in sorted(self.honest_uncle_distance_counts.items())
        }

    def expected_honest_uncle_distance(self) -> float:
        """Mean referencing distance of honest uncles (the Table II "Expectation" row)."""
        distribution = self.honest_uncle_distance_distribution()
        return sum(distance * probability for distance, probability in distribution.items())

    @classmethod
    def from_settlement(
        cls, config: SimulationConfig, settlement: ChainSettlement, num_events: int
    ) -> "SimulationResult":
        """Build a result from a chain settlement (used by the full simulator)."""
        return cls(
            config=config,
            pool_rewards=settlement.split.pool,
            honest_rewards=settlement.split.honest,
            regular_blocks=float(settlement.regular_blocks),
            pool_regular_blocks=float(settlement.pool_regular_blocks),
            honest_regular_blocks=float(settlement.honest_regular_blocks),
            uncle_blocks=float(settlement.uncle_blocks),
            pool_uncle_blocks=float(settlement.pool_uncle_blocks),
            honest_uncle_blocks=float(settlement.honest_uncle_blocks),
            stale_blocks=float(settlement.stale_blocks),
            total_blocks=float(settlement.total_blocks),
            num_events=num_events,
            honest_uncle_distance_counts=dict(settlement.honest_uncle_distance_counts),
            pool_uncle_distance_counts=dict(settlement.pool_uncle_distance_counts),
        )


@dataclass(frozen=True)
class MinerOutcome:
    """Per-miner outcome of a network-backend run (generalised pool/honest split)."""

    name: str
    strategy: str
    hash_power: float
    rewards: PartyRewards
    blocks_mined: int

    @property
    def is_strategic(self) -> bool:
        """True when the miner ran a non-honest strategy (an attacking pool)."""
        return self.strategy != "honest"


@dataclass(frozen=True)
class NetworkSimulationResult(SimulationResult):
    """A :class:`SimulationResult` with per-miner outcomes and emergent-tie statistics.

    The aggregate pool/honest split sums the strategic miners into the "pool" party
    and everyone else into the "honest" party, so every consumer of
    :class:`SimulationResult` (aggregation, sweeps, reports) works unchanged; the
    per-miner breakdown and the tie counters are additional views.

    ``tie_wins`` / ``tie_losses`` count honest blocks mined on an attacker branch /
    on an honest branch while the miner's local view contained an equal-height
    competitor of the other party; their ratio is the *emergent* tie-breaking
    capability the paper models as the exogenous parameter ``gamma``.
    """

    miners: tuple[MinerOutcome, ...] = ()
    tie_wins: int = 0
    tie_losses: int = 0

    @property
    def tie_count(self) -> int:
        """Number of honest blocks mined while facing an equal-height fork."""
        return self.tie_wins + self.tie_losses

    @property
    def effective_gamma(self) -> float | None:
        """Fraction of contested honest blocks that extended an attacker branch.

        ``None`` when the run produced no contested blocks (e.g. an all-honest
        zero-latency network, which never forks).
        """
        if self.tie_count == 0:
            return None
        return self.tie_wins / self.tie_count

    def miner_relative_revenue(self, name: str) -> float:
        """One miner's share of all rewards paid during the run."""
        total = self.total_reward
        if total <= 0:
            raise SimulationError("run paid no rewards; relative revenue is undefined")
        for miner in self.miners:
            if miner.name == name:
                return miner.rewards.total / total
        raise SimulationError(f"no miner named {name!r} in this result")


def mean_effective_gamma(results: Sequence[SimulationResult]) -> MeanStd:
    """Mean and spread of the emergent tie ratio over several network runs.

    Runs without any contested block (``effective_gamma is None``) are skipped;
    with no contested run at all the count is zero.
    """
    values = [
        result.effective_gamma
        for result in results
        if isinstance(result, NetworkSimulationResult) and result.effective_gamma is not None
    ]
    return mean_std(values)


@dataclass(frozen=True)
class MeanStd:
    """A sample mean together with its sample standard deviation."""

    mean: float
    std: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.4f} +/- {self.std:.4f} (n={self.count})"


def mean_std(values: Sequence[float]) -> MeanStd:
    """Sample mean and (n-1)-normalised standard deviation of ``values``.

    Zero values yield a zero-count record; a single value has zero spread.  This
    is the one definition every aggregate in the package uses.
    """
    count = len(values)
    if count == 0:
        return MeanStd(mean=0.0, std=0.0, count=0)
    mean = sum(values) / count
    if count == 1:
        return MeanStd(mean=mean, std=0.0, count=1)
    variance = sum((value - mean) ** 2 for value in values) / (count - 1)
    return MeanStd(mean=mean, std=math.sqrt(variance), count=count)


def reported_spread(stats: MeanStd) -> float | str:
    """``stats.std`` for a report cell, or ``"n/a"`` below two runs.

    A sample standard deviation needs two values; :func:`mean_std` records 0 for
    one run so aggregates stay comparable, but a report must not print it.
    """
    return stats.std if stats.count >= 2 else "n/a"


#: Backwards-compatible private alias (pre-PR 3 spelling).
_mean_std = mean_std


@dataclass(frozen=True)
class AggregatedResult:
    """Mean and spread of the headline quantities over several runs."""

    results: tuple[SimulationResult, ...]
    pool_absolute_scenario1: MeanStd
    pool_absolute_scenario2: MeanStd
    honest_absolute_scenario1: MeanStd
    honest_absolute_scenario2: MeanStd
    relative_pool_revenue: MeanStd
    uncle_fraction: MeanStd
    stale_fraction: MeanStd
    expected_honest_uncle_distance: MeanStd

    @property
    def num_runs(self) -> int:
        """Number of runs aggregated."""
        return len(self.results)

    def honest_uncle_distance_distribution(self) -> dict[int, float]:
        """Run-averaged distribution of honest uncle referencing distances."""
        pooled: dict[int, float] = {}
        for result in self.results:
            for distance, count in result.honest_uncle_distance_counts.items():
                pooled[distance] = pooled.get(distance, 0.0) + count
        total = sum(pooled.values())
        if total <= 0:
            return {}
        return {distance: count / total for distance, count in sorted(pooled.items())}


def aggregate_results(results: Sequence[SimulationResult]) -> AggregatedResult:
    """Aggregate several runs of the *same* configuration (different seeds)."""
    if not results:
        raise SimulationError("cannot aggregate an empty list of simulation results")
    return AggregatedResult(
        results=tuple(results),
        pool_absolute_scenario1=_mean_std([r.pool_absolute_revenue(Scenario.REGULAR_ONLY) for r in results]),
        pool_absolute_scenario2=_mean_std(
            [r.pool_absolute_revenue(Scenario.REGULAR_PLUS_UNCLE) for r in results]
        ),
        honest_absolute_scenario1=_mean_std(
            [r.honest_absolute_revenue(Scenario.REGULAR_ONLY) for r in results]
        ),
        honest_absolute_scenario2=_mean_std(
            [r.honest_absolute_revenue(Scenario.REGULAR_PLUS_UNCLE) for r in results]
        ),
        relative_pool_revenue=_mean_std([r.relative_pool_revenue for r in results]),
        uncle_fraction=_mean_std([r.uncle_fraction for r in results]),
        stale_fraction=_mean_std([r.stale_fraction for r in results]),
        expected_honest_uncle_distance=_mean_std([r.expected_honest_uncle_distance() for r in results]),
    )
