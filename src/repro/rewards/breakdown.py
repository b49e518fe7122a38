"""Containers for accumulating rewards per party and per reward type.

Both the analytical revenue engine and the simulator report their results as a
:class:`RevenueSplit`: one :class:`PartyRewards` for the selfish pool and one for the
aggregate of honest miners, each broken down into static, uncle and nephew rewards.
The containers support addition and scaling so that per-transition expected rewards
can be combined with stationary probabilities, and so that multi-run simulation
results can be averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PartyRewards:
    """Rewards earned by one party, broken down by reward type.

    The units are whatever the caller chooses — the analysis uses "reward per unit
    time" (rates), while the simulator uses absolute accumulated reward; both are
    normalised later.
    """

    static: float = 0.0
    uncle: float = 0.0
    nephew: float = 0.0

    @property
    def total(self) -> float:
        """Sum of static, uncle and nephew rewards."""
        return self.static + self.uncle + self.nephew

    def __add__(self, other: "PartyRewards") -> "PartyRewards":
        if not isinstance(other, PartyRewards):
            return NotImplemented
        return PartyRewards(
            static=self.static + other.static,
            uncle=self.uncle + other.uncle,
            nephew=self.nephew + other.nephew,
        )

    def __sub__(self, other: "PartyRewards") -> "PartyRewards":
        if not isinstance(other, PartyRewards):
            return NotImplemented
        return PartyRewards(
            static=self.static - other.static,
            uncle=self.uncle - other.uncle,
            nephew=self.nephew - other.nephew,
        )

    def scaled(self, factor: float) -> "PartyRewards":
        """Return a copy with every component multiplied by ``factor``."""
        return PartyRewards(
            static=self.static * factor,
            uncle=self.uncle * factor,
            nephew=self.nephew * factor,
        )

    def __mul__(self, factor: float) -> "PartyRewards":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def as_dict(self) -> dict[str, float]:
        """Return the breakdown as a plain dictionary (handy for reports/tests)."""
        return {
            "static": self.static,
            "uncle": self.uncle,
            "nephew": self.nephew,
            "total": self.total,
        }

    def isclose(self, other: "PartyRewards", *, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
        """Component-wise closeness check (used heavily by the test-suite)."""
        import math

        return (
            math.isclose(self.static, other.static, rel_tol=rel_tol, abs_tol=abs_tol)
            and math.isclose(self.uncle, other.uncle, rel_tol=rel_tol, abs_tol=abs_tol)
            and math.isclose(self.nephew, other.nephew, rel_tol=rel_tol, abs_tol=abs_tol)
        )


@dataclass(frozen=True)
class RevenueSplit:
    """Rewards earned by the selfish pool and by honest miners, side by side."""

    pool: PartyRewards = field(default_factory=PartyRewards)
    honest: PartyRewards = field(default_factory=PartyRewards)

    @property
    def total(self) -> float:
        """System-wide reward (pool + honest, all types)."""
        return self.pool.total + self.honest.total

    @property
    def total_static(self) -> float:
        """System-wide static reward; equals the regular-block rate when Ks = 1."""
        return self.pool.static + self.honest.static

    @property
    def total_uncle(self) -> float:
        """System-wide uncle reward."""
        return self.pool.uncle + self.honest.uncle

    @property
    def total_nephew(self) -> float:
        """System-wide nephew reward."""
        return self.pool.nephew + self.honest.nephew

    def pool_share(self) -> float:
        """Relative revenue of the pool, ``Rs`` in the paper (Section IV-E.1).

        0 when the total is not positive, also when :meth:`scaled` underflowed it.
        """
        total = self.total
        if total <= 0:
            return 0.0
        return self.pool.total / total

    def __add__(self, other: "RevenueSplit") -> "RevenueSplit":
        if not isinstance(other, RevenueSplit):
            return NotImplemented
        return RevenueSplit(pool=self.pool + other.pool, honest=self.honest + other.honest)

    def scaled(self, factor: float) -> "RevenueSplit":
        """Return a copy with every component multiplied by ``factor``.

        Plain float products: ``pool_share`` is kept for normal components, while
        a subnormal one may underflow to 0 (so may the share).
        """
        return RevenueSplit(pool=self.pool.scaled(factor), honest=self.honest.scaled(factor))

    def __mul__(self, factor: float) -> "RevenueSplit":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Nested dictionary view of the split."""
        return {"pool": self.pool.as_dict(), "honest": self.honest.as_dict()}

    def isclose(self, other: "RevenueSplit", *, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> bool:
        """Component-wise closeness check for both parties."""
        return self.pool.isclose(other.pool, rel_tol=rel_tol, abs_tol=abs_tol) and self.honest.isclose(
            other.honest, rel_tol=rel_tol, abs_tol=abs_tol
        )
