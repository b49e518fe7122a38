"""Reward schedules: static, uncle and nephew rewards as functions of distance.

The paper normalises the static reward to ``Ks = 1`` and expresses uncle and nephew
rewards as fractions of it (Section III-B).  The Ethereum Byzantium rules are

* uncle reward  ``Ku(d) = (8 - d) / 8`` for referencing distance ``1 <= d <= 6``,
  zero otherwise;
* nephew reward ``Kn(d) = 1 / 32`` regardless of distance (per referenced uncle).

Remarks 6 and 7 of the paper stress that the analysis works for *arbitrary* functions
``Ku(.)`` and ``Kn(.)``; Section VI exploits that freedom by proposing a flat uncle
reward.  This module therefore exposes a small class hierarchy:

``RewardSchedule``
    Abstract interface — ``static_reward``, ``uncle_reward(d)``, ``nephew_reward(d)``.
``EthereumByzantiumSchedule``
    The released Byzantium rules above.
``FlatUncleSchedule``
    A constant uncle reward for distances 1..6 (used by Fig. 9 and Section VI).
``BitcoinSchedule``
    No uncle or nephew rewards at all (the Eyal–Sirer baseline).
``CustomSchedule``
    Arbitrary user-supplied callables.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ..constants import (
    MAX_UNCLE_DISTANCE,
    NEPHEW_REWARD_FRACTION,
    NORMALISED_STATIC_REWARD,
    UNCLE_REWARD_DENOMINATOR,
)
from ..errors import ParameterError
from ..utils.registry import Registry


class RewardSchedule(ABC):
    """Interface for the triple of reward functions ``(Ks, Ku(.), Kn(.))``.

    All rewards are expressed as multiples of the static reward; implementations may
    use a different ``static_reward`` but the analysis in this package always
    normalises to 1.
    """

    #: Maximum referencing distance at which an uncle is still *includable*.
    #: Distances beyond this never earn a reward and the block is treated as plain
    #: stale by the accounting code.
    max_uncle_distance: int = MAX_UNCLE_DISTANCE

    @property
    @abstractmethod
    def static_reward(self) -> float:
        """Reward paid to the miner of every main-chain (regular) block."""

    @abstractmethod
    def uncle_reward(self, distance: int) -> float:
        """Reward paid to the miner of an uncle referenced at ``distance``."""

    @abstractmethod
    def nephew_reward(self, distance: int) -> float:
        """Reward paid to the referencing (nephew) block's miner, per uncle."""

    @property
    def has_uncle_rewards(self) -> bool:
        """True if any (small) referencing distance earns a non-zero uncle reward.

        Only distances up to ``min(max_uncle_distance, 16)`` are probed, so schedules
        with an effectively unbounded window (used by the Fig. 9 sweeps) stay cheap to
        inspect.
        """
        probe_limit = min(self.max_uncle_distance, 16)
        return any(self.uncle_reward(d) > 0.0 for d in range(1, probe_limit + 1))

    def includable(self, distance: int) -> bool:
        """True if an uncle at ``distance`` may be referenced at all.

        Ethereum only allows references within :attr:`max_uncle_distance`
        generations; Bitcoin allows none.
        """
        return 1 <= distance <= self.max_uncle_distance

    def describe(self) -> str:
        """Human-readable summary of the schedule (used in experiment reports)."""
        probe_limit = min(self.max_uncle_distance, 6)
        uncle_values = ", ".join(
            f"Ku({d})={self.uncle_reward(d):.4f}" for d in range(1, probe_limit + 1)
        )
        if self.max_uncle_distance > probe_limit:
            uncle_values += ", ..."
        return (
            f"{type(self).__name__}(Ks={self.static_reward:.4f}, {uncle_values}, "
            f"Kn={self.nephew_reward(1):.4f})"
        )

    def __eq__(self, other: object) -> bool:
        """Value equality via :func:`schedule_fingerprint`.

        Two schedules are equal when they are of the same type and pay the same
        rewards over the probed window — the identity every cache in the
        package keys on.  Without this, re-building a configuration from a
        declarative scenario would never compare equal to the original, even
        though the runs are bit-identical.
        """
        if not isinstance(other, RewardSchedule):
            return NotImplemented
        return schedule_fingerprint(self) == schedule_fingerprint(other)

    def __hash__(self) -> int:
        return hash(schedule_fingerprint(self))

    def __getstate__(self) -> dict:
        # The cached fingerprint is derived data: a copy re-probes on first
        # use, so a pickled schedule (in every task sent to a pool worker and
        # every result sent back) stays as small as the schedule itself.
        state = self.__dict__.copy()
        state.pop("_fingerprint", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()


def _validate_distance(distance: int) -> int:
    if not isinstance(distance, (int,)) or isinstance(distance, bool):
        raise ParameterError(f"uncle distance must be an integer, got {distance!r}")
    if distance < 0:
        raise ParameterError(f"uncle distance must be non-negative, got {distance}")
    return distance


class EthereumByzantiumSchedule(RewardSchedule):
    """The released Byzantium reward rules used by the paper.

    ``Ku(d) = (8 - d)/8`` for ``1 <= d <= 6``; ``Kn = 1/32`` per referenced uncle.
    """

    def __init__(self, static_reward: float = NORMALISED_STATIC_REWARD) -> None:
        if static_reward <= 0:
            raise ParameterError("static_reward must be positive")
        self._static_reward = float(static_reward)

    @property
    def static_reward(self) -> float:
        return self._static_reward

    def uncle_reward(self, distance: int) -> float:
        distance = _validate_distance(distance)
        if not self.includable(distance):
            return 0.0
        fraction = (UNCLE_REWARD_DENOMINATOR - distance) / UNCLE_REWARD_DENOMINATOR
        return fraction * self._static_reward

    def nephew_reward(self, distance: int) -> float:
        distance = _validate_distance(distance)
        if not self.includable(distance):
            return 0.0
        return NEPHEW_REWARD_FRACTION * self._static_reward


class FlatUncleSchedule(RewardSchedule):
    """A distance-independent uncle reward.

    Figure 9 of the paper sweeps ``Ku in {2/8, 4/8, 7/8}`` of the static reward
    ("a fixed value regardless of the distance"), and Section VI proposes ``Ku = 4/8``
    for distances 1..6 as a mitigation; both are instances of this schedule.

    By default the reward is limited to the protocol's referencing window of 6
    generations (the Section VI reading).  Pass a larger ``max_uncle_distance`` to pay
    uncles at any distance — that is the reading under which the paper's Fig. 9 total
    revenue reaches ~135% at ``Ku = 7/8`` (see ``repro.experiments.figure9``).
    """

    def __init__(
        self,
        uncle_fraction: float,
        nephew_fraction: float = NEPHEW_REWARD_FRACTION,
        static_reward: float = NORMALISED_STATIC_REWARD,
        max_uncle_distance: int = MAX_UNCLE_DISTANCE,
    ) -> None:
        if static_reward <= 0:
            raise ParameterError("static_reward must be positive")
        if uncle_fraction < 0:
            raise ParameterError("uncle_fraction must be non-negative")
        if nephew_fraction < 0:
            raise ParameterError("nephew_fraction must be non-negative")
        if max_uncle_distance < 0:
            raise ParameterError("max_uncle_distance must be non-negative")
        self._static_reward = float(static_reward)
        self._uncle_fraction = float(uncle_fraction)
        self._nephew_fraction = float(nephew_fraction)
        self.max_uncle_distance = int(max_uncle_distance)

    @property
    def static_reward(self) -> float:
        return self._static_reward

    @property
    def uncle_fraction(self) -> float:
        """The constant ``Ku / Ks`` ratio applied to every includable distance."""
        return self._uncle_fraction

    def uncle_reward(self, distance: int) -> float:
        distance = _validate_distance(distance)
        if not self.includable(distance):
            return 0.0
        return self._uncle_fraction * self._static_reward

    def nephew_reward(self, distance: int) -> float:
        distance = _validate_distance(distance)
        if not self.includable(distance):
            return 0.0
        return self._nephew_fraction * self._static_reward


class BitcoinSchedule(RewardSchedule):
    """Bitcoin-style rewards: static reward only, no uncle or nephew rewards.

    Running the Ethereum analysis with this schedule recovers the Eyal–Sirer model
    (Remark 4 and Remark 5 of the paper), which is how the repository cross-checks the
    two analyses against each other.
    """

    max_uncle_distance = 0

    def __init__(self, static_reward: float = NORMALISED_STATIC_REWARD) -> None:
        if static_reward <= 0:
            raise ParameterError("static_reward must be positive")
        self._static_reward = float(static_reward)

    @property
    def static_reward(self) -> float:
        return self._static_reward

    def uncle_reward(self, distance: int) -> float:
        _validate_distance(distance)
        return 0.0

    def nephew_reward(self, distance: int) -> float:
        _validate_distance(distance)
        return 0.0

    def includable(self, distance: int) -> bool:
        return False


class CustomSchedule(RewardSchedule):
    """A schedule built from arbitrary uncle/nephew reward callables.

    Parameters
    ----------
    uncle_fn:
        Callable mapping a referencing distance (int >= 1) to the uncle reward.
    nephew_fn:
        Callable mapping a referencing distance to the nephew reward.
    max_uncle_distance:
        Largest distance at which references are allowed.
    static_reward:
        Reward of a regular block; defaults to the normalised value 1.
    """

    def __init__(
        self,
        uncle_fn: Callable[[int], float],
        nephew_fn: Callable[[int], float],
        max_uncle_distance: int = MAX_UNCLE_DISTANCE,
        static_reward: float = NORMALISED_STATIC_REWARD,
    ) -> None:
        if static_reward <= 0:
            raise ParameterError("static_reward must be positive")
        if max_uncle_distance < 0:
            raise ParameterError("max_uncle_distance must be non-negative")
        self._uncle_fn = uncle_fn
        self._nephew_fn = nephew_fn
        self._static_reward = float(static_reward)
        self.max_uncle_distance = int(max_uncle_distance)

    @property
    def static_reward(self) -> float:
        return self._static_reward

    def uncle_reward(self, distance: int) -> float:
        distance = _validate_distance(distance)
        if not self.includable(distance):
            return 0.0
        value = float(self._uncle_fn(distance))
        if value < 0:
            raise ParameterError(f"uncle reward must be non-negative, got {value}")
        return value

    def nephew_reward(self, distance: int) -> float:
        distance = _validate_distance(distance)
        if not self.includable(distance):
            return 0.0
        value = float(self._nephew_fn(distance))
        if value < 0:
            raise ParameterError(f"nephew reward must be non-negative, got {value}")
        return value


def ethereum_schedule() -> EthereumByzantiumSchedule:
    """Return the default Byzantium schedule with ``Ks = 1``."""
    return EthereumByzantiumSchedule()


def flat_uncle_schedule(uncle_fraction: float) -> FlatUncleSchedule:
    """Return a flat uncle-reward schedule, e.g. ``flat_uncle_schedule(4 / 8)``."""
    return FlatUncleSchedule(uncle_fraction=uncle_fraction)


# ---------------------------------------------------------------------- fingerprints
def schedule_fingerprint(schedule: RewardSchedule) -> tuple:
    """A value-based fingerprint of a reward schedule.

    Probes the reward functions over the includable window (capped at 16
    distances, like :attr:`RewardSchedule.has_uncle_rewards`), which separates
    every schedule the package ships.  Two schedules with equal fingerprints
    settle every block identically under Ethereum's 6-generation protocol
    window; exotic custom schedules that differ only beyond distance 16 should
    bypass fingerprint-keyed caches (the result store, the MDP policy cache).

    This is the one schedule identity every cache in the package keys on: the
    MDP solver's policy cache and the on-disk result store both use it.

    Schedules are immutable values, so the probe runs once per instance and
    the tuple is kept on it: every ``config_fingerprint``, ``==`` and
    ``hash`` after the first reads the cached value.
    """
    fingerprint = schedule.__dict__.get("_fingerprint")
    if fingerprint is None:
        fingerprint = schedule._fingerprint = _probe_fingerprint(schedule)
    return fingerprint


def _probe_fingerprint(schedule: RewardSchedule) -> tuple:
    """The uncached probe behind :func:`schedule_fingerprint`."""
    probe = min(int(schedule.max_uncle_distance), 16)
    return (
        type(schedule).__name__,
        float(schedule.static_reward),
        int(schedule.max_uncle_distance),
        tuple(float(schedule.uncle_reward(d)) for d in range(1, probe + 1)),
        tuple(float(schedule.nephew_reward(d)) for d in range(1, probe + 1)),
    )


# ---------------------------------------------------------------------- spec strings
#: Registry of schedule-spec factories keyed by spec name (shared
#: :class:`~repro.utils.registry.Registry` infrastructure, like the strategy,
#: latency-model and simulator-backend registries).  Each factory receives the
#: ``:``-separated arguments of the spec string (possibly empty).
_REGISTRY: Registry = Registry("reward schedule")


def register_schedule_spec(name: str, factory) -> None:
    """Register a schedule-spec factory under ``name`` (rejects duplicates)."""
    _REGISTRY.register(name, factory)


def available_schedule_specs() -> tuple[str, ...]:
    """Names of all registered schedule specs, sorted."""
    return _REGISTRY.available()


def make_schedule(spec: "str | RewardSchedule") -> RewardSchedule:
    """Build a reward schedule from a compact spec string.

    An already-constructed schedule passes through unchanged, so configuration
    fields (and :class:`~repro.scenarios.ScenarioSpec` grids) accept either
    form.  Examples: ``"ethereum"``, ``"bitcoin"``, ``"flat:0.5"`` (flat uncle
    reward inside the protocol window), ``"flat:0.875:1000000"`` (flat reward
    with an explicit referencing window — the Fig. 9 unwindowed reading).
    """
    if isinstance(spec, RewardSchedule):
        return spec
    if not isinstance(spec, str):
        raise ParameterError(f"schedule spec must be a string or RewardSchedule, got {spec!r}")
    name, _, argument_text = spec.partition(":")
    factory = _REGISTRY.get(name)
    arguments = argument_text.split(":") if argument_text else []
    return factory(spec, arguments)


def _no_argument_factory(schedule_type):
    def factory(spec: str, arguments: list[str]) -> RewardSchedule:
        if arguments:
            raise ParameterError(f"schedule spec {spec!r} takes no arguments")
        return schedule_type()

    return factory


def _flat_factory(spec: str, arguments: list[str]) -> RewardSchedule:
    if not 1 <= len(arguments) <= 2:
        raise ParameterError(
            f"schedule spec {spec!r} must look like 'flat:<uncle_fraction>[:<max_distance>]'"
        )
    try:
        fraction = float(arguments[0])
        max_distance = int(arguments[1]) if len(arguments) == 2 else MAX_UNCLE_DISTANCE
    except ValueError:
        raise ParameterError(f"schedule spec {spec!r} carries a non-numeric argument") from None
    return FlatUncleSchedule(fraction, max_uncle_distance=max_distance)


register_schedule_spec("ethereum", _no_argument_factory(EthereumByzantiumSchedule))
register_schedule_spec("bitcoin", _no_argument_factory(BitcoinSchedule))
register_schedule_spec("flat", _flat_factory)
