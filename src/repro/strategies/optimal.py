"""The solved optimal policy as a pluggable mining strategy.

:class:`OptimalStrategy` is a plain policy lookup table: after the pool mines a
block it takes the *source* state of the event — race view ``(Ls, Lh)`` came
from state ``(Ls - 1, Lh)`` — and overrides (publishes everything, claims the
race) exactly when the :meth:`~repro.markov.state.State.encode` code of that
state's ``(lead, forked)`` class representative
(:meth:`~repro.markov.state.LumpedSpace.representative`) is in the table;
otherwise it withholds, Algorithm 1's default.  Reactions to honest
blocks are Algorithm 1's (adopt behind, match the tie, override a lead of one,
reveal one block against deeper leads) — the regime the MDP's reward model is
exact in (see :mod:`repro.mdp`).  The table therefore expresses honest mining
(override at ``(0, 0)``), Algorithm 1 (override only at the ``(1, 1)`` tie-break)
and every withhold/override hybrid in between.

Like every catalogue strategy the class is a stateless frozen dataclass —
hashable, picklable (process-pool requirement) and shareable across runs.  It is
registered as ``"optimal"`` with a *configuration-aware* factory: the policy
depends on ``(alpha, gamma, schedule)``, so ``make_strategy("optimal")`` without a
configuration raises, while ``SimulationConfig(strategy="optimal").make_strategy()``
solves (or fetches from the per-process cache) the policy for the run's own
parameters.  All three backends construct strategies through that path, so the
optimal policy runs unchanged on ``chain``, ``markov`` and ``network``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ParameterError, StateSpaceError
from ..markov.state import LumpedSpace, State
from ..mdp.solver import DEFAULT_POLICY_MAX_LEAD, solve_optimal_policy
from ..params import MiningParams
from ..rewards.schedule import RewardSchedule
from .base import Action, RaceView
from .catalogue import SelfishStrategy, register_strategy

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from ..simulation.config import SimulationConfig

#: Algorithm 1's honest-block reactions, reused verbatim by the optimal strategy.
_SELFISH = SelfishStrategy()


@dataclass(frozen=True)
class OptimalStrategy:
    """A solved withhold/override policy table (see :mod:`repro.mdp`).

    Parameters
    ----------
    override_codes:
        Sorted, duplicate-free ``State.encode`` codes of the class
        representatives whose pool-event response is ``OVERRIDE``.
        Solver-produced tables always contain code 2 — the forced tie-break win
        at ``(1, 1)`` — so the strategy contains Algorithm 1's one publishing
        rule as a special case.
    """

    override_codes: tuple[int, ...]
    name: str = "optimal"

    def __post_init__(self) -> None:
        codes = tuple(self.override_codes)
        if any(not isinstance(code, int) or code < 0 for code in codes):
            raise ParameterError(
                f"override codes must be non-negative state codes, got {codes!r}"
            )
        if codes != tuple(sorted(set(codes))):
            raise ParameterError(
                f"override codes must be sorted and duplicate-free, got {codes!r}"
            )
        object.__setattr__(self, "override_codes", codes)
        # O(1) membership for the per-event lookup; not a dataclass field, so
        # equality/hash/pickling stay defined by the code tuple alone.
        object.__setattr__(self, "_override_set", frozenset(codes))

    def overrides_at(self, state: State) -> bool:
        """True when the policy overrides after mining a block *from* ``state``."""
        try:
            return LumpedSpace.representative(state).encode() in self._override_set  # type: ignore[attr-defined]
        except StateSpaceError:
            return False

    def after_pool_block(self, race: RaceView) -> Action:
        source = State(race.private_length - 1, race.public_length)
        if self.overrides_at(source):
            return Action.OVERRIDE
        return Action.WITHHOLD

    def after_honest_block(self, race: RaceView) -> Action:
        return _SELFISH.after_honest_block(race)


def solve_optimal_strategy(
    params: MiningParams,
    schedule: RewardSchedule | None = None,
    *,
    max_lead: int = DEFAULT_POLICY_MAX_LEAD,
) -> OptimalStrategy:
    """Solve (or fetch from cache) the optimal policy and wrap it as a strategy."""
    return solve_optimal_policy(params, schedule, max_lead=max_lead).strategy()


def _optimal_factory(config: "SimulationConfig | None") -> OptimalStrategy:
    """Registry factory: solve the policy for the run's own parameter point."""
    if config is None:
        raise ParameterError(
            "the 'optimal' strategy is solved per (alpha, gamma, schedule) point "
            "and needs the run configuration: construct it via "
            "SimulationConfig(strategy='optimal', ...).make_strategy() or "
            "repro.strategies.optimal.solve_optimal_strategy(params)"
        )
    return solve_optimal_strategy(config.params, config.schedule)


register_strategy(OptimalStrategy.name, _optimal_factory)
