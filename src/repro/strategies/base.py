"""The mining-strategy protocol: observe the race state, emit one action.

The full-fidelity simulator (:class:`repro.simulation.engine.ChainSimulator`)
mechanises the *race* between the pool and honest miners — block creation,
publication bookkeeping, uncle selection, fork-point tracking — but the pool's
*decisions* are delegated to a :class:`MiningStrategy`.  A strategy is consulted at
exactly two points of every mining event:

* :meth:`MiningStrategy.after_pool_block` — the pool just mined a block; it has been
  appended (withheld) to the private branch.  The strategy decides whether to keep
  withholding or to reveal.
* :meth:`MiningStrategy.after_honest_block` — an honest miner just extended a public
  branch (and the engine has already moved the fork point if the honest block landed
  on the pool's published prefix).  The strategy decides how the pool answers.

The strategy sees the race through the read-only :class:`RaceView` protocol (three
integers — ``Ls``, ``Lh`` and the published-prefix length) and answers with an
:class:`Action`.  Strategies are **stateless**: everything they may condition on is
in the view, which keeps them trivially picklable for the process-parallel runner
and reusable across runs.

The engine interprets the actions as follows:

=========== =====================================================================
Action      Engine interpretation
=========== =====================================================================
WITHHOLD    Do nothing; keep the private branch hidden.
PUBLISH     Reveal the first still-unpublished private block (Algorithm 1's
            "publish one block in response to the honest block").
MATCH       Reveal private blocks until the published prefix is as long as the
            honest branch, creating a tie at the public tip.
OVERRIDE    Reveal the whole private branch and claim the race: every miner
            adopts the pool's branch as the main chain.
ADOPT       Abandon the private branch and mine on the honest tip.
=========== =====================================================================

**Engine constraint.** The current engine tracks exactly one honest branch and
models honest tie-breaking (``gamma``) against a published pool prefix of equal
length.  It therefore requires every :meth:`~MiningStrategy.after_honest_block`
reaction to leave the published prefix matched to the honest branch — i.e. to
return ``MATCH``, ``PUBLISH``, ``OVERRIDE`` or ``ADOPT``; ``WITHHOLD`` is only a
valid answer to the pool's *own* blocks.  A strategy that lets the honest branch
run ahead unmatched (e.g. Nayak et al.'s trail-stubborn ``T``) needs additional
engine machinery first; the engine detects the violation after the event and
raises a :class:`~repro.errors.SimulationError` naming the strategy.  Under this
constraint ``PUBLISH`` and ``MATCH`` coincide in reaction to a single honest
block; both are kept because they express different *intents*.
"""

from __future__ import annotations

import enum
from typing import Protocol, runtime_checkable


class Action(enum.Enum):
    """What the pool does with its private branch after observing an event."""

    WITHHOLD = "withhold"
    PUBLISH = "publish"
    MATCH = "match"
    OVERRIDE = "override"
    ADOPT = "adopt"


@runtime_checkable
class RaceView(Protocol):
    """Read-only view of the race state a strategy may condition on.

    ``private_length`` is the paper's ``Ls`` (pool blocks since the fork point),
    ``public_length`` is ``Lh`` (honest blocks since the fork point), and
    ``published_count`` is how many of the pool's blocks are already public.
    The engines hand strategies a snapshot of the three integers;
    :class:`repro.simulation.engine.RaceState` satisfies this protocol too.
    """

    @property
    def private_length(self) -> int: ...

    @property
    def public_length(self) -> int: ...

    published_count: int


@runtime_checkable
class MiningStrategy(Protocol):
    """Decision logic of the pool, consulted by the simulation engine.

    Implementations must be stateless value objects: equal instances behave
    identically, and the engine may share one instance across runs.
    """

    #: Registry name of the strategy (also used in reports and CLI flags).
    name: str

    def after_pool_block(self, race: RaceView) -> Action:
        """React to the pool itself having mined a block (already withheld)."""
        ...

    def after_honest_block(self, race: RaceView) -> Action:
        """React to an honest miner having extended a public branch."""
        ...
