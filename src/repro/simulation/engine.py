"""The full-fidelity mining-race simulator (Section V of the paper).

The simulator records every mined block in a :class:`~repro.chain.arrays.ArrayBlockTree`
and plays out the race between the pool and honest miners.  It is split into
*mechanism* and *policy*:

* the engine (this module) owns the mechanics — block creation, uncle selection,
  publication bookkeeping, fork-point tracking, honest tie-breaking, settlement;
* the pool's decisions are delegated to a pluggable
  :class:`~repro.strategies.base.MiningStrategy`, selected by
  ``SimulationConfig.strategy``.  The paper's Algorithm 1 is
  :class:`~repro.strategies.catalogue.SelfishStrategy`; honest mining and the
  stubborn-mining family are further catalogue entries.

The mechanics follow the paper's network model:

* the pool mines on its private tip; its blocks start out withheld and are released
  by the strategy's publish / match / override actions;
* honest miners always mine on a longest *published* branch; when two published
  branches of equal length compete, a fraction ``gamma`` of honest hash power works on
  the pool's branch (the tie-breaking model of Section IV-A);
* both sides attach uncle references to the blocks they create, subject to the
  Ethereum eligibility rules (window of 6, at most 2 per block, no double
  references) — the pool from its private chain's point of view, honest miners from
  the published blocks they can see.

Because broadcast is instantaneous in the paper's network model, a "mining event" is
the only event type: each event mines exactly one block, attributed to the pool with
probability ``alpha``.  At the end of the run the pool publishes whatever it still
withholds, the longest published chain wins, and rewards are settled by
:func:`repro.chain.rewards.settle_rewards`.

This module intentionally shares no code with the analytical reward engine
(:mod:`repro.analysis.reward_cases`); the agreement between the two is the paper's
validation claim and this repository's integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.arrays import ArrayBlockTree
from ..chain.block import GENESIS_ID, MinerKind
from ..chain.fork_choice import best_tip_id
from ..chain.rewards import ChainSettlement, settle_rewards
from ..chain.validation import validate_tree
from ..errors import SimulationError
from ..strategies import Action, MiningStrategy
from .config import SimulationConfig
from .metrics import SimulationResult
from .rng import RandomSource


@dataclass
class RaceState:
    """Mutable bookkeeping of the ongoing race between the pool and honest miners.

    ``root_id`` is the last block both sides agree on; ``pool_branch`` are the pool's
    blocks built on top of it (oldest first), of which the first ``published_count``
    have been released; ``honest_branch`` are the honest blocks built on top of
    ``root_id`` (the engine guarantees there is at most one competing honest
    branch).  Satisfies :class:`repro.strategies.base.RaceView`.
    """

    root_id: int
    pool_branch: list[int] = field(default_factory=list)
    published_count: int = 0
    honest_branch: list[int] = field(default_factory=list)

    @property
    def private_length(self) -> int:
        """``Ls`` — length of the pool's private branch."""
        return len(self.pool_branch)

    @property
    def public_length(self) -> int:
        """``Lh`` — length of the public branches (pool prefix and honest branch agree)."""
        return len(self.honest_branch)

    def pool_tip(self) -> int:
        """Block the pool mines on (its own private tip)."""
        return self.pool_branch[-1] if self.pool_branch else self.root_id

    def pool_published_tip(self) -> int:
        """Tip of the pool's published prefix."""
        if self.published_count == 0:
            return self.root_id
        return self.pool_branch[self.published_count - 1]

    def honest_tip(self) -> int:
        """Tip of the honest public branch."""
        return self.honest_branch[-1] if self.honest_branch else self.root_id

    def check_invariants(self) -> None:
        """Raise if the internal bookkeeping violates the engine's invariants."""
        if self.published_count > len(self.pool_branch):
            raise SimulationError("published more pool blocks than exist in the private branch")
        if self.published_count != len(self.honest_branch):
            raise SimulationError(
                "public branches out of sync: pool published "
                f"{self.published_count} but the honest branch has {len(self.honest_branch)} blocks"
            )


class _RaceNumbers:
    """Plain-attribute :class:`~repro.strategies.base.RaceView` for the fused loop.

    Strategies only read the three protocol integers; handing them a flat
    snapshot instead of the live :class:`RaceState` avoids ~5 property
    descriptor + ``len`` round-trips per event.
    """

    __slots__ = ("private_length", "public_length", "published_count")


class ChainSimulator:
    """Simulate one run of a pool strategy racing against honest miners."""

    def __init__(self, config: SimulationConfig, *, strategy: MiningStrategy | None = None) -> None:
        self.config = config
        self.strategy = strategy if strategy is not None else config.make_strategy()
        # One mining event adds at most one block, so the event budget is the
        # exact capacity hint.
        self.tree = ArrayBlockTree(capacity=config.num_blocks + 1)
        self.rng = RandomSource(config.seed)
        self.race = RaceState(root_id=GENESIS_ID)
        self._events_run = 0
        # Per-event constants, hoisted off the config for the hot loop.
        self._alpha = config.params.alpha
        self._gamma = config.params.gamma
        self._num_honest_miners = config.num_honest_miners
        self._max_uncle_distance = config.max_uncle_distance
        self._max_uncles_per_block = config.max_uncles_per_block

    # ------------------------------------------------------------------ public API
    def run(self) -> SimulationResult:
        """Mine ``config.num_blocks`` blocks, settle rewards, and return the result.

        The event loop is the fused equivalent of ``config.num_blocks`` calls to
        :meth:`step`: identical draws in identical order, identical race-state
        transitions, identical error behaviour.  Fusing removes the ~40 Python
        calls per event that the composable methods cost (``step`` stays as the
        single-event API for tests and interactive use).
        """
        race = self.race
        rng = self.rng
        tree = self.tree
        view = _RaceNumbers()
        mining_event = rng.mining_event
        honest_on_pool = rng.honest_mines_on_pool_branch
        select_uncles = tree.select_uncles
        add_block_id = tree.add_block_id
        publish = tree.publish
        published_ids = tree.published_ids  # live membership set
        after_pool_block = self.strategy.after_pool_block
        after_honest_block = self.strategy.after_honest_block
        alpha = self._alpha
        gamma = self._gamma
        num_honest_miners = self._num_honest_miners
        max_distance = self._max_uncle_distance
        max_count = self._max_uncles_per_block
        pool_kind = MinerKind.POOL
        honest_kind = MinerKind.HONEST
        withhold = Action.WITHHOLD
        publish_action = Action.PUBLISH
        match_action = Action.MATCH
        override_action = Action.OVERRIDE
        adopt_action = Action.ADOPT

        start = self._events_run
        end = start + self.config.num_blocks
        for event_index in range(start, end):
            miner_index = mining_event(alpha, num_honest_miners)
            if miner_index < 0:
                # -- the pool extends its private branch (see _pool_mines)
                pool_branch = race.pool_branch
                parent_id = pool_branch[-1] if pool_branch else race.root_id
                uncle_ids = select_uncles(
                    parent_id, max_distance=max_distance, max_count=max_count
                )
                block_id = add_block_id(
                    parent_id,
                    pool_kind,
                    miner_index=0,
                    created_at=event_index,
                    uncle_ids=uncle_ids,
                    published=False,
                )
                pool_branch.append(block_id)
                view.private_length = len(pool_branch)
                view.public_length = len(race.honest_branch)
                view.published_count = race.published_count
                action = after_pool_block(view)
            else:
                # -- an honest miner extends a longest published branch
                honest_branch = race.honest_branch
                on_pool_prefix = False
                if not honest_branch:
                    parent_id = race.root_id
                elif honest_on_pool(gamma):
                    published_count = race.published_count
                    parent_id = (
                        race.pool_branch[published_count - 1]
                        if published_count
                        else race.root_id
                    )
                    on_pool_prefix = True
                else:
                    parent_id = honest_branch[-1]
                uncle_ids = select_uncles(
                    parent_id,
                    max_distance=max_distance,
                    max_count=max_count,
                    known=published_ids,
                )
                block_id = add_block_id(
                    parent_id,
                    honest_kind,
                    miner_index=miner_index,
                    created_at=event_index,
                    uncle_ids=uncle_ids,
                    published=True,
                )
                if on_pool_prefix:
                    pool_branch = race.pool_branch
                    published_count = race.published_count
                    if published_count == len(pool_branch):
                        # 1-vs-1 tie resolved against the pool: adopt.
                        race.root_id = block_id
                        race.pool_branch = []
                        race.published_count = 0
                        race.honest_branch = []
                        continue
                    race.root_id = (
                        pool_branch[published_count - 1]
                        if published_count
                        else race.root_id
                    )
                    race.pool_branch = pool_branch[published_count:]
                    race.published_count = 0
                    race.honest_branch = [block_id]
                else:
                    honest_branch.append(block_id)
                view.private_length = len(race.pool_branch)
                view.public_length = len(race.honest_branch)
                view.published_count = race.published_count
                action = after_honest_block(view)

            # -- strategy action (see _apply), then the per-event invariant check
            if action is withhold:
                pass
            elif action is publish_action or action is match_action:
                pool_branch = race.pool_branch
                upto = (
                    race.published_count + 1
                    if action is publish_action
                    else len(race.honest_branch)
                )
                if upto > len(pool_branch):
                    upto = len(pool_branch)
                published_count = race.published_count
                for position in range(published_count, upto):
                    publish(pool_branch[position])
                if upto > published_count:
                    race.published_count = upto
            elif action is override_action:
                pool_branch = race.pool_branch
                for position in range(race.published_count, len(pool_branch)):
                    publish(pool_branch[position])
                if pool_branch:
                    race.root_id = pool_branch[-1]
                race.pool_branch = []
                race.published_count = 0
                race.honest_branch = []
            elif action is adopt_action:
                honest_branch = race.honest_branch
                if honest_branch:
                    race.root_id = honest_branch[-1]
                race.pool_branch = []
                race.published_count = 0
                race.honest_branch = []
            else:  # pragma: no cover - exhaustive over the Action enum
                raise SimulationError(f"strategy emitted unknown action {action!r}")

            published = race.published_count
            if published <= len(race.pool_branch) and published == len(race.honest_branch):
                continue
            self._events_run = event_index + 1
            self._raise_inconsistent(event_index)

        self._events_run = end
        self.finalise()
        settlement = self.settle()
        return SimulationResult.from_settlement(self.config, settlement, self._events_run)

    def step(self) -> None:
        """Advance the simulation by one mining event."""
        event_index = self._events_run
        if self.rng.pool_mines_next(self._alpha):
            self._pool_mines(event_index)
        else:
            miner_index = self.rng.honest_miner_index(self._num_honest_miners)
            self._honest_mines(event_index, miner_index)
        self._events_run += 1
        race = self.race
        published = race.published_count
        if published <= len(race.pool_branch) and published == len(race.honest_branch):
            return  # invariants hold (the per-event fast path)
        self._raise_inconsistent(event_index)

    def _raise_inconsistent(self, event_index: int) -> None:
        """Re-run the invariant check and raise the diagnostic SimulationError."""
        try:
            self.race.check_invariants()
        except SimulationError as exc:
            if self.race.published_count > self.race.private_length:
                hint = (
                    "the strategy requested publishing beyond the private branch "
                    "(check its after_pool_block actions)"
                )
            else:
                hint = (
                    "the engine requires every honest-block reaction to re-match the "
                    "published prefix to the honest branch (MATCH, PUBLISH, OVERRIDE "
                    "or ADOPT); WITHHOLD is only valid after the pool's own blocks"
                )
            raise SimulationError(
                f"strategy {self.strategy.name!r} left the race inconsistent after event "
                f"{event_index}: {exc}. Note: {hint}."
            ) from exc

    def finalise(self) -> None:
        """Publish whatever the pool still withholds (end-of-run cleanup)."""
        self._publish_pool_blocks(upto=self.race.private_length)

    def settle(self) -> ChainSettlement:
        """Validate the finished tree (optionally) and settle rewards on the longest chain."""
        if self.config.validate_chain:
            validate_tree(
                self.tree,
                max_uncles_per_block=self.config.max_uncles_per_block,
                max_uncle_distance=self.config.max_uncle_distance,
            )
        tip_id = best_tip_id(self.tree, published_only=True)
        return settle_rewards(
            self.tree,
            tip_id,
            self.config.schedule,
            skip_heights_below=self.config.warmup_blocks,
        )

    # ------------------------------------------------------------------ block creation
    def _select_uncles(self, parent_id: int, *, published_only: bool) -> list[int]:
        """Uncle references for a block mined on ``parent_id``, protocol-capped.

        Honest miners only see published blocks, so their candidate filter is
        the tree's published set; the pool sees everything (``known=None``).
        """
        return self.tree.select_uncles(
            parent_id,
            max_distance=self._max_uncle_distance,
            max_count=self._max_uncles_per_block,
            known=self.tree.published_ids if published_only else None,
        )

    def _pool_mines(self, event_index: int) -> None:
        """The pool extends its private branch, then its strategy reacts.

        The pool has a complete view of the tree, including its own withheld blocks,
        so its uncle candidates are not restricted to published blocks.  The new
        block starts out withheld; an immediate OVERRIDE from the strategy (the
        honest strategy's every move, Algorithm 1's win from the 1-1 tie) releases
        it in the same event.
        """
        parent_id = self.race.pool_tip()
        uncle_ids = self._select_uncles(parent_id, published_only=False)
        block_id = self.tree.add_block_id(
            parent_id,
            MinerKind.POOL,
            miner_index=0,
            created_at=event_index,
            uncle_ids=uncle_ids,
            published=False,
        )
        self.race.pool_branch.append(block_id)
        self._apply(self.strategy.after_pool_block(self.race))

    def _honest_mines(self, event_index: int, miner_index: int) -> None:
        """An honest miner extends a longest published branch, then the pool reacts."""
        race = self.race
        on_pool_prefix = False
        if not race.honest_branch:
            parent_id = race.root_id
        elif self.rng.honest_mines_on_pool_branch(self._gamma):
            parent_id = race.pool_published_tip()
            on_pool_prefix = True
        else:
            parent_id = race.honest_tip()

        uncle_ids = self._select_uncles(parent_id, published_only=True)
        block_id = self.tree.add_block_id(
            parent_id,
            MinerKind.HONEST,
            miner_index=miner_index,
            created_at=event_index,
            uncle_ids=uncle_ids,
            published=True,
        )

        if on_pool_prefix:
            if race.published_count == race.private_length:
                # The pool has nothing withheld (the 1-vs-1 tie): the public chain
                # through the pool's published block is now the longest; adopt it.
                self._adopt_public_chain(block_id)
                return
            # The fork point moves up to the pool's published tip; the pool's withheld
            # blocks become the new (shorter) private branch and the honest block is
            # the first block of the new public branch.
            new_root = race.pool_published_tip()
            race.pool_branch = race.pool_branch[race.published_count :]
            race.published_count = 0
            race.honest_branch = [block_id]
            race.root_id = new_root
        else:
            race.honest_branch.append(block_id)

        self._apply(self.strategy.after_honest_block(self.race))

    # ------------------------------------------------------------------ action dispatch
    def _apply(self, action: Action) -> None:
        """Carry out a strategy action on the current race state."""
        if action is Action.WITHHOLD:
            return
        if action is Action.PUBLISH:
            self._publish_pool_blocks(upto=self.race.published_count + 1)
        elif action is Action.MATCH:
            self._publish_pool_blocks(upto=self.race.public_length)
        elif action is Action.OVERRIDE:
            self._pool_wins_race()
        elif action is Action.ADOPT:
            self._adopt_public_chain(self.race.honest_tip())
        else:  # pragma: no cover - exhaustive over the Action enum
            raise SimulationError(f"strategy emitted unknown action {action!r}")

    def _publish_pool_blocks(self, *, upto: int) -> None:
        """Publish the pool's private blocks up to index ``upto`` (exclusive end count)."""
        race = self.race
        upto = min(upto, race.private_length)
        for position in range(race.published_count, upto):
            self.tree.publish(race.pool_branch[position])
        race.published_count = max(race.published_count, upto)

    def _pool_wins_race(self) -> None:
        """Publish the whole private branch; every miner adopts it as the main chain."""
        race = self.race
        self._publish_pool_blocks(upto=race.private_length)
        race.root_id = race.pool_tip()
        race.pool_branch = []
        race.published_count = 0
        race.honest_branch = []

    def _adopt_public_chain(self, new_root_id: int) -> None:
        """The pool abandons its private branch and mines on the public chain."""
        race = self.race
        race.root_id = new_root_id
        race.pool_branch = []
        race.published_count = 0
        race.honest_branch = []
