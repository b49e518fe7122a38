"""The event-driven network simulator: N miners, latency, emergent tie-breaking.

:class:`NetworkSimulator` generalises :class:`~repro.simulation.engine.ChainSimulator`
along the two axes the paper holds fixed:

* **the network is explicit** — blocks propagate over links with pluggable delay
  models, every miner mines on its own *local view*, and honest miners adopt the
  first-seen longest chain, so the tie-breaking ratio ``gamma`` becomes an emergent
  quantity (reported as :attr:`~repro.simulation.metrics.NetworkSimulationResult.effective_gamma`)
  instead of an input;
* **any number of pools attack at once** — every miner whose
  :class:`~repro.network.topology.MinerSpec` names a non-honest strategy runs that
  :class:`~repro.strategies.base.MiningStrategy` against its own private branch,
  so multi-pool races and eclipse-style scenarios are first-class.

Mechanics
---------

Time is continuous.  A network-wide Poisson clock (mean ``block_interval``) fires
mining events; the finder is drawn from the hash-power distribution, mirroring the
race model's "each event mines one block, attributed with probability equal to hash
power".  A found block is broadcast (honest miners immediately; pools when their
strategy releases it) as one delivery per destination, each delayed by the link's
latency model.  Deliveries arriving before their parent are buffered until the
parent arrives, so local views are always internally consistent.

Strategic miners keep the race bookkeeping of the single-pool engine, generalised
to a moving fork point: the miner's own blocks above the fork (``private_length``),
the best competing public chain it knows (``public_length``) and its own published
prefix (``published_count``) are recomputed against the first-seen longest public
tip in its local view, and the strategy is consulted through the same
:class:`~repro.strategies.base.RaceView` protocol the chain engine uses — every
registered strategy runs on this backend unchanged.

The batched event core
----------------------

The per-event cost is kept flat by four coordinated measures (the markov engine's
batching playbook applied to the discrete-event loop):

* **batched randomness** — exponential interarrival times and hash-power miner
  picks are pre-sampled in vectorised numpy chunks through
  :class:`~repro.simulation.rng.RandomSource`, and every broadcast draws its
  per-link delays in one :meth:`~repro.network.latency.LatencyModel.sample_batch`
  call per link group instead of one buffered draw per destination;
* **packed events** — the heap holds int-coded ``(time, seq, kind, block_id,
  dst)`` tuples (see :mod:`repro.network.events`), so ordering is C-level tuple
  comparison with no per-event allocation;
* **flat local views** — each miner's known-block set is a
  :class:`~repro.network.views.LocalView` (synced watermark plus sparse
  exceptions) instead of an O(total blocks) set, and deliveries to honest miners
  bypass the heap entirely: they are appended to a per-miner inbox and drained
  in ``(time, seq)`` order the next time that miner mines.  Honest state only
  matters at its own mining events, so lazy draining is observationally
  equivalent to eager heap dispatch — pools, whose reactions publish blocks
  into the network, stay on the eager heap path;
* **zero-latency fast path** — when every link is instantaneous the heap is
  skipped altogether: mining times accumulate scalar-wise and each broadcast is
  delivered synchronously through a FIFO cascade, which reproduces the heap's
  same-time FIFO order exactly.  This is the regime the figure-8 equivalence
  sweeps run in.

Batching reorders the underlying uniform draw stream relative to the pre-batching
scalar loop (chunked pre-sampling interleaves refills differently), so the pinned
network fixtures were re-pinned in an explicit fixture-bump commit when this core
landed; see ``ARCHITECTURE.md`` for the policy.

**Special case.**  With zero latency and a single attacking pool the causal order
of events collapses to the paper's model: every honest block reaches everyone
instantly, matches arrive in the same instant as the block they answer, and the
resulting exact ties are broken per honest miner by the configured ``gamma`` coin.
The equivalence (same relative revenue as :class:`ChainSimulator` within
statistical error) is pinned by the integration tests.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import accumulate
from math import inf
from typing import NamedTuple

import numpy as np

from ..chain.arrays import ArrayBlockTree
from ..chain.block import GENESIS_ID, MinerKind
from ..chain.fork_choice import best_tip_id
from ..chain.rewards import ChainSettlement, settle_rewards
from ..chain.validation import validate_tree
from ..errors import SimulationError
from ..rewards.breakdown import PartyRewards
from ..simulation.config import SimulationConfig
from ..simulation.metrics import MinerOutcome, NetworkSimulationResult
from ..simulation.rng import RandomSource
from ..strategies import Action, MiningStrategy, make_strategy
from .events import DELIVER, MINE, EventQueue
from .latency import ConstantLatency, ExponentialLatency, ZeroLatency
from .topology import MinerSpec, Topology, build_topology
from .views import LocalView

#: Mining-time / miner-pick draws pre-sampled per vectorised refill.
MINE_DRAW_CHUNK = 1024


def _is_always_zero(model: object) -> bool:
    """True for the built-in models that never delay a delivery."""
    if isinstance(model, ZeroLatency):
        return True
    if isinstance(model, ConstantLatency):
        return model.delay == 0.0
    if isinstance(model, ExponentialLatency):
        return model.mean == 0.0
    return False


class _MinerState:
    """Local view shared by honest and strategic miners."""

    __slots__ = ("index", "spec", "kind", "known", "waiting", "inbox", "blocks_mined")

    #: Overridden by :class:`_PoolState`; class attribute so instances stay slotted.
    strategic = False

    def __init__(self, index: int, spec: MinerSpec, genesis_id: int) -> None:
        self.index = index
        self.spec = spec
        self.kind = MinerKind.POOL if spec.counts_as_pool else MinerKind.HONEST
        self.known = LocalView(genesis_id)
        # Blocks delivered before their parent, buffered per missing parent id.
        self.waiting: dict[int, list[int]] = {}
        # Deferred deliveries as (arrival_time, seq, block_id), drained lazily.
        self.inbox: list[tuple[float, int, int]] = []
        self.blocks_mined = 0


class _HonestState(_MinerState):
    """An honest miner: mines on the first-seen longest chain of its view."""

    __slots__ = ("preferred_id", "preferred_height", "preferred_since")

    def __init__(self, index: int, spec: MinerSpec, genesis_id: int) -> None:
        super().__init__(index, spec, genesis_id)
        self.preferred_id = genesis_id
        self.preferred_height = 0
        self.preferred_since = 0.0


class _PoolState(_MinerState):
    """A strategic miner: private branch plus a view of the best competing chain.

    ``anchor_id`` is the block the private branch is rooted on, ``branch`` the
    miner's own blocks above it (oldest first) of which the first
    ``published_count`` have been broadcast; ``public_tip_id`` is the first-seen
    longest published block of the local view outside the private branch.
    """

    __slots__ = (
        "strategy",
        "anchor_id",
        "anchor_height",
        "branch",
        "published_count",
        "public_tip_id",
        "public_tip_height",
        "fork_id",
        "fork_height",
    )

    strategic = True

    def __init__(
        self, index: int, spec: MinerSpec, strategy: MiningStrategy, genesis_id: int
    ) -> None:
        super().__init__(index, spec, genesis_id)
        self.strategy = strategy
        self.anchor_id = genesis_id
        self.anchor_height = 0
        self.branch: list[int] = []
        self.published_count = 0
        self.public_tip_id = genesis_id
        self.public_tip_height = 0
        # Cached fork point between the private tip and ``public_tip_id``.
        # Maintained incrementally (see ``_pool_observes``): a pool mine and a
        # public tip that extends the previous one both provably leave the fork
        # point unchanged, so the tree walk only runs when the public best
        # jumps to a different branch.
        self.fork_id = genesis_id
        self.fork_height = 0

    def tip_id(self) -> int:
        """Block the pool mines on (its own private tip)."""
        return self.branch[-1] if self.branch else self.anchor_id


class _RaceNumbers(NamedTuple):
    """The three integers a :class:`~repro.strategies.base.RaceView` exposes."""

    private_length: int
    public_length: int
    published_count: int


class NetworkSimulator:
    """Simulate one run of N miners racing over an explicit network."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        topology: Topology | None = None,
        force_event_loop: bool = False,
    ) -> None:
        self.config = config
        self.topology = topology if topology is not None else build_topology(config)
        # Every hot path below reads the tree through its id+accessor
        # protocol, never through Block objects.
        self.tree = ArrayBlockTree(capacity=config.num_blocks + 1)
        self.rng = RandomSource(config.seed)
        self.queue = EventQueue()
        self._max_uncles = config.max_uncles_per_block
        self._uncle_distance = config.max_uncle_distance
        self._uncles_enabled = self._max_uncles > 0 and self._uncle_distance > 0
        self.miners: list[_MinerState] = []
        for index, spec in enumerate(self.topology.miners):
            if spec.is_strategic:
                state: _MinerState = _PoolState(
                    index, spec, make_strategy(spec.strategy, config=config), GENESIS_ID
                )
            else:
                state = _HonestState(index, spec, GENESIS_ID)
            self.miners.append(state)
        self._cumulative_power = np.array(
            list(accumulate(spec.hash_power for spec in self.topology.miners))
        )
        self._last_miner = len(self.miners) - 1
        # Broadcast plan: per source, the destinations grouped by link latency
        # model (group order = first occurrence in destination index order; the
        # common shared-model topology collapses to a single group, so delay
        # draws stay in destination order).  Each group caches the model's
        # sample_batch (falling back to scalar sampling for third-party models
        # without one) plus the destination indices and states.
        self._broadcast_groups: list[list[tuple]] = []
        zero_everywhere = True
        for src in range(len(self.miners)):
            grouped: dict[int, tuple] = {}
            for dst in range(len(self.miners)):
                if dst == src:
                    continue
                model = self.topology.link_model(src, dst)
                if not _is_always_zero(model):
                    zero_everywhere = False
                entry = grouped.get(id(model))
                if entry is None:
                    batch = getattr(model, "sample_batch", None)
                    grouped[id(model)] = (model, batch, [dst], [self.miners[dst]])
                else:
                    entry[2].append(dst)
                    entry[3].append(self.miners[dst])
            self._broadcast_groups.append(list(grouped.values()))
        self._zero_latency = zero_everywhere
        self._use_fast_path = zero_everywhere and not force_event_loop
        # FIFO cascade of (block_id, src_index) broadcasts; non-None only while
        # the zero-latency fast path is delivering synchronously.
        self._pending: deque | None = None
        # Pre-sampled mining draws (vectorised chunks, refilled on demand).  The
        # interarrival and pick streams are chunked independently: a pick is
        # consumed when a mine event fires, its interarrival one event earlier.
        self._mine_times: list[float] = []
        self._mine_times_pos = 0
        self._mine_times_budget = config.num_blocks
        self._mine_picks: list[int] = []
        self._mine_picks_pos = 0
        self._mine_picks_budget = config.num_blocks
        self._events_run = 0
        self.tie_wins = 0
        self.tie_losses = 0

    # ------------------------------------------------------------------ public API
    def run(self) -> NetworkSimulationResult:
        """Mine ``config.num_blocks`` blocks, settle rewards, and return the result."""
        if self.config.num_blocks > 0:
            if self._use_fast_path:
                self._run_synchronous()
            else:
                self._run_event_loop()
        self.finalise()
        settlement = self.settle()
        return self._build_result(settlement)

    def finalise(self) -> None:
        """Publish whatever every pool still withholds (end-of-run cleanup)."""
        for miner in self.miners:
            if miner.strategic:
                for block_id in miner.branch[miner.published_count :]:
                    self.tree.publish(block_id)
                miner.published_count = len(miner.branch)

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

    # ------------------------------------------------------------------ event loops
    def _run_synchronous(self) -> None:
        """Zero-latency fast path: no heap, one shared honest view, FIFO cascades.

        Every delivery lands in the same instant as its broadcast, so the heap
        degenerates to "all of this instant's deliveries, in scheduling order,
        before the next mine event" — a FIFO deque of broadcasts reproduces that
        order exactly.  And because every honest miner receives every published
        block instantly, all honest local views are *identical*: one shared
        preferred tip (plus the live published set as the shared known-set)
        replaces N per-miner views, making the honest fan-out O(1) per block
        instead of O(N).  The only honest state that can diverge is the
        preferred block after a same-instant equal-height match, where each
        miner flips its own gamma coin — those few miners are carried in an
        ``overrides`` dict until the next strictly-higher block re-converges
        everyone.  Pools (whose reactions publish blocks) keep their exact
        per-miner delivery processing.
        """
        tree = self.tree
        height_of = tree.height_of
        is_pool_block = tree.is_pool_block
        select_uncles = tree.select_uncles
        add_block_id = tree.add_block_id
        ids_at_height = tree.ids_at_height
        published = tree.published_ids
        miners = self.miners
        pools = [miner for miner in miners if miner.strategic]
        # The one-pool topology is the dominant configuration; binding the lone
        # pool's state once drops the per-cascade-entry loop over ``pools``.
        only_pool = pools[0] if len(pools) == 1 else None
        honest_indices = [miner.index for miner in miners if not miner.strategic]
        for miner in miners:
            if not miner.strategic:
                # Shared live known-set: at zero latency "delivered to this
                # honest miner" and "published" are the same predicate, so tie
                # counting, uncle selection and block creation run against the
                # tree's own published set.  Per-miner LocalViews are
                # synthesised from it in the epilogue.
                miner.known = published
        sync_pref_id = GENESIS_ID
        sync_height = 0
        sync_since = 0.0
        overrides: dict[int, int] = {}
        gamma = self.config.params.gamma
        uniform = self.rng.uniform
        cascade: deque = deque()
        cascade_pop = cascade.popleft
        self._pending = cascade
        pool_mines = self._pool_mines
        pool_observes = self._pool_observes
        overrides_get = overrides.get
        uncles_enabled = self._uncles_enabled
        max_uncles = self._max_uncles
        uncle_distance = self._uncle_distance
        tie_wins = self.tie_wins
        tie_losses = self.tie_losses
        events_run = self._events_run
        times_buf: list[float] = []
        times_pos = 0
        picks_buf: list[int] = []
        picks_pos = 0
        time = 0.0
        try:
            for _ in range(self.config.num_blocks):
                # Inline consumption of the pre-sampled chunks (the methods'
                # call overhead is measurable at this call rate).
                if times_pos >= len(times_buf):
                    times_buf = self._refill_mine_times()
                    times_pos = 0
                time += times_buf[times_pos]
                times_pos += 1
                if picks_pos >= len(picks_buf):
                    picks_buf = self._refill_mine_picks()
                    picks_pos = 0
                index = picks_buf[picks_pos]
                picks_pos += 1
                miner = miners[index]
                if miner.strategic:
                    # _create_block stamps created_at from the attribute; keep
                    # it in sync with the local counter before delegating.
                    self._events_run = events_run
                    pool_mines(miner, time)
                else:
                    parent_id = overrides_get(index, sync_pref_id) if overrides else sync_pref_id
                    # Inlined _count_tie: the parent always sits at the shared
                    # height (overrides only hold equal-height competitors), so
                    # its height is sync_height and the genesis check is just
                    # sync_height == 0.
                    if sync_height and len(ids_at_height(sync_height)) > 1:
                        competitors = [
                            other
                            for other in ids_at_height(sync_height)
                            if other != parent_id and other in published
                        ]
                        if competitors:
                            if is_pool_block(parent_id):
                                if any(not is_pool_block(other) for other in competitors):
                                    tie_wins += 1
                            elif any(is_pool_block(other) for other in competitors):
                                tie_losses += 1
                    # Inlined _create_block (honest, always published).
                    uncle_ids = (
                        select_uncles(
                            parent_id,
                            max_distance=uncle_distance,
                            max_count=max_uncles,
                            known=published,
                        )
                        if uncles_enabled
                        else []
                    )
                    block_id = add_block_id(
                        parent_id,
                        miner.kind,
                        miner_index=index,
                        created_at=events_run,
                        uncle_ids=uncle_ids,
                        published=True,
                    )
                    miner.blocks_mined += 1
                    # The miner adopts its own block; everyone else adopts it in
                    # the same instant through the cascade below, so the shared
                    # preference moves straight to the new tip.  The parent is
                    # always at the shared height (overrides only ever hold
                    # equal-height competitors), so the height just increments.
                    sync_pref_id = block_id
                    sync_height += 1
                    sync_since = time
                    if overrides:
                        overrides.clear()
                    # Direct delivery of the honest block to the pools.  Its own
                    # cascade entry would be a no-op for the shared honest view
                    # (it *is* the new preferred tip, so the height test and
                    # every gamma-coin guard fall through), and a freshly
                    # allocated id cannot already be in any pool's view, so only
                    # the pool observations remain.  Publications the pools
                    # react with land on the cascade and drain below, in the
                    # exact order the general per-entry path would produce.
                    if only_pool is not None:
                        only_pool.known.add(block_id)
                        pool_observes(only_pool, block_id, sync_height, time)
                    else:
                        for pool in pools:
                            pool.known.add(block_id)
                            pool_observes(pool, block_id, sync_height, time)
                events_run += 1
                while cascade:
                    block_id, src = cascade_pop()
                    height = height_of(block_id)
                    if height > sync_height:
                        sync_pref_id = block_id
                        sync_height = height
                        sync_since = time
                        if overrides:
                            overrides.clear()
                    elif height == sync_height and time == sync_since:
                        # Same-instant equal-height match: each honest miner
                        # flips its own gamma coin, exactly as per-miner
                        # delivery processing would (in destination order).
                        challenger_is_pool = is_pool_block(block_id)
                        for i in honest_indices:
                            if i == src:
                                continue
                            pref = overrides_get(i, sync_pref_id)
                            if pref == block_id:
                                continue
                            if is_pool_block(pref) == challenger_is_pool:
                                continue
                            switch_probability = (
                                gamma if challenger_is_pool else 1.0 - gamma
                            )
                            if uniform() < switch_probability:
                                overrides[i] = block_id
                    # Inlined zero-latency delivery: in this regime a published
                    # block's parent is always already known (publication order
                    # is parent-first), so the general out-of-order buffering
                    # in _deliver cannot trigger.  Honest blocks are delivered
                    # directly at the mine site, so cascade entries are pool
                    # publications only — with a single pool there is no other
                    # pool left to observe them.
                    if only_pool is None:
                        for pool in pools:
                            if pool.index != src and block_id not in pool.known:
                                pool.known.add(block_id)
                                pool_observes(pool, block_id, height, time)
        finally:
            self._pending = None
            self._events_run = events_run
            self.tie_wins = tie_wins
            self.tie_losses = tie_losses
        # Epilogue: materialise the per-miner views the shared state stands for
        # (diagnostics and the property suite read them).  An honest miner knows
        # every id below the allocator except the still-unpublished pool
        # privates; its preference is the shared tip modulo its override.
        next_id = tree.next_block_id
        unpublished = tree.unpublished_ids()
        for miner in miners:
            if miner.strategic:
                continue
            miner.known = LocalView.from_state(next_id, unpublished)
            miner.preferred_id = overrides.get(miner.index, sync_pref_id)
            miner.preferred_height = sync_height
            miner.preferred_since = sync_since

    def _run_event_loop(self) -> None:
        """General path: packed heap for mine events and deliveries to pools.

        Deliveries to honest miners never touch the heap — they are appended to
        the destination's inbox (with a reserved sequence number, so heap events
        and inbox entries share one ``(time, seq)`` order) and drained just
        before that miner mines.  Pools react to deliveries by publishing
        blocks, so they stay on the eager heap path.
        """
        queue = self.queue
        miners = self.miners
        num_blocks = self.config.num_blocks
        queue.push(self._next_mine_time(), MINE)
        while queue:
            time, seq, kind, block_id, dst = queue.pop()
            if kind == MINE:
                miner = miners[self._next_miner_pick()]
                if miner.strategic:
                    self._pool_mines(miner, time)
                else:
                    if miner.inbox:
                        self._drain_inbox(miner, time, seq)
                    self._honest_mines(miner, time)
                self._events_run += 1
                if self._events_run < num_blocks:
                    queue.push(time + self._next_mine_time(), MINE)
            else:
                self._deliver(time, block_id, miners[dst])
        # Close every local view over the deliveries still in flight, so final
        # views match the fully-drained eager semantics (diagnostics and the
        # property suite rely on prefix-consistent final views).  Nothing mines
        # after this point, so the order across miners is immaterial; per miner
        # the drain replays arrivals in (time, seq) order as always.
        for miner in miners:
            if miner.inbox:
                self._drain_inbox(miner, inf, 0)

    # ------------------------------------------------------------------ randomness
    def _refill_mine_times(self) -> list[float]:
        """Pre-sample the next chunk of interarrival times (exponential)."""
        count = min(MINE_DRAW_CHUNK, self._mine_times_budget)
        self._mine_times_budget -= count
        uniforms = self.rng.uniform_array(count)
        self._mine_times = (
            -self.topology.block_interval * np.log(1.0 - uniforms)
        ).tolist()
        self._mine_times_pos = 0
        return self._mine_times

    def _refill_mine_picks(self) -> list[int]:
        """Pre-sample the next chunk of finder indices (hash-power distribution)."""
        count = min(MINE_DRAW_CHUNK, self._mine_picks_budget)
        self._mine_picks_budget -= count
        picks = np.searchsorted(
            self._cumulative_power, self.rng.uniform_array(count), side="right"
        )
        # Clamp for the (float-rounding) case of a draw at or above the last edge.
        np.minimum(picks, self._last_miner, out=picks)
        self._mine_picks = picks.tolist()
        self._mine_picks_pos = 0
        return self._mine_picks

    def _next_mine_time(self) -> float:
        """One pre-sampled draw of the time to the next block."""
        position = self._mine_times_pos
        if position >= len(self._mine_times):
            self._refill_mine_times()
            position = 0
        self._mine_times_pos = position + 1
        return self._mine_times[position]

    def _next_miner_pick(self) -> int:
        """Pre-sampled index of the next block's finder."""
        position = self._mine_picks_pos
        if position >= len(self._mine_picks):
            self._refill_mine_picks()
            position = 0
        self._mine_picks_pos = position + 1
        return self._mine_picks[position]

    # ------------------------------------------------------------------ propagation
    def _broadcast(self, src: _MinerState, block_id: int, time: float) -> None:
        """Publish ``block_id`` and schedule one delivery per other miner."""
        self.tree.publish(block_id)
        pending = self._pending
        if pending is not None:
            # Zero-latency fast path: enqueue on the synchronous FIFO cascade.
            pending.append((block_id, src.index))
            return
        queue = self.queue
        queue_push = queue.push
        for model, batch, dst_indices, dst_states in self._broadcast_groups[src.index]:
            if batch is not None:
                delays = batch(src.index, dst_indices, self.rng)
            else:
                delays = [model.sample(src.index, dst, self.rng) for dst in dst_indices]
            for dst, dst_state, delay in zip(dst_indices, dst_states, delays):
                if dst_state.strategic:
                    queue_push(time + delay, DELIVER, block_id, dst)
                else:
                    # Inlined queue.reserve_seq (one inbox delivery per honest
                    # miner per block): bump the queue's counter directly so the
                    # (time, seq) rank interleaves with heap pushes exactly as
                    # the method call would.
                    seq = queue._seq
                    queue._seq = seq + 1
                    dst_state.inbox.append((time + delay, seq, block_id))

    def _drain_inbox(self, miner: _MinerState, cutoff_time: float, cutoff_seq: int) -> None:
        """Process every inbox arrival strictly before ``(cutoff_time, cutoff_seq)``."""
        inbox = miner.inbox
        inbox.sort()
        # 3-tuples compare against the 2-tuple cutoff per-element, so this splits
        # at the first entry at or after the cutoff rank (seqs are unique, so no
        # inbox entry ever equals the cutoff's (time, seq) prefix).
        split = bisect_left(inbox, (cutoff_time, cutoff_seq))
        if split == 0:
            return
        due = inbox[:split]
        del inbox[:split]
        deliver = self._deliver
        for arrival, _seq, block_id in due:
            deliver(arrival, block_id, miner)

    def _deliver(self, time: float, block_id: int, miner: _MinerState) -> None:
        # The view's membership test and add are inlined (same XOR semantics as
        # LocalView.__contains__/add): at 8+ deliveries per block the three
        # view calls per delivery dominate this method's cost.
        known = miner.known
        watermark = known.watermark
        exceptions = known.exceptions
        if (block_id < watermark) != (block_id in exceptions):
            return  # already known
        tree = self.tree
        parent_id = tree.parent_id_of(block_id)
        if not ((parent_id < watermark) != (parent_id in exceptions)):
            # Out-of-order arrival: hold the block until its parent is known.
            miner.waiting.setdefault(parent_id, []).append(block_id)
            return
        # Mark known: ``block_id`` is absent, so below the watermark it must sit
        # in the exceptions set and above it must not (LocalView.add's cases
        # collapsed under that knowledge).
        if block_id == watermark:
            watermark += 1
            if exceptions:
                while watermark in exceptions:
                    exceptions.remove(watermark)
                    watermark += 1
            known.watermark = watermark
        elif block_id < watermark:
            exceptions.remove(block_id)
        else:
            exceptions.add(block_id)
            if len(exceptions) >= known._compact_at:
                known._compact()
        # Inlined _receive/_honest_observes (one call frame per delivery is
        # measurable at 8+ deliveries per block).
        if miner.strategic:
            self._pool_observes(miner, block_id, tree.height_of(block_id), time)
        elif parent_id == miner.preferred_id:
            # The arrival extends the preferred tip, so it is strictly higher
            # (height = parent height + 1): adopt without the height lookup.
            miner.preferred_id = block_id
            miner.preferred_height += 1
            miner.preferred_since = time
        else:
            # Inlined _honest_observes early-outs; only the rare same-instant
            # equal-height competitor (the gamma-coin case) takes the call.
            height = tree.height_of(block_id)
            preferred_height = miner.preferred_height
            if height > preferred_height:
                miner.preferred_id = block_id
                miner.preferred_height = height
                miner.preferred_since = time
            elif (
                height == preferred_height
                and block_id != miner.preferred_id
                and time == miner.preferred_since
            ):
                self._honest_observes(miner, block_id, height, time)
        waiting = miner.waiting
        if not waiting:
            return
        # The arrival may release buffered descendants, oldest ancestors first.
        released = waiting.pop(block_id, None)
        while released:
            next_ids = []
            for held_id in released:
                self._receive(miner, held_id, time)
                next_ids.extend(waiting.pop(held_id, ()))
            released = next_ids

    def _receive(self, miner: _MinerState, block_id: int, time: float) -> None:
        miner.known.add(block_id)
        height = self.tree.height_of(block_id)
        if miner.strategic:
            self._pool_observes(miner, block_id, height, time)
        else:
            self._honest_observes(miner, block_id, height, time)

    # ------------------------------------------------------------------ honest miners
    def _honest_observes(
        self, miner: _HonestState, block_id: int, height: int, time: float
    ) -> None:
        if height > miner.preferred_height:
            miner.preferred_id = block_id
            miner.preferred_height = height
            miner.preferred_since = time
            return
        if height != miner.preferred_height or block_id == miner.preferred_id:
            return
        # Equal-height competitor.  First-seen wins, except for blocks arriving in
        # the very same instant as the incumbent — the zero-latency signature of a
        # pool match — where the paper's gamma coin decides which branch this
        # miner's hash power joins.
        if time != miner.preferred_since:
            return
        is_pool_block = self.tree.is_pool_block
        incumbent_is_pool = is_pool_block(miner.preferred_id)
        challenger_is_pool = is_pool_block(block_id)
        if challenger_is_pool == incumbent_is_pool:
            return
        switch_probability = (
            self.config.params.gamma if challenger_is_pool else 1.0 - self.config.params.gamma
        )
        if self.rng.uniform() < switch_probability:
            miner.preferred_id = block_id

    def _honest_mines(self, miner: _HonestState, time: float) -> None:
        parent_id = miner.preferred_id
        self._count_tie(miner, parent_id)
        # Inlined _create_block/_select_uncles (the honest event-loop hot path).
        tree = self.tree
        uncle_ids = (
            tree.select_uncles(
                parent_id,
                max_distance=self._uncle_distance,
                max_count=self._max_uncles,
                known=miner.known,
            )
            if self._uncles_enabled
            else []
        )
        block_id = tree.add_block_id(
            parent_id,
            miner.kind,
            miner_index=miner.index,
            created_at=self._events_run,
            uncle_ids=uncle_ids,
            published=True,
        )
        miner.known.add(block_id)
        miner.blocks_mined += 1
        # The parent is the miner's preferred block, so the height increments.
        miner.preferred_id = block_id
        miner.preferred_height += 1
        miner.preferred_since = time
        self._broadcast(miner, block_id, time)

    def _count_tie(self, miner: _MinerState, parent_id: int) -> None:
        """Track whether this honest block settles an equal-height fork, and for whom."""
        if parent_id == GENESIS_ID:
            return
        tree = self.tree
        parent_height = tree.height_of(parent_id)
        if tree.count_at_height(parent_height) < 2:
            return
        known = miner.known
        competitors = [
            other
            for other in tree.ids_at_height(parent_height)
            if other != parent_id and other in known
        ]
        if not competitors:
            return
        is_pool_block = tree.is_pool_block
        if is_pool_block(parent_id):
            if any(not is_pool_block(other) for other in competitors):
                self.tie_wins += 1
        elif any(is_pool_block(other) for other in competitors):
            self.tie_losses += 1

    # ------------------------------------------------------------------ strategic miners
    # The race view a pool hands its strategy is pure arithmetic over cached
    # state: the fork point between the private tip and the public best is
    # maintained incrementally (``fork_id``/``fork_height``, see
    # ``_pool_observes``), so ``_pool_mines`` and ``_pool_observes`` build the
    # three RaceView integers inline without touching the tree.  Both first
    # trim the private branch when the public chain has absorbed a prefix of it
    # (the fork point moved up into the branch), mirroring the chain engine's
    # bookkeeping.

    def _trim_agreed_prefix(self, pool: _PoolState) -> None:
        """The fork point moved up into the private branch: the agreed prefix
        leaves the race and the anchor advances to the fork point."""
        agreed = pool.fork_height - pool.anchor_height
        if pool.branch[agreed - 1] != pool.fork_id:
            raise SimulationError(
                f"miner {pool.spec.name!r}: fork point {pool.fork_id} is not on "
                "the private branch"
            )
        pool.branch = pool.branch[agreed:]
        pool.published_count = max(0, pool.published_count - agreed)
        pool.anchor_id = pool.fork_id
        pool.anchor_height = pool.fork_height

    def _pool_observes(self, pool: _PoolState, block_id: int, height: int, time: float) -> None:
        if height <= pool.public_tip_height:
            return  # not a new best public chain: first-seen tip stands
        if self.tree.parent_id_of(block_id) != pool.public_tip_id:
            # The new public best is not a one-block extension of the old one,
            # so the cached fork point may be stale: recompute it.  (On an
            # extension the fork point provably stands: the new block was
            # unknown to this pool a moment ago, so it cannot lie on the
            # private tip's ancestry, and the rest of its ancestry is the old
            # public tip's.)
            tip_id = pool.branch[-1] if pool.branch else pool.anchor_id
            fork_id = self.tree.fork_point_id(tip_id, block_id)
            pool.fork_id = fork_id
            pool.fork_height = self.tree.height_of(fork_id)
        pool.public_tip_id = block_id
        pool.public_tip_height = height
        # Inlined _race_numbers (this runs for every published foreign block).
        fork_height = pool.fork_height
        if fork_height > pool.anchor_height:
            self._trim_agreed_prefix(pool)
        foreign_prefix = pool.anchor_height - fork_height
        race = _RaceNumbers(
            len(pool.branch) + foreign_prefix,
            height - fork_height,
            pool.published_count + foreign_prefix,
        )
        action = pool.strategy.after_honest_block(race)
        if action is not Action.WITHHOLD:
            self._apply(pool, action, race, time)

    def _pool_mines(self, pool: _PoolState, time: float) -> None:
        # Inlined _create_block/_select_uncles (this is the pools' hot path).
        tree = self.tree
        branch = pool.branch
        parent_id = branch[-1] if branch else pool.anchor_id
        uncle_ids = (
            tree.select_uncles(
                parent_id,
                max_distance=self._uncle_distance,
                max_count=self._max_uncles,
                known=pool.known,
            )
            if self._uncles_enabled
            else []
        )
        block_id = tree.add_block_id(
            parent_id,
            pool.kind,
            miner_index=pool.index,
            created_at=self._events_run,
            uncle_ids=uncle_ids,
            published=False,
        )
        pool.known.add(block_id)
        pool.blocks_mined += 1
        branch.append(block_id)
        # Inlined _race_numbers (mirrors _pool_observes).
        fork_height = pool.fork_height
        if fork_height > pool.anchor_height:
            self._trim_agreed_prefix(pool)
            branch = pool.branch  # the trim rebinds the branch list
        foreign_prefix = pool.anchor_height - fork_height
        race = _RaceNumbers(
            len(branch) + foreign_prefix,
            pool.public_tip_height - fork_height,
            pool.published_count + foreign_prefix,
        )
        action = pool.strategy.after_pool_block(race)
        if action is not Action.WITHHOLD:
            self._apply(pool, action, race, time)

    def _apply(self, pool: _PoolState, action: Action, race: _RaceNumbers, time: float) -> None:
        if action is Action.WITHHOLD:
            return
        if action is Action.PUBLISH:
            self._publish_pool_blocks(pool, upto=pool.published_count + 1, time=time)
        elif action is Action.MATCH:
            # Reveal until the published part of the private chain is as long as
            # the competing public chain (race.published_count counts published
            # blocks above the fork point, including any foreign prefix).
            missing = race.public_length - race.published_count
            self._publish_pool_blocks(pool, upto=pool.published_count + max(0, missing), time=time)
        elif action is Action.OVERRIDE:
            self._publish_pool_blocks(pool, upto=len(pool.branch), time=time)
            pool.anchor_id = pool.tip_id()
            pool.anchor_height += len(pool.branch)
            pool.branch = []
            pool.published_count = 0
            pool.public_tip_id = pool.anchor_id
            pool.public_tip_height = pool.anchor_height
            pool.fork_id = pool.anchor_id
            pool.fork_height = pool.anchor_height
        elif action is Action.ADOPT:
            pool.anchor_id = pool.public_tip_id
            pool.anchor_height = pool.public_tip_height
            pool.branch = []
            pool.published_count = 0
            pool.fork_id = pool.anchor_id
            pool.fork_height = pool.anchor_height
        else:  # pragma: no cover - exhaustive over the Action enum
            raise SimulationError(f"strategy emitted unknown action {action!r}")

    def _publish_pool_blocks(self, pool: _PoolState, *, upto: int, time: float) -> None:
        upto = min(upto, len(pool.branch))
        for position in range(pool.published_count, upto):
            self._broadcast(pool, pool.branch[position], time)
        pool.published_count = max(pool.published_count, upto)

    # ------------------------------------------------------------------ block creation
    def _select_uncles(self, miner: _MinerState, parent_id: int) -> list[int]:
        """Uncle references for a block mined on ``parent_id``, from the local view.

        The tree's fused ``select_uncles`` pass takes the miner's known-set as
        the candidate filter, so candidates outside the local view are dropped
        without materialising Block objects or an intermediate list.
        """
        if not self._uncles_enabled:
            return []
        return self.tree.select_uncles(
            parent_id,
            max_distance=self._uncle_distance,
            max_count=self._max_uncles,
            known=miner.known,
        )

    def _create_block(self, miner: _MinerState, parent_id: int, *, published: bool) -> int:
        block_id = self.tree.add_block_id(
            parent_id,
            miner.kind,
            miner_index=miner.index,
            created_at=self._events_run,
            uncle_ids=self._select_uncles(miner, parent_id),
            published=published,
        )
        miner.known.add(block_id)
        miner.blocks_mined += 1
        return block_id

    # ------------------------------------------------------------------ results
    def _build_result(self, settlement: ChainSettlement) -> NetworkSimulationResult:
        outcomes = []
        for miner in self.miners:
            kind = MinerKind.POOL if miner.spec.counts_as_pool else MinerKind.HONEST
            rewards = settlement.per_miner.get((kind, miner.index), PartyRewards())
            outcomes.append(
                MinerOutcome(
                    name=miner.spec.name,
                    strategy=miner.spec.strategy,
                    hash_power=miner.spec.hash_power,
                    rewards=rewards,
                    blocks_mined=miner.blocks_mined,
                )
            )
        return NetworkSimulationResult(
            config=self.config,
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
            num_events=self._events_run,
            honest_uncle_distance_counts=dict(settlement.honest_uncle_distance_counts),
            pool_uncle_distance_counts=dict(settlement.pool_uncle_distance_counts),
            miners=tuple(outcomes),
            tie_wins=self.tie_wins,
            tie_losses=self.tie_losses,
        )
