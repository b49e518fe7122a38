"""Per-miner "known blocks" views: a synced watermark plus sparse exceptions.

Every miner tracks which blocks it has seen.  The obvious representation — one
``set[int]`` per miner — costs O(total blocks) memory *per miner*, which is what
the network backend pays N-fold compared to the single-view chain engine.  But
block ids are allocated sequentially by the shared
:class:`~repro.chain.arrays.ArrayBlockTree`, and every miner eventually learns
almost every block, so a view is really "everything below a high-water mark,
give or take a few stragglers".

:class:`LocalView` stores exactly that, with XOR semantics so one sparse set
serves both directions::

    block_id in view  <=>  (block_id < watermark) != (block_id in exceptions)

Ids below the watermark are known unless listed (a *missing* exception: a block
still in flight, or a withheld private block the miner will never see); ids at
or above it are unknown unless listed (an *extra*: a recently received block
whose predecessors have not all arrived).  Adding the id at the watermark
advances it through any contiguous extras.  When the exceptions set grows past
a threshold — the watermark can stall behind a block that is never broadcast,
such as a pool's abandoned private branch — the view compacts: the watermark
jumps to ``max(exceptions) + 1`` and every id in between flips membership,
which converts the accumulated extras back into a handful of missing ids.  The
permanent residents are therefore only the blocks that genuinely never reach
this miner, a small fraction of a run, so memory stays sparse where the set
representation grew linearly.

The view answers ``in`` exactly like the set it replaces (pinned by the
property suite), supports iteration for diagnostics and tests, and is
append-only like the block tree itself.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Exceptions-set size that triggers the first compaction; afterwards the
#: threshold floats ``_COMPACT_SLACK`` above the post-compaction residue so
#: permanently missing blocks cannot cause compaction thrash.
_COMPACT_SLACK = 64


class LocalView:
    """Set-like view of the block ids one miner knows about."""

    __slots__ = ("watermark", "exceptions", "_compact_at")

    def __init__(self, genesis_id: int = 0) -> None:
        self.watermark = genesis_id + 1
        self.exceptions: set[int] = set()
        self._compact_at = _COMPACT_SLACK

    @classmethod
    def from_state(cls, watermark: int, missing: Iterable[int]) -> "LocalView":
        """A view knowing every id below ``watermark`` except those in ``missing``.

        Used by the zero-latency fast path to materialise per-miner views from
        its shared representation at the end of a run.
        """
        view = cls.__new__(cls)
        view.watermark = watermark
        view.exceptions = set(missing)
        view._compact_at = len(view.exceptions) + _COMPACT_SLACK
        return view

    def __contains__(self, block_id: int) -> bool:
        return (block_id < self.watermark) != (block_id in self.exceptions)

    def add(self, block_id: int) -> None:
        """Mark ``block_id`` as known (idempotent)."""
        watermark = self.watermark
        if block_id == watermark:
            # In-order arrival (the overwhelmingly common case): advance the
            # watermark directly, swallowing any now-contiguous extras, without
            # bouncing the id through the exceptions set.
            watermark += 1
            exceptions = self.exceptions
            if exceptions:
                while watermark in exceptions:
                    exceptions.remove(watermark)
                    watermark += 1
            self.watermark = watermark
            return
        exceptions = self.exceptions
        if block_id < watermark:
            exceptions.discard(block_id)
            return
        exceptions.add(block_id)
        if len(exceptions) >= self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Jump the watermark past the extras, flipping the skipped range.

        By the XOR semantics, toggling membership of every id in
        ``[watermark, new_watermark)`` while raising the watermark preserves the
        answer for every id; what remains in the set afterwards are the missing
        ids of the skipped range (blocks this miner has not received).
        """
        exceptions = self.exceptions
        new_watermark = max(exceptions) + 1
        for block_id in range(self.watermark, new_watermark):
            if block_id in exceptions:
                exceptions.remove(block_id)
            else:
                exceptions.add(block_id)
        self.watermark = new_watermark
        self._compact_at = len(exceptions) + _COMPACT_SLACK

    def __iter__(self) -> Iterator[int]:
        """Known block ids in increasing order (test/diagnostic path, O(watermark))."""
        watermark = self.watermark
        exceptions = self.exceptions
        for block_id in range(watermark):
            if block_id not in exceptions:
                yield block_id
        for block_id in sorted(e for e in exceptions if e >= watermark):
            yield block_id

    def __len__(self) -> int:
        missing_below = sum(1 for e in self.exceptions if e < self.watermark)
        extras_above = len(self.exceptions) - missing_below
        return self.watermark - missing_below + extras_above

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"LocalView(watermark={self.watermark}, "
            f"exceptions={len(self.exceptions)})"
        )
