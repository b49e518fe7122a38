"""Lockstep property suite: ``ArrayBlockTree`` vs the reference tree of the test suite.

Both trees receive byte-identical random add/publish sequences and must stay
indistinguishable through every read the simulators rely on — the block records
themselves, uncle selection (with and without a local-view filter), fork points,
tips and reward settlement (including warm-up masking and the zero-reward
edges).  The reference tree (``tests/reference_chain.py``) applies the protocol
rules literally, so any drift in the array tree's indexes or vectorised passes
shows up here.  Ids are allocated sequentially by both, so the same action script
addresses the same blocks on each side.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_chain import ReferenceTree, settle_walk
from repro.chain.arrays import ArrayBlockTree
from repro.chain.block import GENESIS_ID, MinerKind
from repro.chain.fork_choice import best_tip_id
from repro.chain.rewards import settle_rewards
from repro.chain.validation import validate_tree
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule

SCHEDULES = (EthereumByzantiumSchedule(), FlatUncleSchedule(0.5), FlatUncleSchedule(0.0))

# One action is (is_publish, target_choice, miner_selector, reference_uncles,
# published_at_creation).  ``target_choice`` picks the parent (mine) or the
# block to publish, modulo the current tree size.
actions = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=50,
)


def build_pair(action_list) -> tuple[ArrayBlockTree, ReferenceTree]:
    """Grow both trees through the same action script, asserting as we go."""
    # A tiny initial capacity forces several geometric growths per run.
    array_tree = ArrayBlockTree(capacity=2)
    reference = ReferenceTree()
    for step, (is_publish, choice, miner_sel, reference_uncles, published) in enumerate(
        action_list
    ):
        size = len(reference)
        if is_publish and size > 1:
            block_id = choice % size
            array_tree.publish(block_id)
            reference.publish(block_id)
            continue
        parent_id = choice % size
        kind = MinerKind.POOL if miner_sel % 2 else MinerKind.HONEST
        miner_index = miner_sel // 2
        uncle_ids: list[int] = []
        if reference_uncles:
            uncle_ids = array_tree.select_uncles(parent_id, max_distance=6, max_count=2)
            assert uncle_ids == reference.select_uncles(parent_id, max_distance=6, max_count=2)
        array_id = array_tree.add_block_id(
            parent_id,
            kind,
            miner_index=miner_index,
            created_at=step,
            uncle_ids=uncle_ids,
            published=published,
        )
        reference_id = reference.add_block(
            parent_id,
            kind,
            miner_index=miner_index,
            created_at=step,
            uncle_ids=uncle_ids,
            published=published,
        )
        assert array_id == reference_id
    return array_tree, reference


class TestLockstepStructure:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_blocks_and_publication_identical(self, action_list):
        array_tree, reference = build_pair(action_list)
        assert len(array_tree) == len(reference)
        assert [array_tree.block(bid) for bid in range(len(array_tree))] == list(
            reference.blocks.values()
        )
        assert array_tree.published_ids == reference.published_ids
        assert array_tree.unpublished_ids() == reference.unpublished_ids()

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_tree_validates_and_agrees_on_tips(self, action_list):
        array_tree, reference = build_pair(action_list)
        validate_tree(array_tree)
        assert array_tree.tip_ids() == reference.tip_ids()
        assert array_tree.tip_ids(published_only=True) == reference.tip_ids(published_only=True)
        for published_only in (False, True):
            assert best_tip_id(array_tree, published_only=published_only) == (
                reference.best_tip_id(published_only=published_only)
            )

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_fork_points_identical_for_every_pair_of_tips(self, action_list):
        array_tree, reference = build_pair(action_list)
        tip_ids = reference.tip_ids()
        for first in tip_ids:
            for second in tip_ids:
                assert array_tree.fork_point_id(first, second) == reference.fork_point_id(
                    first, second
                )

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_main_chains_identical_for_every_block(self, action_list):
        array_tree, reference = build_pair(action_list)
        for block_id in range(len(reference)):
            path = [block.block_id for block in reference.ancestors(block_id)][::-1]
            assert array_tree.main_chain_ids(block_id) == path


class TestLockstepUncles:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_candidate_sets_identical_from_every_parent(self, action_list):
        array_tree, reference = build_pair(action_list)
        published = reference.published_ids
        for parent in range(len(reference)):
            # Pool view (the whole tree) and an honest local view (published only).
            assert array_tree.select_uncles(
                parent, max_distance=6, max_count=2
            ) == reference.select_uncles(parent, max_distance=6, max_count=2)
            assert array_tree.select_uncles(
                parent, max_distance=6, max_count=2, known=published
            ) == reference.select_uncles(parent, max_distance=6, max_count=2, known=published)

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions, max_distance=st.integers(1, 8), max_count=st.integers(0, 3))
    def test_candidate_sets_identical_under_other_protocol_limits(
        self, action_list, max_distance, max_count
    ):
        array_tree, reference = build_pair(action_list)
        for parent in range(len(reference)):
            assert array_tree.select_uncles(
                parent, max_distance=max_distance, max_count=max_count
            ) == reference.select_uncles(parent, max_distance=max_distance, max_count=max_count)


class TestLockstepSettlement:
    @settings(max_examples=60, deadline=None)
    @given(action_list=actions, schedule=st.sampled_from(SCHEDULES))
    def test_settlements_bit_identical(self, action_list, schedule):
        array_tree, reference = build_pair(action_list)
        tip_id = reference.best_tip_id(published_only=False)
        top = max(block.height for block in reference.blocks.values())
        # skip=0, a mid-chain warm-up mask, and a mask past the whole tree
        # (the zero-reward edge: every settlement field must collapse to zero).
        for skip in (0, top // 2 + 1, top + 1):
            assert settle_rewards(
                array_tree, tip_id, schedule, skip_heights_below=skip
            ) == settle_walk(reference, tip_id, schedule, skip_heights_below=skip)
        empty = settle_rewards(array_tree, tip_id, schedule, skip_heights_below=top + 1)
        assert empty.total_blocks == 0
        assert empty.split.total == 0.0
        assert empty.per_miner == {}

    @settings(max_examples=60, deadline=None)
    @given(action_list=actions)
    def test_settlement_from_genesis_tip(self, action_list):
        # Degenerate tip: settling at genesis makes every block stale.
        array_tree, reference = build_pair(action_list)
        settlement = settle_rewards(array_tree, GENESIS_ID, SCHEDULES[0])
        assert settlement == settle_walk(reference, GENESIS_ID, SCHEDULES[0])
        assert settlement.regular_blocks == 0
        assert settlement.stale_blocks == settlement.total_blocks
