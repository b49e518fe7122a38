"""The compiled elimination: a bit-for-bit replay of the dict-row oracle, and its fill-in.

``EliminationPlan`` compiles the elimination of one sparsity pattern and
replays its float operations per rate vector; ``reference_markov.banded_solve``
is the same elimination on ``{column: value}`` rows.  Both must return the same
probabilities and residual under ``==``, and fail with the same message.  No
test here needs scipy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_markov import banded_solve

from repro.errors import SolverError
from repro.markov.state import LumpedSpace
from repro.markov.stationary import EliminationPlan
from repro.markov.transitions import LumpedChain
from repro.mdp.model import MdpModel
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule

rates_strategy = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def patterns(draw, *, starved: bool = False):
    """A chain as ``(size, sources, targets, rates)``.

    A ring ``0 -> 1 -> ... -> size - 1 -> 0`` keeps every state recurrent and
    moves into the anchor; from four states on, a move from the last state into
    state 1 is a wide inflow that fills in row 2 at the last column (no move
    from the last state into state 2 is drawn, so that entry stays empty until
    then).  Random extra pairs (self-loops included), a repeat of one of them,
    and a shuffle follow.  With ``starved``, every move out of one state other
    than the anchor is dropped: that state absorbs, so the anchor is not
    recurrent.
    """
    size = draw(st.integers(min_value=2, max_value=10))
    pairs = [(state, (state + 1) % size) for state in range(size)]
    if size >= 4:
        pairs.append((size - 1, 1))
    state = st.integers(min_value=0, max_value=size - 1)
    extra = st.tuples(state, state).filter(lambda pair: pair != (size - 1, 2))
    pairs += draw(st.lists(extra, max_size=3 * size))
    pairs.append(draw(st.sampled_from(pairs)))
    if starved:
        absorbing = draw(st.integers(min_value=1, max_value=size - 1))
        pairs = [(source, target) for source, target in pairs if source != absorbing]
    pairs = draw(st.permutations(pairs))
    rates = draw(st.lists(rates_strategy, min_size=len(pairs), max_size=len(pairs)))
    return size, [source for source, _ in pairs], [target for _, target in pairs], rates


def oracle(size, sources, targets, rates):
    """The dict-row elimination's probabilities and residual, or its error message."""
    moves = [(source, target, rate) for source, target, rate in zip(sources, targets, rates) if source != target]
    try:
        return banded_solve(size, moves)
    except SolverError as exc:
        return str(exc)


def replay(plan, rates):
    """The compiled plan's probabilities and residual, or its error message."""
    try:
        probabilities = plan.solve(rates)
    except SolverError as exc:
        return str(exc)
    return probabilities, plan.residual(probabilities, rates)


class TestReplayEqualsTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(pattern=patterns())
    def test_probabilities_and_residual_are_identical(self, pattern):
        size, sources, targets, rates = pattern
        plan = EliminationPlan(size, sources, targets)
        assert replay(plan, rates) == oracle(size, sources, targets, rates)
        if size >= 4:
            assert (2, size - 1) in plan.fill_in
        pairs = [(source, target) for source, target in zip(sources, targets) if source != target]
        assert len(set(pairs)) < len(pairs) or len(pairs) < len(sources)

    @settings(max_examples=100, deadline=None)
    @given(pattern=patterns(starved=True))
    def test_a_starved_anchor_raises_at_the_same_state_index(self, pattern):
        size, sources, targets, rates = pattern
        expected = oracle(size, sources, targets, rates)
        assert isinstance(expected, str) and expected.startswith("zero pivot at state index")
        assert replay(EliminationPlan(size, sources, targets), rates) == expected

    def test_one_plan_serves_many_rate_vectors(self):
        sources, targets = [0, 1, 2, 2, 1, 3], [1, 2, 0, 3, 3, 1]
        plan = EliminationPlan(4, sources, targets)
        for scale in (0.5, 1.0, 3.0):
            rates = [scale * (k + 1) for k in range(len(sources))]
            assert replay(plan, rates) == oracle(4, sources, targets, rates)

    def test_self_loops_are_skipped(self):
        plan = EliminationPlan(3, [0, 1, 1, 2, 2], [1, 1, 2, 2, 0])
        assert plan.moves == [0, 2, 4]
        looped = plan.solve([1.0, 5.0, 2.0, 7.0, 3.0])
        assert looped == EliminationPlan(3, [0, 1, 2], [1, 2, 0]).solve([1.0, 2.0, 3.0])


def policy_plan(policy_name: str, max_lead: int) -> EliminationPlan:
    model = MdpModel(MiningParams(alpha=0.3, gamma=0.5), EthereumByzantiumSchedule(), max_lead=max_lead)
    chosen = model.policy_edges(getattr(model, policy_name)())
    return EliminationPlan(model.num_states, model.sources[chosen].tolist(), model.targets[chosen].tolist())


class TestFillInStaysNextToTheDiagonal:
    """In ``LumpedSpace`` order the elimination fills in only just left of the diagonal.

    Every inflow comes from at most two positions away and resets land in the
    anchor row, so a row can only gain the entry between its lower neighbour
    and its diagonal: one per forked row under Algorithm 1, none when every
    decision overrides.  No entry above the diagonal is ever created, so the
    back-substitution keeps the chain's own upper entries and the solve stays
    ``O(max_lead)``.
    """

    @pytest.mark.parametrize("max_lead", [10, 60, 200])
    def test_the_lumped_chain(self, max_lead):
        chain = LumpedChain(LumpedSpace(max_lead))
        fill_in = chain.plan.fill_in
        assert all(column == row - 1 for row, column in fill_in)
        assert all(chain.space.state_at(row).public == 1 for row, _ in fill_in)
        assert len({row for row, _ in fill_in}) == len(fill_in) == max_lead - 2

    @pytest.mark.parametrize("max_lead", [10, 60, 200])
    def test_algorithm_1_in_the_mdp_fills_in_as_the_lumped_chain(self, max_lead):
        assert policy_plan("selfish_policy", max_lead).fill_in == LumpedChain(LumpedSpace(max_lead)).plan.fill_in

    @pytest.mark.parametrize("max_lead", [10, 60, 200])
    def test_honest_mining_overriding_everywhere_fills_in_nothing(self, max_lead):
        assert policy_plan("honest_policy", max_lead).fill_in == []
