"""Unit tests for :mod:`repro.markov.state`."""

from __future__ import annotations

import pytest

from reference_markov import StateSpace, enumerate_states

from repro.errors import StateSpaceError
from repro.markov.state import LumpedSpace, State, ZERO_STATE


class TestState:
    def test_lead(self):
        assert State(5, 2).lead == 3
        assert State(0, 0).lead == 0

    def test_negative_lengths_rejected(self):
        with pytest.raises(StateSpaceError):
            State(-1, 0)
        with pytest.raises(StateSpaceError):
            State(0, -2)

    @pytest.mark.parametrize("state", [State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(5, 3)])
    def test_reachable_states_are_valid(self, state):
        assert state.is_valid()

    @pytest.mark.parametrize("state", [State(1, 2), State(2, 1), State(3, 2), State(0, 1)])
    def test_unreachable_states_are_invalid(self, state):
        assert not state.is_valid()

    def test_zero_state_constant(self):
        assert ZERO_STATE == State(0, 0)

    def test_str(self):
        assert str(State(3, 1)) == "(3,1)"

    def test_ordering_is_deterministic(self):
        assert State(1, 0) < State(2, 0) < State(2, 1)


class TestEnumeration:
    def test_small_enumeration_is_exactly_the_reachable_set(self):
        states = enumerate_states(3)
        assert states == [State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(3, 0), State(3, 1)]

    def test_all_enumerated_states_are_valid(self):
        assert all(state.is_valid() for state in enumerate_states(12))

    def test_count_grows_quadratically(self):
        # 3 special states plus sum_{i=2..n} (i-1) states.
        for max_lead in (2, 5, 10, 30):
            expected = 3 + sum(i - 1 for i in range(2, max_lead + 1))
            assert len(enumerate_states(max_lead)) == expected

    def test_max_lead_below_two_rejected(self):
        with pytest.raises(StateSpaceError):
            enumerate_states(1)


class TestStateSpace:
    def test_round_trip_between_states_and_indices(self):
        space = StateSpace(8)
        for index, state in enumerate(space.states):
            assert space.index_of(state) == index
            assert space.state_at(index) == state

    def test_contains(self):
        space = StateSpace(5)
        assert State(4, 2) in space
        assert State(6, 0) not in space

    def test_unknown_state_raises(self):
        with pytest.raises(StateSpaceError):
            StateSpace(5).index_of(State(10, 0))

    def test_bad_index_raises(self):
        space = StateSpace(5)
        with pytest.raises(StateSpaceError):
            space.state_at(len(space) + 3)

    def test_iteration_matches_states_tuple(self):
        space = StateSpace(4)
        assert list(space) == list(space.states)

    def test_describe_mentions_truncation(self):
        assert "max_lead=7" in StateSpace(7).describe()


class TestLumpedSpace:
    def test_small_space_is_one_representative_per_lead_and_fork(self):
        assert LumpedSpace(3).states == (
            State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(3, 1), State(3, 0), State(4, 1)
        )

    def test_size_is_two_max_lead_plus_one(self):
        for max_lead in (2, 5, 60, 200):
            assert len(LumpedSpace(max_lead)) == 2 * max_lead + 1

    def test_every_reachable_state_maps_to_its_lead_and_fork_class(self):
        space = LumpedSpace(30)
        for state in StateSpace(30):
            representative = space.representative(state)
            assert representative in space
            assert representative.lead == state.lead
            assert (representative.public == 0) == (state.public == 0)
            if state.public == 0 or state.lead < 2:
                assert representative == state

    def test_boundary_is_the_capped_lead(self):
        space = LumpedSpace(6)
        assert [state for state in space if space.on_boundary(state)] == [State(6, 0), State(7, 1)]
        full = StateSpace(6)
        assert [state for state in full if full.on_boundary(state)] == [State(6, j) for j in range(5)]

    def test_boundary_indices_follow_on_boundary(self):
        for space in (LumpedSpace(6), StateSpace(6)):
            assert space.boundary_indices() == [
                space.index_of(state) for state in space if space.on_boundary(state)
            ]

    def test_max_lead_below_two_rejected(self):
        with pytest.raises(StateSpaceError):
            LumpedSpace(1)

    def test_describe_names_the_lumped_space(self):
        assert LumpedSpace(7).describe() == "LumpedSpace(max_lead=7, states=15)"

    def test_round_trip_between_states_and_indices(self):
        space = LumpedSpace(8)
        assert list(space) == list(space.states)
        for index, state in enumerate(space.states):
            assert state in space
            assert space.index_of(state) == index
            assert space.state_at(index) == state

    def test_unknown_state_and_bad_index_raise(self):
        space = LumpedSpace(5)
        assert State(4, 2) not in space
        with pytest.raises(StateSpaceError):
            space.index_of(State(4, 2))
        with pytest.raises(StateSpaceError):
            space.state_at(len(space) + 3)

    def test_representative_needs_no_space(self):
        # The class map does not depend on the cap, so it is a static method.
        assert LumpedSpace.representative(State(9, 6)) == State(4, 1)
        assert LumpedSpace.representative(State(9, 0)) == State(9, 0)
        assert LumpedSpace(3).representative(State(9, 6)) == State(4, 1)


class TestIntegerEncoding:
    def test_codes_match_enumeration_order(self):
        from repro.markov.state import decode_state

        states = enumerate_states(40)
        for position, state in enumerate(states):
            assert state.encode() == position
            assert decode_state(position) == state

    def test_codes_are_truncation_independent(self):
        small = enumerate_states(10)
        large = enumerate_states(50)
        for state in small:
            assert state in large[: len(small)]
            assert state.encode() == large.index(state)

    def test_unreachable_state_has_no_code(self):
        with pytest.raises(StateSpaceError):
            State(3, 2).encode()
        with pytest.raises(StateSpaceError):
            State(0, 1).encode()

    def test_negative_code_rejected(self):
        from repro.markov.state import decode_state

        with pytest.raises(StateSpaceError):
            decode_state(-5)
