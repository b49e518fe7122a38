"""Unit tests for the generic :mod:`repro.markov.chain` container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StateSpaceError
from repro.markov.chain import MarkovChain, Transition


def two_state_chain(p: float = 0.3, q: float = 0.6) -> MarkovChain[str]:
    return MarkovChain(
        ["up", "down"],
        [
            Transition("up", "down", p),
            Transition("up", "up", 1 - p),
            Transition("down", "up", q),
            Transition("down", "down", 1 - q),
        ],
    )


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain(["a", "a"], [])

    def test_empty_state_list_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain([], [])

    def test_transition_with_unknown_source_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain(["a"], [Transition("b", "a", 1.0)])

    def test_transition_with_unknown_target_rejected(self):
        with pytest.raises(StateSpaceError):
            MarkovChain(["a"], [Transition("a", "b", 1.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(StateSpaceError):
            Transition("a", "b", -0.5)

    def test_indexing_round_trip(self):
        chain = two_state_chain()
        assert chain.index_of("up") == 0
        assert chain.state_at(1) == "down"
        assert len(chain) == 2

    def test_unknown_state_lookup_raises(self):
        with pytest.raises(StateSpaceError):
            two_state_chain().index_of("sideways")

    def test_bad_index_raises(self):
        with pytest.raises(StateSpaceError):
            two_state_chain().state_at(5)


class TestMatrices:
    def test_rate_matrix_includes_self_loops(self):
        chain = two_state_chain(p=0.3, q=0.6)
        rates = chain.rate_matrix().toarray()
        assert rates[0, 0] == pytest.approx(0.7)
        assert rates[0, 1] == pytest.approx(0.3)
        assert rates[1, 0] == pytest.approx(0.6)

    def test_parallel_transitions_add_up(self):
        chain = MarkovChain(
            ["a", "b"],
            [Transition("a", "b", 0.2, label="x"), Transition("a", "b", 0.3, label="y"), Transition("b", "b", 1.0)],
        )
        assert chain.rate_matrix().toarray()[0, 1] == pytest.approx(0.5)

    def test_generator_rows_sum_to_zero(self):
        generator = two_state_chain().generator_matrix().toarray()
        assert np.allclose(generator.sum(axis=1), 0.0)

    def test_generator_ignores_self_loops(self):
        chain = two_state_chain(p=0.3, q=0.6)
        generator = chain.generator_matrix().toarray()
        assert generator[0, 0] == pytest.approx(-0.3)
        assert generator[1, 1] == pytest.approx(-0.6)


class TestValidation:
    def test_unit_exit_rate_check_passes_for_proper_chain(self):
        two_state_chain().validate(expect_unit_exit_rate=True)

    def test_unit_exit_rate_check_fails_for_unbalanced_chain(self):
        chain = MarkovChain(["a", "b"], [Transition("a", "b", 0.4), Transition("b", "a", 1.0)])
        with pytest.raises(StateSpaceError):
            chain.validate(expect_unit_exit_rate=True)

    def test_describe(self):
        assert "states=2" in two_state_chain().describe()
