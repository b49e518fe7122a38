"""Unit tests for the selfish-mining transition structure (Section IV-C)."""

from __future__ import annotations

import pytest
from reference_markov import StateSpace, build_selfish_mining_chain

from repro.markov.state import LumpedSpace, State
from repro.markov.transitions import (
    LumpedChain,
    TransitionKind,
    rate_values,
    selfish_mining_transitions,
    transitions_from_state,
)
from repro.params import MiningParams

PARAMS = MiningParams(alpha=0.3, gamma=0.4)
ALPHA, BETA, GAMMA = PARAMS.alpha, PARAMS.beta, PARAMS.gamma


def outgoing(state: State, max_lead: int = 50):
    return list(transitions_from_state(state, PARAMS, max_lead=max_lead))


def rates_by_target(state: State) -> dict[State, float]:
    result: dict[State, float] = {}
    for transition in outgoing(state):
        result[transition.target] = result.get(transition.target, 0.0) + transition.rate
    return result


class TestIndividualStates:
    def test_zero_state(self):
        rates = rates_by_target(State(0, 0))
        assert rates[State(0, 0)] == pytest.approx(BETA)
        assert rates[State(1, 0)] == pytest.approx(ALPHA)

    def test_one_zero(self):
        rates = rates_by_target(State(1, 0))
        assert rates[State(2, 0)] == pytest.approx(ALPHA)
        assert rates[State(1, 1)] == pytest.approx(BETA)

    def test_tie_state_resolves_with_rate_one(self):
        rates = rates_by_target(State(1, 1))
        assert rates == {State(0, 0): pytest.approx(1.0)}

    def test_two_zero(self):
        rates = rates_by_target(State(2, 0))
        assert rates[State(3, 0)] == pytest.approx(ALPHA)
        assert rates[State(0, 0)] == pytest.approx(BETA)

    def test_long_lead_no_fork(self):
        rates = rates_by_target(State(5, 0))
        assert rates[State(6, 0)] == pytest.approx(ALPHA)
        assert rates[State(5, 1)] == pytest.approx(BETA)

    def test_lead_two_with_fork_collapses_to_zero(self):
        rates = rates_by_target(State(4, 2))
        assert rates[State(5, 2)] == pytest.approx(ALPHA)
        assert rates[State(0, 0)] == pytest.approx(BETA)

    def test_long_lead_with_fork_splits_by_gamma(self):
        rates = rates_by_target(State(6, 2))
        assert rates[State(7, 2)] == pytest.approx(ALPHA)
        assert rates[State(4, 1)] == pytest.approx(BETA * GAMMA)
        assert rates[State(6, 3)] == pytest.approx(BETA * (1 - GAMMA))

    def test_unreachable_state_rejected(self):
        with pytest.raises(ValueError):
            outgoing(State(3, 2))


class TestKinds:
    def test_case_numbers_match_enum_values(self):
        for kind in TransitionKind:
            assert kind.case_number == kind.value

    def test_every_reachable_state_has_unit_exit_rate(self):
        space = StateSpace(20)
        for state in space:
            total = sum(t.rate for t in transitions_from_state(state, PARAMS, max_lead=20))
            assert total == pytest.approx(1.0)

    def test_kind_assignment_for_fork_states(self):
        kinds = {t.kind for t in outgoing(State(6, 2))}
        assert kinds == {
            TransitionKind.POOL_EXTENDS_PRIVATE_LEAD,
            TransitionKind.HONEST_ON_PREFIX_LONG_LEAD,
            TransitionKind.HONEST_ON_HONEST_BRANCH,
        }

    def test_kind_assignment_for_lead_two_fork_states(self):
        kinds = {t.kind for t in outgoing(State(3, 1))}
        assert kinds == {
            TransitionKind.POOL_EXTENDS_PRIVATE_LEAD,
            TransitionKind.HONEST_ON_PREFIX_LEAD_TWO,
            TransitionKind.HONEST_ON_HONEST_LEAD_TWO,
        }

    def test_truncation_redirects_pool_extension_to_self_loop(self):
        transitions = list(transitions_from_state(State(10, 0), PARAMS, max_lead=10))
        pool_moves = [t for t in transitions if t.kind is TransitionKind.POOL_EXTENDS_PRIVATE_LEAD]
        assert len(pool_moves) == 1
        assert pool_moves[0].target == State(10, 0)


class TestChainConstruction:
    def test_every_state_covered(self):
        space = LumpedSpace(15)
        transitions = selfish_mining_transitions(PARAMS, space)
        sources = {t.source for t in transitions}
        assert sources == set(space.states)

    def test_targets_stay_inside_the_truncated_space(self):
        space = LumpedSpace(15)
        for transition in selfish_mining_transitions(PARAMS, space):
            assert transition.target in space

    def test_lumped_chain_has_three_transitions_per_forked_lead(self):
        # 5 out of the special states, 2 per unforked and 3 per forked lead.
        assert len(selfish_mining_transitions(PARAMS, LumpedSpace(60))) == 300

    def test_lumped_pool_extension_self_loops_exactly_at_the_lead_cap(self):
        space = LumpedSpace(10)
        for transition in selfish_mining_transitions(PARAMS, space):
            if transition.kind is TransitionKind.POOL_EXTENDS_PRIVATE_LEAD:
                assert (transition.target == transition.source) == space.on_boundary(transition.source)
                assert transition.target.lead == min(transition.source.lead + 1, 10)

    def test_every_lumped_state_has_unit_exit_rate(self):
        exit_rates: dict[State, float] = {}
        for transition in selfish_mining_transitions(PARAMS, LumpedSpace(20)):
            exit_rates[transition.source] = exit_rates.get(transition.source, 0.0) + transition.rate
        assert all(rate == pytest.approx(1.0) for rate in exit_rates.values())

    def test_build_chain_validates_and_labels(self):
        chain = build_selfish_mining_chain(PARAMS, max_lead=12)
        assert len(chain) == len(StateSpace(12))
        labels = {t.label for t in chain.transitions}
        assert TransitionKind.POOL_HIDES_FIRST_BLOCK.name in labels
        assert TransitionKind.HONEST_ON_HONEST_BRANCH.name in labels

    def test_build_chain_with_prebuilt_space(self):
        space = StateSpace(10)
        chain = build_selfish_mining_chain(PARAMS, space=space)
        assert len(chain) == len(space)

    def test_gamma_zero_removes_prefix_transitions(self):
        params = MiningParams(alpha=0.3, gamma=0.0)
        transitions = list(transitions_from_state(State(6, 2), params, max_lead=20))
        prefix = [t for t in transitions if t.kind is TransitionKind.HONEST_ON_PREFIX_LONG_LEAD]
        assert prefix[0].rate == 0.0

    def test_gamma_one_removes_honest_branch_transitions(self):
        params = MiningParams(alpha=0.3, gamma=1.0)
        transitions = list(transitions_from_state(State(6, 2), params, max_lead=20))
        honest_branch = [t for t in transitions if t.kind is TransitionKind.HONEST_ON_HONEST_BRANCH]
        assert honest_branch[0].rate == 0.0


class TestRateColumn:
    def test_each_kind_reads_its_rate_from_the_table(self):
        expected = {
            TransitionKind.HONEST_EXTENDS_CONSENSUS: BETA,
            TransitionKind.POOL_HIDES_FIRST_BLOCK: ALPHA,
            TransitionKind.POOL_BUILDS_LEAD_OF_TWO: ALPHA,
            TransitionKind.HONEST_FORCES_TIE: BETA,
            TransitionKind.TIE_RESOLVED: ALPHA + BETA,
            TransitionKind.POOL_EXTENDS_PRIVATE_LEAD: ALPHA,
            TransitionKind.HONEST_ON_PREFIX_LONG_LEAD: BETA * GAMMA,
            TransitionKind.HONEST_ON_PREFIX_LEAD_TWO: BETA * GAMMA,
            TransitionKind.HONEST_CLOSES_LEAD_TWO: BETA,
            TransitionKind.HONEST_FORKS_LONG_LEAD: BETA,
            TransitionKind.HONEST_ON_HONEST_BRANCH: BETA * (1.0 - GAMMA),
            TransitionKind.HONEST_ON_HONEST_LEAD_TWO: BETA * (1.0 - GAMMA),
        }
        assert {kind: rate_values(PARAMS)[kind.rate_index] for kind in TransitionKind} == expected

    def test_every_transition_carries_its_kinds_rate(self):
        values = rate_values(PARAMS)
        for transition in selfish_mining_transitions(PARAMS, LumpedSpace(6)):
            assert transition.rate == values[transition.kind.rate_index]

    def test_kinds_are_still_looked_up_by_case_number(self):
        assert [TransitionKind(case) for case in range(1, 13)] == list(TransitionKind)
        assert TransitionKind.TIE_RESOLVED.case_number == 5


class TestLumpedChain:
    def test_indices_and_states_describe_the_same_transitions(self):
        space = LumpedSpace(8)
        chain = LumpedChain(space)
        assert len(chain.edges) == len(chain.sources) == len(chain.targets)
        for (source, target, _), source_index, target_index in zip(chain.edges, chain.sources, chain.targets):
            assert space.state_at(source_index) == source
            assert space.state_at(target_index) == target

    def test_moves_leave_out_exactly_the_self_loops(self):
        chain = LumpedChain(LumpedSpace(8))
        loops = [k for k, (source, target, _) in enumerate(chain.edges) if source == target]
        assert loops and sorted(chain.plan.moves + loops) == list(range(len(chain.edges)))

    def test_boundary_is_the_lead_cap(self):
        space = LumpedSpace(8)
        assert LumpedChain(space).boundary == [space.index_of(State(8, 0)), space.index_of(State(9, 1))]
