"""Unit tests for the action-conditioned MDP model (:mod:`repro.mdp.model`)."""

from __future__ import annotations

import numpy as np
import pytest
from reference_markov import StateSpace

from repro.analysis.reward_cases import transition_rewards
from repro.errors import StateSpaceError
from repro.markov.state import LumpedSpace, State
from repro.markov.transitions import LumpedChain, SelfishTransition, TransitionKind, transitions_from_state
from repro.mdp.model import (
    MdpModel,
    PoolDecision,
    available_decisions,
    decision_transitions,
    policy_transitions_from_state,
)
from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule

PARAMS = MiningParams(alpha=0.3, gamma=0.5)
SCHEDULE = EthereumByzantiumSchedule()
MAX_LEAD = 10


@pytest.fixture(scope="module")
def model() -> MdpModel:
    return MdpModel(PARAMS, SCHEDULE, max_lead=MAX_LEAD)


class TestAvailableDecisions:
    def test_every_state_offers_both_decisions_except_the_tie(self):
        for state in StateSpace(MAX_LEAD):
            decisions = available_decisions(state)
            if state == State(1, 1):
                assert decisions == (PoolDecision.OVERRIDE,)
            else:
                assert decisions == (PoolDecision.WITHHOLD, PoolDecision.OVERRIDE)

    def test_withhold_at_the_tie_rejected(self):
        with pytest.raises(StateSpaceError, match="tie-breaking"):
            decision_transitions(State(1, 1), PARAMS, PoolDecision.WITHHOLD, max_lead=MAX_LEAD)


class TestDecisionTransitions:
    def test_withhold_reproduces_the_paper_chain(self):
        for state in StateSpace(MAX_LEAD):
            if state == State(1, 1):
                continue
            chosen = decision_transitions(state, PARAMS, PoolDecision.WITHHOLD, max_lead=MAX_LEAD)
            assert chosen == list(transitions_from_state(state, PARAMS, max_lead=MAX_LEAD))

    def test_override_redirects_only_the_pool_event(self):
        for state in StateSpace(MAX_LEAD):
            base = list(transitions_from_state(state, PARAMS, max_lead=MAX_LEAD))
            chosen = decision_transitions(state, PARAMS, PoolDecision.OVERRIDE, max_lead=MAX_LEAD)
            assert len(chosen) == len(base)
            for original, redirected in zip(base, chosen):
                assert redirected.rate == original.rate
                if state != State(1, 1) and original.kind.case_number in (2, 3, 6):
                    assert redirected.target == State(0, 0)
                    assert redirected.kind is TransitionKind.POOL_EXTENDS_PRIVATE_LEAD
                else:
                    assert redirected == original

    def test_rates_sum_to_one_under_both_decisions(self):
        for state in StateSpace(MAX_LEAD):
            for decision in available_decisions(state):
                total = sum(
                    t.rate
                    for t in decision_transitions(state, PARAMS, decision, max_lead=MAX_LEAD)
                )
                assert total == pytest.approx(1.0)

    def test_policy_enumerator_follows_the_override_table(self):
        overrides = frozenset({State(0, 0).encode()})
        honest_like = policy_transitions_from_state(
            State(0, 0), PARAMS, overrides, max_lead=MAX_LEAD
        )
        assert all(t.target == State(0, 0) for t in honest_like)
        selfish_like = policy_transitions_from_state(
            State(2, 0), PARAMS, overrides, max_lead=MAX_LEAD
        )
        assert selfish_like == list(transitions_from_state(State(2, 0), PARAMS, max_lead=MAX_LEAD))

    def test_policy_enumerator_looks_decisions_up_by_class(self):
        # (4, 1) stands for every forked state at lead 3.
        overrides = frozenset({State(4, 1).encode()})
        for state in (State(4, 1), State(6, 3), State(9, 6)):
            chosen = policy_transitions_from_state(state, PARAMS, overrides, max_lead=MAX_LEAD)
            assert chosen == decision_transitions(state, PARAMS, PoolDecision.OVERRIDE, max_lead=MAX_LEAD)
        unforked = policy_transitions_from_state(State(3, 0), PARAMS, overrides, max_lead=MAX_LEAD)
        assert unforked == list(transitions_from_state(State(3, 0), PARAMS, max_lead=MAX_LEAD))

    def test_policy_enumerator_forces_the_tie_resolution(self):
        transitions = policy_transitions_from_state(
            State(1, 1), PARAMS, frozenset(), max_lead=MAX_LEAD
        )
        assert [t.kind for t in transitions] == [TransitionKind.TIE_RESOLVED]


class TestCompiledModel:
    def test_action_layout_matches_the_state_space(self, model):
        # Every state has two actions except the single-action tie state.
        assert model.num_states == len(LumpedSpace(MAX_LEAD)) == 2 * MAX_LEAD + 1
        assert model.num_actions == 2 * model.num_states - 1
        assert model.action_offsets[0] == 0
        assert model.action_offsets[-1] == model.num_actions
        assert model.edge_offsets[-1] == len(model.edges) == len(model.rates)

    def test_withholding_everywhere_is_the_lumped_chain(self, model):
        chain = LumpedChain(model.space)
        chosen = model.policy_edges(model.selfish_policy())
        assert [model.edges[k] for k in chosen] == chain.edges
        assert model.sources[chosen].tolist() == chain.sources
        assert model.targets[chosen].tolist() == chain.targets
        assert model.rates[chosen].tolist() == chain.rates(PARAMS)

    def test_transition_rows_are_distributions(self, model):
        row_sums = np.add.reduceat(model.rates, model.edge_offsets[:-1])
        assert row_sums.min() == pytest.approx(1.0)
        assert row_sums.max() == pytest.approx(1.0)

    def test_targets_are_class_representatives(self, model):
        space = model.space
        for (source, target, _), source_index, target_index in zip(
            model.edges, model.sources, model.targets
        ):
            assert space.representative(target) == target
            assert space.index_of(source) == source_index
            assert space.index_of(target) == target_index

    def test_override_reward_is_the_certain_static_block(self, model):
        index = model.space.index_of(State(5, 1))
        withhold = model.flat_index(index, PoolDecision.WITHHOLD)
        override = model.flat_index(index, PoolDecision.OVERRIDE)
        # Pool event: alpha * Ks certain either way; honest events contribute
        # the unchanged case-7/11 records.
        assert model.pool_rewards[override] == pytest.approx(model.pool_rewards[withhold])
        assert model.pool_rewards[override] >= PARAMS.alpha * SCHEDULE.static_reward
        assert model.total_rewards[override] >= model.pool_rewards[override]

    def test_expected_rewards_are_the_actions_record_sums(self, model):
        for flat in range(model.num_actions):
            edges = range(model.edge_offsets[flat], model.edge_offsets[flat + 1])
            records = [
                transition_rewards(
                    SelfishTransition(model.edges[k][0], model.edges[k][1], model.rates[k], model.edges[k][2]),
                    PARAMS,
                    SCHEDULE,
                )
                for k in edges
            ]
            rates = [model.rates[k] for k in edges]
            assert model.pool_rewards[flat] == pytest.approx(
                sum(rate * record.pool.total for rate, record in zip(rates, records)), abs=1e-15
            )
            assert model.total_rewards[flat] == pytest.approx(
                sum(rate * (record.pool.total + record.honest.total) for rate, record in zip(rates, records)),
                abs=1e-15,
            )

    def test_selfish_policy_picks_withhold_everywhere_but_the_tie(self, model):
        policy = model.selfish_policy()
        for index, flat in enumerate(policy):
            expected = (
                PoolDecision.OVERRIDE
                if model.space.state_at(index) == State(1, 1)
                else PoolDecision.WITHHOLD
            )
            assert model.decisions[flat] is expected

    def test_honest_policy_overrides_everywhere(self, model):
        for flat in model.honest_policy():
            assert model.decisions[flat] is PoolDecision.OVERRIDE

    def test_flat_index_rejects_missing_decisions(self, model):
        tie_index = model.space.index_of(State(1, 1))
        with pytest.raises(StateSpaceError, match="withhold"):
            model.flat_index(tie_index, PoolDecision.WITHHOLD)
