"""Unit tests for the compiled transition tables."""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis.reward_cases import REWARD_COMPONENTS, transition_rewards
from repro.markov.state import State, decode_state
from repro.markov.transitions import transitions_from_state
from repro.mdp.model import policy_transitions_from_state
from repro.params import MiningParams
from repro.rewards.schedule import BitcoinSchedule, EthereumByzantiumSchedule
from repro.simulation.rng import RandomSource
from repro.simulation import tables as tables_module
from repro.simulation.tables import CompiledTransitionTables

PARAMS = MiningParams(alpha=0.35, gamma=0.5)
MAX_LEAD = 10**9


def make_tables(params=PARAMS, schedule=None) -> CompiledTransitionTables:
    return CompiledTransitionTables(params, schedule or EthereumByzantiumSchedule(), max_lead=MAX_LEAD)


class TestCompilation:
    def test_rows_compile_lazily(self):
        tables = make_tables()
        assert tables.num_states == 0
        tables.row_for(State(0, 0))
        assert tables.num_states == 1
        assert tables.num_transitions == 2  # cases 1 and 2 leave (0,0)
        tables.row_for(State(0, 0))
        assert tables.num_states == 1  # memoised

    def test_thresholds_are_the_scalar_partial_sums(self):
        tables = make_tables()
        for state in (State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(5, 2)):
            row = tables.row_for(state)
            transitions = list(transitions_from_state(state, PARAMS, max_lead=MAX_LEAD))
            cumulative = 0.0
            expected = []
            for transition in transitions:
                cumulative += transition.rate
                expected.append(cumulative)
            assert list(row[0]) == expected
            assert row[0][-1] == pytest.approx(1.0)

    def test_reward_matrix_rows_match_transition_rewards(self):
        tables = make_tables()
        for state in (State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(4, 1)):
            tables.row_for(state)
        matrix = tables.reward_matrix()
        assert matrix.shape == (tables.num_transitions, len(REWARD_COMPONENTS))
        schedule = EthereumByzantiumSchedule()
        for index in range(tables.num_transitions):
            transition = tables.transition_at(index)
            record = transition_rewards(transition, PARAMS, schedule)
            assert tuple(matrix[index]) == record.component_vector()


def count_transition_rewards(monkeypatch) -> list[int]:
    """Count the calls the tables module makes to ``transition_rewards``."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return transition_rewards(*args, **kwargs)

    monkeypatch.setattr(tables_module, "transition_rewards", counted)
    return calls


class TestClassReuse:
    """The paper's chain computes each (lead, forked) class's reward rows once."""

    def test_walked_rows_equal_fresh_records(self):
        tables = make_tables(MiningParams(alpha=0.42, gamma=0.3))
        tables.walk(State(0, 0), 20_000, RandomSource(4))
        classes = {(decode_state(code).lead, decode_state(code).public == 0) for code in tables._rows}
        assert tables.num_states > len(classes)  # some class was reused
        matrix = tables.reward_matrix()
        schedule = EthereumByzantiumSchedule()
        for index in range(tables.num_transitions):
            record = transition_rewards(tables.transition_at(index), tables.params, schedule)
            assert tuple(matrix[index]) == record.component_vector()
            assert tables._distance_rows[index] == record.distance_contributions()

    def test_one_reward_record_per_visited_class(self, monkeypatch):
        calls = count_transition_rewards(monkeypatch)
        tables = make_tables(MiningParams(alpha=0.42, gamma=0.3))
        tables.walk(State(0, 0), 20_000, RandomSource(4))
        states = [decode_state(code) for code in tables._rows]
        representatives = {(state.lead, state.public == 0): state for state in states}
        per_class = sum(
            len(list(transitions_from_state(state, tables.params, max_lead=MAX_LEAD)))
            for state in representatives.values()
        )
        assert calls[0] == per_class
        assert calls[0] < tables.num_transitions

    def test_optimal_policy_enumerators_share_class_rows(self, monkeypatch):
        """An optimal policy decides by class, so its chain's rows are per class too,
        and equal the fresh record of every walked transition value for value."""
        calls = count_transition_rewards(monkeypatch)
        params = MiningParams(alpha=0.42, gamma=0.3)
        policy = partial(
            policy_transitions_from_state,
            params=params,
            override_codes=frozenset({State(3, 1).encode(), State(4, 0).encode()}),
            max_lead=MAX_LEAD,
        )
        tables = CompiledTransitionTables(
            params, EthereumByzantiumSchedule(), max_lead=MAX_LEAD, transitions=policy
        )
        tables.walk(State(0, 0), 20_000, RandomSource(4))
        assert calls[0] == sum(len(rows[0]) for rows in tables._class_rows.values())
        assert calls[0] < tables.num_transitions
        matrix = tables.reward_matrix()
        schedule = EthereumByzantiumSchedule()
        for index in range(tables.num_transitions):
            record = transition_rewards(tables.transition_at(index), params, schedule)
            assert tuple(matrix[index]) == record.component_vector()
            assert tables._distance_rows[index] == record.distance_contributions()


class TestWalk:
    def test_counts_sum_to_steps_and_final_state_is_reachable(self):
        tables = make_tables()
        counts, final_state = tables.walk(State(0, 0), 5_000, RandomSource(3))
        assert sum(counts) == 5_000
        assert final_state.is_valid()

    def test_trace_records_every_target(self):
        tables = make_tables()
        trace: list[int] = []
        _, final_state = tables.walk(State(0, 0), 250, RandomSource(9), trace=trace)
        assert len(trace) == 250
        assert decode_state(trace[-1]) == final_state
        assert all(decode_state(code).is_valid() for code in trace)

    def test_walk_matches_scalar_sampling(self):
        """The compiled walk visits exactly the transitions the scalar sampler picks."""
        tables = make_tables()
        trace: list[int] = []
        counts, _ = tables.walk(State(0, 0), 2_000, RandomSource(7), trace=trace)

        rng = RandomSource(7)
        state = State(0, 0)
        expected_trace = []
        expected_counts: dict[tuple[int, int, int], int] = {}
        for _ in range(2_000):
            transitions = list(transitions_from_state(state, PARAMS, max_lead=MAX_LEAD))
            draw = rng.uniform()
            cumulative = 0.0
            chosen = transitions[-1]
            for transition in transitions:
                cumulative += transition.rate
                if draw < cumulative:
                    chosen = transition
                    break
            key = chosen.encode()
            expected_counts[key] = expected_counts.get(key, 0) + 1
            state = chosen.target
            expected_trace.append(state.encode())
        assert trace == expected_trace
        got_counts = {
            tables.transition_at(index).encode(): count
            for index, count in enumerate(counts)
            if count
        }
        assert got_counts == expected_counts


class TestSettlement:
    def test_settle_matches_manual_accumulation(self):
        tables = make_tables()
        counts, _ = tables.walk(State(0, 0), 3_000, RandomSource(11))
        settlement = tables.settle(counts)
        schedule = EthereumByzantiumSchedule()
        pool_static = sum(
            count * transition_rewards(tables.transition_at(i), PARAMS, schedule).pool.static
            for i, count in enumerate(counts)
        )
        regular = sum(
            count * transition_rewards(tables.transition_at(i), PARAMS, schedule).regular_probability
            for i, count in enumerate(counts)
        )
        assert settlement.pool.static == pytest.approx(pool_static, rel=1e-12)
        assert settlement.regular_blocks == pytest.approx(regular, rel=1e-12)
        total = settlement.regular_blocks + settlement.uncle_blocks + settlement.stale_blocks
        assert total == pytest.approx(3_000, rel=1e-9)

    def test_distance_histograms_only_hold_visited_distances(self):
        tables = make_tables()
        counts, _ = tables.walk(State(0, 0), 3_000, RandomSource(2))
        settlement = tables.settle(counts)
        assert all(value > 0.0 for value in settlement.honest_uncle_distance_counts.values())
        assert all(value > 0.0 for value in settlement.pool_uncle_distance_counts.values())
        assert list(settlement.honest_uncle_distance_counts) == sorted(
            settlement.honest_uncle_distance_counts
        )

    def test_bitcoin_schedule_settles_without_uncles(self):
        tables = make_tables(schedule=BitcoinSchedule())
        counts, _ = tables.walk(State(0, 0), 2_000, RandomSource(5))
        settlement = tables.settle(counts)
        assert settlement.pool.uncle == 0.0
        assert settlement.honest.nephew == 0.0
        assert settlement.uncle_blocks == 0.0

    def test_describe_mentions_sizes(self):
        tables = make_tables()
        tables.row_for(State(0, 0))
        description = tables.describe()
        assert "states=1" in description
        assert "transitions=2" in description


class TestEncodingHooks:
    def test_state_codes_round_trip(self):
        for state in (State(0, 0), State(1, 0), State(1, 1), State(2, 0), State(7, 3), State(40, 0)):
            assert decode_state(state.encode()) == state

    def test_invalid_state_has_no_code(self):
        from repro.errors import StateSpaceError

        with pytest.raises(StateSpaceError):
            State(2, 1).encode()
        with pytest.raises(StateSpaceError):
            decode_state(-1)

    def test_transition_encode_triple(self):
        (first, second) = transitions_from_state(State(0, 0), PARAMS, max_lead=MAX_LEAD)
        assert first.encode() == (0, 0, 1)
        assert second.encode() == (0, 1, 2)
