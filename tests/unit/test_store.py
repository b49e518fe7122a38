"""Unit tests for the persistent result store."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sqlite3
from contextlib import closing

import pytest

from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_once
from repro.store import (
    POLICY_NAMESPACE,
    SIMULATION_NAMESPACE,
    ResultStore,
    canonical_json,
    config_fingerprint,
    fingerprint_payload,
    hash_payload,
    result_from_payload,
    result_payload,
)

CONFIG = SimulationConfig(params=MiningParams(alpha=0.3, gamma=0.5), num_blocks=600, seed=11)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def tamper(store, namespace, key, payload_text):
    """Overwrite one row's payload text without updating its checksum."""
    with closing(sqlite3.connect(store.path)) as connection, connection:
        connection.execute(
            "UPDATE entries SET payload = ? WHERE namespace = ? AND key = ?",
            (payload_text, namespace, key),
        )


class TestRawEntries:
    def test_put_get_round_trip(self, store):
        payload = {"value": 1.25, "list": [1, 2, 3]}
        store.put("things", "a" * 64, payload)
        assert store.get("things", "a" * 64) == payload

    def test_missing_entry_is_none(self, store):
        assert store.get("things", "b" * 64) is None
        assert not store.contains("things", "b" * 64)

    def test_one_database_file_per_root(self, store):
        store.put("things", "a" * 64, {})
        store.put("other", "b" * 64, {})
        assert store.path == store.root / "store.sqlite"
        assert {path.name for path in store.root.iterdir()} <= {
            "store.sqlite",
            "store.sqlite-wal",
            "store.sqlite-shm",
        }

    def test_stats_count_entries_per_namespace(self, store):
        store.put("things", "a" * 64, {})
        store.put("things", "b" * 64, {})
        store.put("other", "c" * 64, {})
        stats = store.stats()
        assert stats.entries == {"other": 1, "things": 2}
        assert stats.database_bytes > 0
        assert store.stats("things").entries == {"things": 2}
        assert store.stats("absent").entries == {}

    def test_get_many_and_contains_many_report_only_valid_hits(self, store):
        keys = [format(index, "02x") * 32 for index in range(5)]
        for index, key in enumerate(keys):
            store.put("things", key, {"index": index})
        tamper(store, "things", keys[0], '{"index": 99}')
        asked = keys + ["f" * 64]
        assert store.get_many("things", asked) == {
            key: {"index": index} for index, key in enumerate(keys) if index
        }
        assert store.contains_many("things", asked) == set(keys[1:])

    def test_empty_key_list_reads_nothing(self, store):
        store.put("things", "a" * 64, {})
        assert store.get_many("things", []) == {}
        assert store.contains_many("things", []) == set()

    def test_row_checksum_is_the_payload_hash(self, store):
        payload = {"b": [1.5, 2], "a": {"nested": True}}
        store.put("things", "a" * 64, payload)
        with closing(sqlite3.connect(store.path)) as connection:
            checksum, text = connection.execute(
                "SELECT checksum, payload FROM entries"
            ).fetchone()
        assert text == canonical_json(payload)
        assert checksum == hash_payload(payload)

    def test_database_runs_in_wal_mode_with_normal_sync(self, store):
        store.put("things", "a" * 64, {})
        connection = store._db()
        assert connection.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert connection.execute("PRAGMA synchronous").fetchone() == (1,)  # NORMAL

    def test_unqueryable_database_reads_as_miss(self, store):
        store.put("things", "a" * 64, {"x": 1})
        with closing(sqlite3.connect(store.path)) as connection:
            connection.execute("DROP TABLE entries")
        assert store.get("things", "a" * 64) is None
        assert store.get_many("things", ["a" * 64]) == {}

    def test_batched_reads_span_select_chunks(self, store):
        keys = [f"{index:064x}" for index in range(1_000)]
        for index, key in enumerate(keys):
            store.put("things", key, {"index": index})
        found = store.get_many("things", keys)
        assert len(found) == 1_000 and found[keys[-1]] == {"index": 999}

    def test_corrupted_payload_reads_as_miss(self, store):
        key = "c" * 64
        store.put("things", key, {"x": 1})
        tamper(store, "things", key, "{not json")
        assert store.get("things", key) is None
        assert not store.contains("things", key)

    def test_checksum_mismatch_reads_as_miss(self, store):
        key = "d" * 64
        store.put("things", key, {"x": 1})
        tamper(store, "things", key, '{"x":2}')
        assert store.get("things", key) is None

    def test_rewrite_replaces_a_corrupt_row(self, store):
        key = "e" * 64
        store.put("things", key, {"x": 1})
        tamper(store, "things", key, '{"x":')
        store.put("things", key, {"x": 1})
        assert store.get("things", key) == {"x": 1}


class TestUnreadableDatabase:
    def test_garbage_database_is_moved_aside_and_reads_as_miss(self, tmp_path):
        root = tmp_path / "cache"
        writer = ResultStore(root)
        writer.put("things", "a" * 64, {"x": 1})
        writer.close()
        (root / "store.sqlite").write_bytes(b"this is not an sqlite database" * 100)
        store = ResultStore(root)
        assert store.get("things", "a" * 64) is None
        aside = root / f"store.sqlite.corrupt-{os.getpid()}"
        assert aside.read_bytes().startswith(b"this is not")
        # The fresh database is fully usable.
        store.put("things", "a" * 64, {"x": 2})
        assert store.get("things", "a" * 64) == {"x": 2}

    def test_damaged_database_behind_a_valid_header_is_moved_aside(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "store.sqlite").write_bytes(b"SQLite format 3\x00" + b"\xff" * 4096)
        store = ResultStore(root)
        assert store.get("things", "a" * 64) is None
        assert (root / f"store.sqlite.corrupt-{os.getpid()}").exists()
        store.put("things", "a" * 64, {"x": 1})
        assert store.get("things", "a" * 64) == {"x": 1}

    def test_empty_database_file_is_a_fresh_store(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "store.sqlite").write_bytes(b"")
        store = ResultStore(root)
        assert store.get("things", "a" * 64) is None
        store.put("things", "a" * 64, {"x": 1})
        assert store.get("things", "a" * 64) == {"x": 1}
        assert not list(root.glob("*.corrupt-*"))


class TestProcessLocalConnection:
    def test_store_pickles_without_its_connection(self, store):
        store.put("things", "a" * 64, {"x": 1})
        assert store.get("things", "a" * 64) == {"x": 1}  # opens a connection
        clone = pickle.loads(pickle.dumps(store))
        assert clone._connection is None
        assert clone.get("things", "a" * 64) == {"x": 1}

    def test_close_then_reuse(self, store):
        store.put("things", "a" * 64, {"x": 1})
        store.close()
        assert store.get("things", "a" * 64) == {"x": 1}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_uses_its_own_connection(self, store):
        """The parent's connection crosses fork, yet the child never uses it.

        Pool workers read and write the ``policy`` namespace through a store
        inherited across ``fork``; the child must open its own connection, and
        both sides must see each other's rows afterwards.
        """
        store.put(POLICY_NAMESPACE, "a" * 64, {"from": "parent"})
        parent_connection = store._connection
        assert parent_connection is not None
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_child_round_trip, args=(store,))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert store._connection is parent_connection
        assert store.get(POLICY_NAMESPACE, "b" * 64) == {"from": "child"}
        assert store.get(POLICY_NAMESPACE, "a" * 64) == {"from": "parent"}
        store.put(POLICY_NAMESPACE, "c" * 64, {"from": "parent again"})
        assert store.get(POLICY_NAMESPACE, "c" * 64) == {"from": "parent again"}


def _child_round_trip(store) -> None:
    inherited = store._connection
    assert store.get(POLICY_NAMESPACE, "a" * 64) == {"from": "parent"}
    assert store._connection is not inherited, "child reused the parent's connection"
    store.put(POLICY_NAMESPACE, "b" * 64, {"from": "child"})
    assert store.get(POLICY_NAMESPACE, "b" * 64) == {"from": "child"}


class TestFingerprints:
    def test_fingerprint_is_hex_digest(self):
        key = config_fingerprint(CONFIG, "chain")
        assert len(key) == 64
        int(key, 16)

    def test_fingerprint_differs_across_backends_and_params(self):
        keys = {
            config_fingerprint(CONFIG, "chain"),
            config_fingerprint(CONFIG, "markov"),
            config_fingerprint(CONFIG, "network"),
            config_fingerprint(CONFIG.with_seed(12), "chain"),
            config_fingerprint(CONFIG.with_strategy("honest"), "chain"),
            config_fingerprint(
                CONFIG.with_params(MiningParams(alpha=0.31, gamma=0.5)), "chain"
            ),
        }
        assert len(keys) == 6

    def test_fingerprint_ignores_validate_chain(self):
        from dataclasses import replace

        relaxed = replace(CONFIG, validate_chain=False)
        assert config_fingerprint(relaxed, "chain") == config_fingerprint(CONFIG, "chain")

    def test_schedule_fingerprinted_by_value_not_identity(self):
        first = SimulationConfig(
            params=CONFIG.params, schedule=FlatUncleSchedule(0.5), num_blocks=600, seed=11
        )
        second = SimulationConfig(
            params=CONFIG.params, schedule=FlatUncleSchedule(0.5), num_blocks=600, seed=11
        )
        different = SimulationConfig(
            params=CONFIG.params, schedule=FlatUncleSchedule(0.25), num_blocks=600, seed=11
        )
        assert config_fingerprint(first, "chain") == config_fingerprint(second, "chain")
        assert config_fingerprint(first, "chain") != config_fingerprint(different, "chain")

    def test_network_fingerprint_resolves_the_derived_topology(self):
        """Spelling the derived single-pool topology out explicitly hits the same entry."""
        from repro.network.topology import build_topology

        explicit = CONFIG.with_topology(build_topology(CONFIG))
        assert config_fingerprint(explicit, "network") == config_fingerprint(CONFIG, "network")

    def test_payload_lists_the_documented_components(self):
        payload = fingerprint_payload(CONFIG, "chain")
        for key in ("version", "backend", "alpha", "gamma", "schedule", "seed", "strategy"):
            assert key in payload


class TestResultRoundTrip:
    def test_simulation_result_round_trips_bit_exactly(self, store):
        result = run_once(CONFIG, backend="chain")
        key = store.result_key(CONFIG, "chain")
        store.save_result(key, result)
        assert store.load_results([key], [CONFIG]) == [result]

    def test_network_result_round_trips_with_miners(self, store):
        result = run_once(CONFIG, backend="network")
        key = store.result_key(CONFIG, "network")
        store.save_result(key, result)
        (loaded,) = store.load_results([key], [CONFIG])
        assert loaded == result
        assert loaded.miners == result.miners
        assert loaded.effective_gamma == result.effective_gamma

    def test_load_results_aligns_hits_and_misses(self, store):
        result = run_once(CONFIG, backend="markov")
        other = CONFIG.with_seed(99)
        keys = [store.result_key(CONFIG, "markov"), store.result_key(other, "markov")]
        store.save_result(keys[0], result)
        assert store.load_results(keys, [CONFIG, other]) == [result, None]

    def test_load_returns_none_for_unknown_config(self, store):
        key = store.result_key(CONFIG, "chain")
        assert store.load_results([key], [CONFIG]) == [None]

    def test_result_key_is_the_config_fingerprint(self, store):
        assert store.result_key(CONFIG, "chain") == config_fingerprint(CONFIG, "chain")

    def test_incompatible_payload_reads_as_miss(self, store):
        key = store.result_key(CONFIG, "markov")
        store.put(SIMULATION_NAMESPACE, key, {"kind": "simulation"})  # fields missing
        assert store.load_results([key], [CONFIG]) == [None]

    def test_unknown_payload_kind_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            result_from_payload({"kind": "exotic"}, CONFIG)

    def test_payload_has_no_config(self):
        result = run_once(CONFIG, backend="markov")
        payload = result_payload(result)
        assert "config" not in payload
        assert payload["kind"] == "simulation"

    def test_namespaces_are_disjoint(self, store):
        store.put(SIMULATION_NAMESPACE, "a" * 64, {"x": 1})
        assert store.get(POLICY_NAMESPACE, "a" * 64) is None


class TestPolicyStoreLevel:
    def test_disk_level_round_trip_after_memory_clear(self, store):
        from repro.mdp.solver import clear_policy_cache, solve_optimal_policy

        params = MiningParams(alpha=0.35, gamma=0.5)
        first = solve_optimal_policy(params, max_lead=8, store=store)
        assert store.stats(POLICY_NAMESPACE).entries == {POLICY_NAMESPACE: 1}
        clear_policy_cache()
        second = solve_optimal_policy(params, max_lead=8, store=store)
        assert second == first

    def test_process_wide_store_configuration(self, store):
        from repro.mdp.solver import clear_policy_cache, set_policy_store, solve_optimal_policy

        params = MiningParams(alpha=0.4, gamma=0.5)
        try:
            set_policy_store(store)
            solve_optimal_policy(params, max_lead=8)
            clear_policy_cache()
            again = solve_optimal_policy(params, max_lead=8)
        finally:
            set_policy_store(None)
        fresh = solve_optimal_policy(params, max_lead=8)
        assert again == fresh

    def test_corrupted_policy_entry_recomputed(self, store):
        from repro.mdp.solver import clear_policy_cache, solve_optimal_policy

        params = MiningParams(alpha=0.35, gamma=0.5)
        first = solve_optimal_policy(params, max_lead=8, store=store)
        with closing(sqlite3.connect(store.path)) as connection, connection:
            connection.execute(
                "UPDATE entries SET payload = 'garbage' WHERE namespace = ?",
                (POLICY_NAMESPACE,),
            )
        clear_policy_cache()
        second = solve_optimal_policy(params, max_lead=8, store=store)
        assert second == first

    def test_policy_stored_on_the_unlumped_space_reads_as_a_miss(self, store):
        from repro.mdp.solver import (
            _policy_payload,
            _policy_store_key,
            clear_policy_cache,
            solve_optimal_policy,
        )

        params = MiningParams(alpha=0.35, gamma=0.5)
        schedule = EthereumByzantiumSchedule()
        clear_policy_cache()
        lumped = solve_optimal_policy(params, max_lead=8)
        # An (Ls, Lh) solve at max_lead 8 decided 31 states, not 2 * 8 + 1.
        old_shape = _policy_payload(lumped)
        old_shape["decisions"] = ["withhold", "withhold", "override"] + ["withhold"] * 28
        key = _policy_store_key(params, schedule, 8)
        store.put(POLICY_NAMESPACE, key, old_shape)
        clear_policy_cache()
        fresh = solve_optimal_policy(params, max_lead=8, store=store)
        assert fresh == lumped
        assert len(fresh.decisions) == 17
        # The fresh solve replaced the old-shape row.
        assert store.get(POLICY_NAMESPACE, key) == _policy_payload(lumped)

    def test_policy_stored_by_the_value_iteration_solver_reads_as_a_miss(self, store):
        from repro.mdp.solver import (
            _policy_payload,
            _policy_store_key,
            clear_policy_cache,
            solve_optimal_policy,
        )

        params = MiningParams(alpha=0.35, gamma=0.5)
        schedule = EthereumByzantiumSchedule()
        clear_policy_cache()
        solved = solve_optimal_policy(params, max_lead=8)
        # The value-iteration solver also stored its sweep count.  The shares are
        # altered too, so a served row would not equal the fresh solve.
        old_shape = _policy_payload(solved)
        old_shape["shares"] = [0.5]
        old_shape["rvi_iterations"] = 412
        key = _policy_store_key(params, schedule, 8)
        store.put(POLICY_NAMESPACE, key, old_shape)
        clear_policy_cache()
        fresh = solve_optimal_policy(params, max_lead=8, store=store)
        assert fresh == solved
        # The fresh solve replaced the old-shape row.
        assert store.get(POLICY_NAMESPACE, key) == _policy_payload(solved)
