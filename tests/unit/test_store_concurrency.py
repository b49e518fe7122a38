"""Concurrency tests for the result store: leases, vacuum, and a process hammer."""

from __future__ import annotations

import multiprocessing
import sqlite3
import time
from contextlib import closing

import pytest

from repro.errors import StoreLeaseError
from repro.store import Lease, ResultStore, VacuumReport
from repro.store import store as store_module


def _payload(key: str) -> dict:
    return {"value": key, "n": 1}


def _dead_pid() -> int:
    """The pid of a same-host process that has already exited."""
    dead = multiprocessing.Process(target=_exit_immediately)
    dead.start()
    dead.join()
    return dead.pid


def _set_lease(store, key, **columns) -> None:
    """Rewrite one lease row's columns, as if another holder had written it."""
    assignments = ", ".join(f"{name} = ?" for name in columns)
    with closing(sqlite3.connect(store.path)) as connection, connection:
        connection.execute(
            f"UPDATE leases SET {assignments} WHERE namespace = ? AND key = ?",
            (*columns.values(), "simulation", key),
        )


class TestLeaseProtocol:
    def test_claim_returns_lease_and_blocks_second_claimant(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.claim("simulation", "aa" * 32)
        assert isinstance(lease, Lease)
        assert store.claim("simulation", "aa" * 32) is None

    def test_release_frees_the_slot(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "bb" * 32
        lease = store.claim("simulation", key)
        assert store.release(lease) is True
        assert store.lease_state("simulation", key) == "free"
        assert store.claim("simulation", key) is not None

    def test_release_is_token_checked(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cc" * 32
        lease = store.claim("simulation", key)
        forged = Lease(
            namespace=lease.namespace,
            key=lease.key,
            token="someone-else",
            expires_at=lease.expires_at,
        )
        assert store.release(forged) is False
        assert store.lease_state("simulation", key) == "held"
        assert store.release(lease) is True

    def test_lease_state_transitions(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "dd" * 32
        assert store.lease_state("simulation", key) == "free"
        lease = store.claim("simulation", key)
        assert store.lease_state("simulation", key) == "held"
        store.release(lease)
        assert store.lease_state("simulation", key) == "free"

    def test_leases_are_per_namespace(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim("simulation", "de" * 32) is not None
        assert store.claim("policy", "de" * 32) is not None

    def test_expired_claim_is_stale_and_stolen(self, tmp_path):
        key = "ee" * 32
        holder = ResultStore(tmp_path, lease_ttl=0.05)
        assert holder.claim("simulation", key) is not None
        time.sleep(0.1)
        stealer = ResultStore(tmp_path)
        assert stealer.lease_state("simulation", key) == "stale"
        stolen = stealer.claim("simulation", key)
        assert stolen is not None
        assert stealer.lease_state("simulation", key) == "held"

    def test_dead_holder_claim_is_stale(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ff" * 32
        assert store.claim("simulation", key) is not None
        # Rewrite the lease as if a long-gone same-host process held it: the
        # pid probe, not the (far-future) expiry, must flag it stale.
        _set_lease(store, key, pid=_dead_pid(), expires_at=time.time() + 10_000)
        assert store.lease_state("simulation", key) == "stale"
        assert store.claim("simulation", key) is not None

    def test_dead_holder_on_another_host_waits_for_expiry(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "fa" * 32
        assert store.claim("simulation", key) is not None
        # A pid cannot be probed across hosts: only the expiry frees the lease.
        _set_lease(store, key, pid=_dead_pid(), host="another-host")
        assert store.lease_state("simulation", key) == "held"
        assert store.claim("simulation", key) is None
        _set_lease(store, key, expires_at=time.time() - 1)
        assert store.claim("simulation", key) is not None

    def test_only_one_of_two_stealers_wins(self, tmp_path, monkeypatch):
        """Two processes see the same stale lease; the conditional UPDATE picks one."""
        key = "fb" * 32
        holder = ResultStore(tmp_path, lease_ttl=0.05)
        assert holder.claim("simulation", key) is not None
        time.sleep(0.1)
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        original = store_module._lease_stale
        interleaved: list = []

        def stale_then_race(*holder_row):
            stale = original(*holder_row)
            if stale and not interleaved:
                # Between the second stealer's read and its UPDATE, the first
                # stealer takes the same stale lease.
                interleaved.append(None)
                interleaved.append(first.claim("simulation", key))
            return stale

        monkeypatch.setattr(store_module, "_lease_stale", stale_then_race)
        assert second.claim("simulation", key) is None
        winner = interleaved[1]
        assert winner is not None
        assert second.lease_state("simulation", key) == "held"
        assert first.release(winner) is True

    def test_release_after_steal_does_not_drop_the_stolen_claim(self, tmp_path):
        """A late release of a stolen lease returns ``False`` and drops nothing.

        Release deletes the row only while it still carries the releaser's
        token, so the stealer's live lease stays exactly where it was.
        """
        key = "ce" * 32
        holder = ResultStore(tmp_path, lease_ttl=0.05)
        lease = holder.claim("simulation", key)
        assert lease is not None
        time.sleep(0.1)
        stealer = ResultStore(tmp_path)
        stolen = stealer.claim("simulation", key)
        assert stolen is not None
        assert holder.release(lease) is False
        assert stealer.lease_state("simulation", key) == "held"
        assert stealer.release(stolen) is True
        assert stealer.lease_state("simulation", key) == "free"

    def test_release_twice_returns_false(self, tmp_path):
        store = ResultStore(tmp_path)
        lease = store.claim("simulation", "cf" * 32)
        assert store.release(lease) is True
        assert store.release(lease) is False

    def test_claim_retries_when_the_holder_releases_mid_claim(self, tmp_path, monkeypatch):
        """The holder releases between our failed insert and our read: we win."""
        key = "cd" * 32
        holder = ResultStore(tmp_path)
        held = holder.claim("simulation", key)
        store = ResultStore(tmp_path)
        connection = store._db()

        class ReleaseAfterFailedInsert:
            def execute(self, sql, parameters=()):
                cursor = connection.execute(sql, parameters)
                if sql.startswith("INSERT OR IGNORE") and cursor.rowcount == 0:
                    holder.release(held)
                return cursor

        monkeypatch.setattr(store, "_db", ReleaseAfterFailedInsert)
        lease = store.claim("simulation", key)
        monkeypatch.undo()
        assert lease is not None
        assert store.lease_state("simulation", key) == "held"
        assert store.release(lease) is True

    def test_lease_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(StoreLeaseError):
            ResultStore(tmp_path, lease_ttl=0)


class TestVacuum:
    def test_empty_store_vacuums_clean(self, tmp_path):
        report = ResultStore(tmp_path).vacuum()
        assert report == VacuumReport(removed_entries=0, removed_leases=0)
        assert report.total == 0

    def test_sweeps_stale_leases_keeps_live_ones(self, tmp_path):
        key_live, key_stale = "ab" * 32, "cd" * 32
        store = ResultStore(tmp_path)
        live = store.claim("simulation", key_live)
        expiring = ResultStore(tmp_path, lease_ttl=0.05)
        assert expiring.claim("simulation", key_stale) is not None
        time.sleep(0.1)
        report = store.vacuum()
        assert report.removed_leases == 1
        assert store.lease_state("simulation", key_live) == "held"
        assert store.lease_state("simulation", key_stale) == "free"
        store.release(live)

    def test_sweeps_invalid_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = "ee" * 32, "ff" * 32
        store.put("simulation", good, _payload(good))
        store.put("simulation", bad, _payload(bad))
        _truncate_payload(store, "simulation", bad)
        report = store.vacuum()
        assert report.removed_entries == 1
        assert store.stats().entries == {"simulation": 1}
        assert store.get("simulation", good) == _payload(good)

    def test_racing_remover_is_not_counted(self, tmp_path, monkeypatch):
        """A row a concurrent process removes first is not this pass's removal."""
        store = ResultStore(tmp_path)
        bad = "fe" * 32
        store.put("simulation", bad, _payload(bad))
        _truncate_payload(store, "simulation", bad)
        original = store_module._row_valid

        def racing_check(checksum, text):
            valid = original(checksum, text)
            if not valid:  # a concurrent vacuum deletes the row first
                with closing(sqlite3.connect(store.path)) as connection, connection:
                    connection.execute("DELETE FROM entries WHERE key = ?", (bad,))
            return valid

        monkeypatch.setattr(store_module, "_row_valid", racing_check)
        report = store.vacuum()
        assert report.removed_entries == 0
        assert store.stats().entries == {}

    def test_rewritten_row_survives_a_racing_vacuum(self, tmp_path, monkeypatch):
        """A row rewritten between vacuum's scan and its delete is kept."""
        store = ResultStore(tmp_path)
        key = "fd" * 32
        store.put("simulation", key, _payload(key))
        _truncate_payload(store, "simulation", key)
        original = store_module._row_valid

        def racing_check(checksum, text):
            valid = original(checksum, text)
            if not valid:  # a concurrent writer re-derives the entry first
                ResultStore(tmp_path).put("simulation", key, _payload(key))
            return valid

        monkeypatch.setattr(store_module, "_row_valid", racing_check)
        assert store.vacuum().removed_entries == 0
        monkeypatch.undo()
        assert store.get("simulation", key) == _payload(key)

    def test_namespace_filter(self, tmp_path):
        store = ResultStore(tmp_path)
        for namespace in ("simulation", "policy"):
            store.put(namespace, "aa" * 32, _payload("aa"))
            _truncate_payload(store, namespace, "aa" * 32)
        report = store.vacuum("policy")
        assert report.removed_entries == 1
        assert store.stats().entries == {"simulation": 1}


def _truncate_payload(store, namespace, key) -> None:
    with closing(sqlite3.connect(store.path)) as connection, connection:
        connection.execute(
            "UPDATE entries SET payload = substr(payload, 1, length(payload) / 2) "
            "WHERE namespace = ? AND key = ?",
            (namespace, key),
        )


# ---------------------------------------------------------------------------
# Multi-process hammer
# ---------------------------------------------------------------------------

_HAMMER_KEYS = [format(index, "02x") * 32 for index in range(6)]


def _exit_immediately():
    pass


def _hammer_worker(root: str, worker_seed: int, barrier) -> None:
    """Race put/get/vacuum against siblings; any inconsistency raises (exit != 0)."""
    store = ResultStore(root)
    barrier.wait()
    for round_number in range(25):
        key = _HAMMER_KEYS[(worker_seed + round_number) % len(_HAMMER_KEYS)]
        store.put("simulation", key, _payload(key))
        loaded = store.get("simulation", key)
        if loaded is not None and loaded != _payload(key):
            raise AssertionError(f"corrupted read for {key}: {loaded!r}")
        if round_number % 5 == worker_seed % 5:
            store.vacuum("simulation")


def _lease_worker(root: str, log_path: str, barrier) -> None:
    """Claim-compute-release every key once; log each key actually computed."""
    store = ResultStore(root)
    barrier.wait()
    for key in _HAMMER_KEYS:
        lease = store.claim("simulation", key)
        if lease is None:
            continue  # someone else is computing this key right now
        try:
            if store.get("simulation", key) is None:
                with open(log_path, "a") as handle:  # O_APPEND: atomic small writes
                    handle.write(f"{key}\n")
                store.put("simulation", key, _payload(key))
        finally:
            store.release(lease)


def _exclusive_worker(root: str, log_path: str, barrier) -> None:
    """Claim one contended key repeatedly; log each hold as a time interval."""
    store = ResultStore(root)
    barrier.wait()
    held = 0
    while held < 15:
        lease = store.claim("simulation", "ee" * 32)
        if lease is None:
            continue
        start = time.monotonic()
        time.sleep(0.002)
        end = time.monotonic()
        assert store.release(lease) is True
        with open(log_path, "a") as handle:  # O_APPEND: atomic small writes
            handle.write(f"{start} {end}\n")
        held += 1


class TestProcessHammer:
    def test_contended_claims_never_overlap(self, tmp_path):
        """Rows make a claim atomic: no two processes ever hold one key at once."""
        log_path = tmp_path / "holds.log"
        log_path.touch()
        context = multiprocessing.get_context()
        barrier = context.Barrier(3)
        processes = [
            context.Process(
                target=_exclusive_worker, args=(str(tmp_path / "store"), str(log_path), barrier)
            )
            for _ in range(3)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(process.exitcode == 0 for process in processes)
        holds = sorted(
            tuple(float(value) for value in line.split())
            for line in log_path.read_text().splitlines()
        )
        assert len(holds) == 45
        for (_, first_end), (second_start, _) in zip(holds, holds[1:]):
            assert first_end <= second_start


    def test_concurrent_put_get_vacuum_never_corrupts(self, tmp_path):
        context = multiprocessing.get_context()
        barrier = context.Barrier(3)
        processes = [
            context.Process(target=_hammer_worker, args=(str(tmp_path), seed, barrier))
            for seed in range(3)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(process.exitcode == 0 for process in processes)
        store = ResultStore(tmp_path)
        # Every key was written by at least one process with the same bits;
        # no valid entry may be lost or corrupted by the concurrent traffic.
        for key in _HAMMER_KEYS:
            assert store.get("simulation", key) == _payload(key)

    def test_lease_path_prevents_duplicate_computation(self, tmp_path):
        root = tmp_path / "store"
        log_path = tmp_path / "computed.log"
        log_path.touch()
        context = multiprocessing.get_context()
        barrier = context.Barrier(3)
        processes = [
            context.Process(
                target=_lease_worker, args=(str(root), str(log_path), barrier)
            )
            for _ in range(3)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(process.exitcode == 0 for process in processes)
        computed = log_path.read_text().split()
        # Zero duplicated simulations: each key computed at most once across
        # all processes (losers either saw a held claim or a settled entry).
        assert len(computed) == len(set(computed))
        store = ResultStore(root)
        for key in computed:
            assert store.get("simulation", key) == _payload(key)
