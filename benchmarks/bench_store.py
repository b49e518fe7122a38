"""Benchmarks of the result store: warm batched reads and the lease write cycle.

Every settled run lives as one checksummed row of the cache directory's
sqlite database (:mod:`repro.store.store`).  These benchmarks time the two
store paths a sweep actually takes, on a synthetic entry set:

* ``read``: a warm ``get_many`` over every entry — one ``SELECT`` per few
  hundred keys, a checksum and a JSON parse per row (the warm-sweep path; a
  warmup round absorbs opening the connection);
* ``write_cycle``: for each entry, claim its lease, check it is missing,
  persist it and release the lease — the per-run store traffic of a cold
  sweep, into a fresh database each round.

Entry counts honour ``REPRO_BENCH_SCALE`` like the rest of the suite (10 000
entries at full scale, never fewer than 1 000 so the per-call costs dominate
the connection set-up).  Throughput is reported through
``extra_info["entries"]`` as entries/s, the store equivalent of the simulator
benchmarks' blocks/s.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from repro.store import SIMULATION_NAMESPACE, ResultStore

#: Scale multiplier for the entry counts (CI smoke runs use < 1).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled_entries(entries: int) -> int:
    """``entries`` scaled by ``REPRO_BENCH_SCALE`` (at least 1000)."""
    return max(1000, int(entries * BENCH_SCALE))


def _bench_key(index: int) -> str:
    return hashlib.sha256(f"bench-store-{index}".encode()).hexdigest()


def _bench_payload(index: int) -> dict:
    # Shaped like a small simulation payload: a few nested fields and floats,
    # so the checksum validation hashes a realistic amount of JSON.
    return {
        "kind": "simulation",
        "index": index,
        "rewards": {"static": 123.0 + index, "uncle": 0.875, "nephew": 0.03125},
        "blocks": {"regular": 9000 + index, "uncle": 600, "stale": 40},
        "counts": {str(distance): distance * 0.5 for distance in range(1, 7)},
    }


def test_store_read_benchmark(benchmark):
    """Warm batched read: ``get_many`` over every entry of the database."""
    num_entries = scaled_entries(10_000)
    benchmark.extra_info["entries"] = num_entries
    root = tempfile.mkdtemp(prefix="bench-store-read-")
    store = ResultStore(root)
    keys = [_bench_key(index) for index in range(num_entries)]
    for index, key in enumerate(keys):
        store.put(SIMULATION_NAMESPACE, key, _bench_payload(index))

    def read():
        found = store.get_many(SIMULATION_NAMESPACE, keys)
        assert len(found) == num_entries
        return found

    try:
        benchmark.pedantic(read, rounds=3, iterations=1, warmup_rounds=1)
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)


def test_store_write_cycle_benchmark(benchmark):
    """Claim, miss-check, put and release every entry into a fresh database."""
    num_entries = scaled_entries(10_000)
    benchmark.extra_info["entries"] = num_entries
    keys = [_bench_key(index) for index in range(num_entries)]
    payloads = [_bench_payload(index) for index in range(num_entries)]
    roots: list[str] = []

    def fresh_store():
        roots.append(tempfile.mkdtemp(prefix="bench-store-write-"))
        return (ResultStore(roots[-1]),), {}

    def write_cycle(store):
        for key, payload in zip(keys, payloads):
            lease = store.claim(SIMULATION_NAMESPACE, key)
            assert lease is not None
            assert store.get(SIMULATION_NAMESPACE, key) is None
            store.put(SIMULATION_NAMESPACE, key, payload)
            store.release(lease)
        store.close()

    try:
        benchmark.pedantic(write_cycle, setup=fresh_store, rounds=3, iterations=1)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
