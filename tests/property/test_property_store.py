"""Property tests for the result store: stable keys, exact round-trips, corruption.

The store's three load-bearing claims, each pinned here over randomised inputs:

1. **Fingerprint stability** — the content address of a configuration is a pure
   function of its values: independent of dictionary key order, of the order
   fields are assembled in, and of the Python process that computes it (no
   ``PYTHONHASHSEED`` leakage — verified against a subprocess with a different
   hash seed).
2. **Cache round-trip** — loading a stored result reproduces the direct run
   bit-for-bit, for both the plain and the network result shapes.
3. **Corruption safety** — any damage to an entry's payload text reads as a
   cache miss, ``vacuum`` evicts exactly that row, and recomputation and
   re-storing restore the exact result.
"""

from __future__ import annotations

import json
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.params import MiningParams
from repro.rewards.schedule import EthereumByzantiumSchedule, FlatUncleSchedule
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_once
from repro.store import (
    SIMULATION_NAMESPACE,
    ResultStore,
    canonical_json,
    config_fingerprint,
    fingerprint_payload,
    hash_payload,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def small_configs() -> st.SearchStrategy[SimulationConfig]:
    schedules = st.sampled_from(
        [EthereumByzantiumSchedule(), FlatUncleSchedule(0.5), FlatUncleSchedule(0.25)]
    )
    return st.builds(
        SimulationConfig,
        params=st.builds(
            MiningParams,
            alpha=st.sampled_from([0.1, 0.25, 0.4]),
            gamma=st.sampled_from([0.0, 0.5, 1.0]),
        ),
        schedule=schedules,
        num_blocks=st.integers(min_value=50, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        strategy=st.sampled_from(["honest", "selfish", "lead_stubborn"]),
    )


backends = st.sampled_from(["chain", "markov", "network"])


class TestFingerprintStability:
    @given(config=small_configs(), backend=backends)
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_is_reproducible_within_the_process(self, config, backend):
        if backend == "markov" and config.strategy_name == "lead_stubborn":
            backend = "chain"  # markov has no stubborn model; the key is still defined
        assert config_fingerprint(config, backend) == config_fingerprint(config, backend)

    @given(config=small_configs())
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_is_independent_of_payload_key_order(self, config):
        payload = fingerprint_payload(config, "chain")
        reversed_payload = dict(reversed(list(payload.items())))
        assert list(payload) != list(reversed_payload)
        assert hash_payload(payload) == hash_payload(reversed_payload)

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_fingerprint_is_stable_across_process_restarts(self):
        """A subprocess with a different hash seed derives the identical key."""
        config = SimulationConfig(
            params=MiningParams(alpha=0.3, gamma=0.5),
            schedule=FlatUncleSchedule(0.5),
            num_blocks=200,
            seed=77,
            strategy="selfish",
        )
        expected = {
            backend: config_fingerprint(config, backend)
            for backend in ("chain", "markov", "network")
        }
        script = (
            "from repro.params import MiningParams\n"
            "from repro.rewards.schedule import FlatUncleSchedule\n"
            "from repro.simulation.config import SimulationConfig\n"
            "from repro.store import config_fingerprint\n"
            "import json\n"
            "config = SimulationConfig(params=MiningParams(alpha=0.3, gamma=0.5),\n"
            "    schedule=FlatUncleSchedule(0.5), num_blocks=200, seed=77, strategy='selfish')\n"
            "print(json.dumps({b: config_fingerprint(config, b)\n"
            "    for b in ('chain', 'markov', 'network')}))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "12345"},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == expected


class TestCacheRoundTrip:
    @given(config=small_configs(), backend=backends, data=st.data())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cached_result_equals_direct_run(self, tmp_path_factory, config, backend, data):
        if backend == "markov" and config.strategy_name == "lead_stubborn":
            config = config.with_strategy("selfish")
        store = ResultStore(tmp_path_factory.mktemp("store"))
        direct = run_once(config, backend=backend)
        key = store.result_key(config, backend)
        store.save_result(key, direct)
        assert store.load_results([key], [config]) == [direct]

    @given(config=small_configs(), corruption=st.sampled_from(["truncate", "garbage", "tamper", "empty"]))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path_factory, config, corruption):
        if config.strategy_name not in ("honest", "selfish"):
            config = config.with_strategy("selfish")
        store = ResultStore(tmp_path_factory.mktemp("store"))
        direct = run_once(config, backend="markov")
        key = store.result_key(config, "markov")
        store.save_result(key, direct)
        with closing(sqlite3.connect(store.path)) as connection:
            (text,) = connection.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        if corruption == "truncate":
            damaged = text[: len(text) // 2]
        elif corruption == "garbage":
            damaged = "\x00\xff this is not json"
        elif corruption == "empty":
            damaged = ""
        else:
            payload = json.loads(text)
            payload["total_blocks"] = -1.0
            damaged = json.dumps(payload)
        with closing(sqlite3.connect(store.path)) as connection, connection:
            connection.execute(
                "UPDATE entries SET payload = ? WHERE namespace = ? AND key = ?",
                (damaged, SIMULATION_NAMESPACE, key),
            )
        assert store.load_results([key], [config]) == [None]
        assert store.vacuum().removed_entries == 1
        recomputed = run_once(config, backend="markov")
        assert recomputed == direct
        store.save_result(key, recomputed)
        assert store.load_results([key], [config]) == [direct]
