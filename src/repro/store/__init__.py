"""Persistent result store: content-addressed caching for every expensive solve.

The paper's evaluation is a family of parameter sweeps, and before this package
existed each layer cached its own work its own way — the MDP solver in an
in-memory dict, the experiment drivers not at all, the benchmarks in ad-hoc
JSON.  :class:`ResultStore` unifies them behind one on-disk content-addressed
store:

* **simulation runs** are keyed by a stable fingerprint of
  ``(configuration, backend, seed)`` (:mod:`repro.store.fingerprint`), so
  :func:`repro.simulation.runner.execute_runs` (behind ``run_many`` and the
  scenario sweep engine) executes only the runs missing from the cache, and interrupted
  sweeps resume exactly where they stopped;
* **solved MDP policies** share the same store under their own namespace
  (:func:`repro.mdp.solver.solve_optimal_policy` with a configured store), so
  the optimal strategy's per-point solve survives process restarts;
* every entry is a row of one WAL-mode sqlite database per cache directory
  (``<cache-dir>/store.sqlite``), checksummed on every read; corruption of any
  kind reads as a cache miss and falls back to recomputation, and the batched
  lookups (``get_many`` / ``contains_many``) answer a warm sweep with one
  ``SELECT`` per few hundred keys (:mod:`repro.store.store`);
* several **processes on one host** may share a root: the lease protocol
  (``claim`` / ``release``, leases are rows of the same database) stops two
  sweeps pointed at the same ``--cache-dir`` from duplicating work,
  and :meth:`ResultStore.vacuum` evicts the corrupt rows and stale leases a
  hard-killed writer leaves behind.

Results round-trip **bit-exactly** (:mod:`repro.store.serialize`): a warm-cache
experiment reports the identical numbers, down to the last float bit, as a cold
one.
"""

from .fingerprint import (
    STORE_VERSION,
    canonical_json,
    config_fingerprint,
    fingerprint_payload,
    hash_payload,
)
from .serialize import result_from_payload, result_payload
from .store import (
    POLICY_NAMESPACE,
    SIMULATION_NAMESPACE,
    Lease,
    ResultStore,
    StoreStats,
    VacuumReport,
)

__all__ = [
    "POLICY_NAMESPACE",
    "SIMULATION_NAMESPACE",
    "STORE_VERSION",
    "Lease",
    "ResultStore",
    "StoreStats",
    "VacuumReport",
    "canonical_json",
    "config_fingerprint",
    "fingerprint_payload",
    "hash_payload",
    "result_from_payload",
    "result_payload",
]
