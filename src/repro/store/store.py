"""The on-disk result store: one WAL-mode sqlite database per cache directory.

:class:`ResultStore` is a content-addressed cache under one root directory.
Every entry is a row of the ``entries`` table in ``<root>/store.sqlite``,
keyed by ``(namespace, key)`` — ``simulation`` for settled runs, ``policy``
for solved MDP policies.  A row holds the payload's canonical JSON text and
that text's SHA-256, and every read re-hashes the text: a checksum mismatch
reads as a cache miss and falls back to recomputation (the property suite pins
this), as does a simulation payload from an incompatible schema.  A database
file that is not sqlite at all is moved aside to ``store.sqlite.corrupt-<pid>``
when the store opens it, so every key it held reads as a miss.

The database runs in WAL mode with ``synchronous=NORMAL``: readers never block
the writer, and a crash can lose the last few commits but never leaves a
half-written row.  Results are persisted by the parent process as they settle
(:mod:`repro.simulation.runner`), and several **processes on one host** may
share one root concurrently (two sweeps pointed at the same ``--cache-dir``):

* writes are idempotent (the same key always re-derives the same bits), so
  concurrent writers can never corrupt each other — the worst case is
  duplicated work;
* duplicated work itself is prevented by **leases**, rows of the ``leases``
  table holding the holder's token, pid, host and expiry.  A claim is an
  ``INSERT OR IGNORE``; a live lease makes other processes wait for the result
  instead of recomputing it.  A lease is *stale* once it expires, or as soon
  as its holder is a dead process on this host, so a hard-killed writer blocks
  nobody beyond its lease TTL.  A steal is an ``UPDATE`` conditioned on the
  stale token, so of two simultaneous stealers exactly one wins, and a release
  deletes the row only while it still carries the releaser's token;
* :meth:`ResultStore.vacuum` evicts checksum-failing rows and stale leases.

WAL relies on shared memory, so one cache directory must not be shared by
processes on different hosts (for example over a network filesystem).  The
connection is opened lazily, once per process: a forked pool worker that reads
or writes the ``policy`` namespace opens its own connection and never touches
the one it inherited.  Pickling drops the connection.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from ..errors import StoreLeaseError
from .fingerprint import canonical_json, config_fingerprint
from .serialize import result_from_payload, result_payload

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..simulation.config import SimulationConfig
    from ..simulation.metrics import SimulationResult

#: Namespace of settled simulation runs.
SIMULATION_NAMESPACE = "simulation"

#: Namespace of solved MDP policies.
POLICY_NAMESPACE = "policy"

#: File name of the database inside the store's root directory.
DATABASE_FILENAME = "store.sqlite"

#: This machine's name, recorded in leases so staleness checks know when the
#: holder pid can be probed locally.
_HOSTNAME = platform.node() or "unknown-host"

#: How long (seconds) a statement waits for another process's lock.
_BUSY_TIMEOUT_S = 30.0

#: The first bytes of every sqlite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"

#: Keys per ``IN (...)`` clause, under sqlite's historical 999-variable limit.
_SELECT_CHUNK = 400

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    namespace TEXT NOT NULL,
    key TEXT NOT NULL,
    checksum TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (namespace, key)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS leases (
    namespace TEXT NOT NULL,
    key TEXT NOT NULL,
    token TEXT NOT NULL,
    pid INTEGER NOT NULL,
    host TEXT NOT NULL,
    expires_at REAL NOT NULL,
    PRIMARY KEY (namespace, key)
);
"""

#: Connections inherited across ``fork``.  The child keeps them referenced and
#: never uses or closes them: closing one would close its file descriptors,
#: and closing any descriptor of a file drops every POSIX lock this process
#: holds on it, including the locks of the child's own connection.
_INHERITED: list[sqlite3.Connection] = []


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _row_valid(checksum: object, text: object) -> bool:
    """A row's integrity check: its payload text hashes to its checksum."""
    return isinstance(text, str) and _checksum(text) == checksum


def _lease_stale(pid: int, host: str, expires_at: float) -> bool:
    """True when a lease may be stolen: expired, or its same-host holder is dead.

    The pid probe only works for same-host holders; cross-host staleness falls
    back to the expiry alone.
    """
    if expires_at <= time.time():
        return True
    if host == _HOSTNAME:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:  # pragma: no cover - alive, owned by another user
            pass
    return False


def _enable_wal(connection: sqlite3.Connection) -> None:
    """Switch ``connection``'s database to WAL mode (a no-op once it is).

    The switch takes a lock that ignores the busy timeout, so processes
    creating the same fresh database at once retry here instead.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            if connection.execute("PRAGMA journal_mode=WAL").fetchone()[0] == "wal":
                return
        except sqlite3.OperationalError:
            pass
        if time.monotonic() > deadline:
            raise sqlite3.OperationalError("could not switch the store database to WAL")
        time.sleep(0.01)


def _sqlite_or_empty(path: Path) -> bool:
    """False when ``path`` holds bytes that are not an sqlite database."""
    try:
        with open(path, "rb") as handle:
            header = handle.read(len(_SQLITE_HEADER))
    except FileNotFoundError:
        return True
    return header in (b"", _SQLITE_HEADER)


def _namespace_filter(namespace: str | None) -> tuple[str, tuple[str, ...]]:
    """A ``WHERE`` clause and its arguments restricting a scan to ``namespace``."""
    return ("WHERE namespace = ?", (namespace,)) if namespace is not None else ("", ())


@dataclass(frozen=True)
class Lease:
    """A held lease on one store entry, as returned by ``claim``."""

    namespace: str
    key: str
    token: str
    expires_at: float


@dataclass(frozen=True)
class VacuumReport:
    """What one :meth:`ResultStore.vacuum` pass removed.

    Every count covers rows *this pass* deleted — a row a racing process
    removed or rewrote first is not claimed here.
    """

    #: Checksum-failing entry rows evicted.
    removed_entries: int
    #: Stale lease rows deleted (live leases are kept).
    removed_leases: int

    @property
    def total(self) -> int:
        """Rows removed altogether."""
        return self.removed_entries + self.removed_leases


@dataclass(frozen=True)
class StoreStats:
    """Entries per namespace and the database's size on disk."""

    #: Namespace -> number of entry rows (valid or not).
    entries: dict[str, int]
    #: Bytes of ``store.sqlite`` plus its write-ahead log.
    database_bytes: int


class ResultStore:
    """A content-addressed store backed by one sqlite database under ``root``.

    ``lease_ttl`` bounds how long a crashed process can block others via the
    lease protocol: a lease older than this many seconds is stale and may be
    stolen even when the holder cannot be probed (different host).  Set it
    comfortably above the longest expected single run — a healthy-but-slow
    holder whose lease expires gets its work duplicated (harmlessly, writes
    are idempotent), not corrupted.
    """

    def __init__(self, root: str | Path, *, lease_ttl: float = 600.0) -> None:
        if lease_ttl <= 0:
            raise StoreLeaseError(f"lease_ttl must be positive, got {lease_ttl}")
        self.root = Path(root)
        self.path = self.root / DATABASE_FILENAME
        self.lease_ttl = lease_ttl
        self.root.mkdir(parents=True, exist_ok=True)
        self._connection: sqlite3.Connection | None = None
        self._pid: int | None = None

    def __getstate__(self) -> dict:
        # A connection is process-local: a pickled store reconnects lazily.
        return {**self.__dict__, "_connection": None, "_pid": None}

    # ------------------------------------------------------------------ connection
    def _db(self) -> sqlite3.Connection:
        """This process's connection, opened on first use."""
        if self._pid != os.getpid():
            if self._connection is not None:
                _INHERITED.append(self._connection)
            self._connection = self._open()
            self._pid = os.getpid()
        return self._connection

    def _open(self) -> sqlite3.Connection:
        if not _sqlite_or_empty(self.path):
            self._set_aside()
        try:
            return self._connect()
        except sqlite3.OperationalError:
            raise  # locked or unwritable: a real error, not a damaged file
        except sqlite3.DatabaseError:
            self._set_aside()
            return self._connect()

    def _set_aside(self) -> None:
        """Move an unreadable database aside, so every key it held reads as a miss.

        Its WAL files are deleted: replayed over a fresh database they would
        resurrect the damaged pages.
        """
        try:
            os.replace(self.path, f"{self.path}.corrupt-{os.getpid()}")
        except OSError:  # pragma: no cover - a racing process moved it first
            pass
        for suffix in ("-wal", "-shm"):
            Path(f"{self.path}{suffix}").unlink(missing_ok=True)

    def _connect(self) -> sqlite3.Connection:
        # Autocommit: each statement is its own transaction.
        connection = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S, isolation_level=None)
        try:
            _enable_wal(connection)
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.executescript(_SCHEMA)
        except BaseException:
            connection.close()
            raise
        return connection

    def close(self) -> None:
        """Close this process's connection (the store reopens it on next use)."""
        connection, self._connection = self._connection, None
        if connection is not None:
            if self._pid == os.getpid():
                connection.close()
            else:
                _INHERITED.append(connection)
        self._pid = None

    # ------------------------------------------------------------------ entries
    def put(self, namespace: str, key: str, payload: dict) -> None:
        """Persist ``payload`` under ``key`` (replacing any previous row)."""
        text = canonical_json(payload)
        self._db().execute(
            "INSERT OR REPLACE INTO entries (namespace, key, checksum, payload) "
            "VALUES (?, ?, ?, ?)",
            (namespace, key, _checksum(text), text),
        )

    def _valid_rows(self, namespace: str, keys: Sequence[str]) -> Iterator[tuple[str, str]]:
        """Yield ``(key, payload text)`` for every checksum-valid row under ``keys``.

        Rows stream from the cursor, so a batched read never holds every
        payload's text at once.  An unreadable database reads as a miss.
        """
        keys = list(keys)
        try:
            connection = self._db()
            for start in range(0, len(keys), _SELECT_CHUNK):
                chunk = keys[start : start + _SELECT_CHUNK]
                for key, checksum, text in connection.execute(
                    "SELECT key, checksum, payload FROM entries WHERE namespace = ? "
                    f"AND key IN ({','.join('?' * len(chunk))})",
                    (namespace, *chunk),
                ):
                    if _row_valid(checksum, text):
                        yield key, text
        except sqlite3.DatabaseError:
            return

    def get(self, namespace: str, key: str) -> dict | None:
        """The payload stored under ``key``; ``None`` on miss *or* corruption."""
        for _key, text in self._valid_rows(namespace, [key]):
            return json.loads(text)
        return None

    def contains(self, namespace: str, key: str) -> bool:
        """True when a *valid* entry exists under ``key``."""
        return any(True for _row in self._valid_rows(namespace, [key]))

    def get_many(self, namespace: str, keys: Sequence[str]) -> dict[str, dict]:
        """Batch-load the valid payloads under ``keys``; misses are absent."""
        return {key: json.loads(text) for key, text in self._valid_rows(namespace, keys)}

    def contains_many(self, namespace: str, keys: Sequence[str]) -> set[str]:
        """The subset of ``keys`` with a valid entry (checksum verified, no parse)."""
        return {key for key, _text in self._valid_rows(namespace, keys)}

    # ------------------------------------------------------------------ leases
    def claim(self, namespace: str, key: str) -> Lease | None:
        """Try to take the cross-process lease on ``key``.

        Returns a :class:`Lease` when this process now owns the right to
        compute the entry, or ``None`` when another process holds a live lease
        (wait for the entry, or poll :meth:`lease_state`).  A stale lease is
        stolen by an ``UPDATE`` that only matches the stale token, so of two
        stealers exactly one wins.  After a successful claim, re-check the
        entry before computing: the previous holder writes the result *before*
        releasing.
        """
        connection = self._db()
        lease = Lease(
            namespace=namespace,
            key=key,
            token=f"{_HOSTNAME}:{os.getpid()}:{os.urandom(8).hex()}",
            expires_at=time.time() + self.lease_ttl,
        )
        row = (lease.token, os.getpid(), _HOSTNAME, lease.expires_at, namespace, key)
        insert = (
            "INSERT OR IGNORE INTO leases (token, pid, host, expires_at, namespace, key) "
            "VALUES (?, ?, ?, ?, ?, ?)"
        )
        if connection.execute(insert, row).rowcount == 1:
            return lease
        holder = connection.execute(
            "SELECT token, pid, host, expires_at FROM leases WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        if holder is None:  # released in between: the slot is free again
            return lease if connection.execute(insert, row).rowcount == 1 else None
        if not _lease_stale(*holder[1:]):
            return None
        stolen = connection.execute(
            "UPDATE leases SET token = ?, pid = ?, host = ?, expires_at = ? "
            "WHERE namespace = ? AND key = ? AND token = ?",
            (*row, holder[0]),
        )
        return lease if stolen.rowcount == 1 else None

    def release(self, lease: Lease) -> bool:
        """Drop a held lease; ``False`` when it was already stolen or vacuumed.

        Release *after* persisting the result: any process that subsequently
        wins the lease re-checks the entry first, so compute-then-write-then-
        release guarantees nobody recomputes a settled entry.
        """
        deleted = self._db().execute(
            "DELETE FROM leases WHERE namespace = ? AND key = ? AND token = ?",
            (lease.namespace, lease.key, lease.token),
        )
        return deleted.rowcount == 1

    def lease_state(self, namespace: str, key: str) -> str:
        """``"free"``, ``"held"`` or ``"stale"`` — the lease slot's state."""
        holder = self._db().execute(
            "SELECT pid, host, expires_at FROM leases WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        if holder is None:
            return "free"
        return "stale" if _lease_stale(*holder) else "held"

    # ------------------------------------------------------------------ maintenance
    def vacuum(self, namespace: str | None = None) -> VacuumReport:
        """Evict checksum-failing rows and stale leases (all namespaces by default).

        A row is deleted only if it still holds the exact text or token this
        pass inspected, so an entry rewritten or a lease re-claimed in the
        meantime survives, and concurrent passes never double-count.
        """
        connection = self._db()
        where, arguments = _namespace_filter(namespace)
        damaged = [
            (name, key, text)
            for name, key, checksum, text in connection.execute(
                f"SELECT namespace, key, checksum, payload FROM entries {where}", arguments
            )
            if not _row_valid(checksum, text)
        ]
        stale = [
            (name, key, token)
            for name, key, token, pid, host, expires_at in connection.execute(
                f"SELECT namespace, key, token, pid, host, expires_at FROM leases {where}",
                arguments,
            )
            if _lease_stale(pid, host, expires_at)
        ]
        removed_entries = sum(
            connection.execute(
                "DELETE FROM entries WHERE namespace = ? AND key = ? AND payload = ?", row
            ).rowcount
            for row in damaged
        )
        removed_leases = sum(
            connection.execute(
                "DELETE FROM leases WHERE namespace = ? AND key = ? AND token = ?", row
            ).rowcount
            for row in stale
        )
        return VacuumReport(removed_entries=removed_entries, removed_leases=removed_leases)

    def stats(self, namespace: str | None = None) -> StoreStats:
        """Entry rows per namespace plus the database's size on disk."""
        where, arguments = _namespace_filter(namespace)
        entries = dict(
            self._db().execute(
                f"SELECT namespace, COUNT(*) FROM entries {where} "
                "GROUP BY namespace ORDER BY namespace",
                arguments,
            )
        )
        files = (self.path, Path(f"{self.path}-wal"))
        return StoreStats(
            entries=entries,
            database_bytes=sum(path.stat().st_size for path in files if path.exists()),
        )

    # ------------------------------------------------------------------ simulation runs
    def result_key(self, config: "SimulationConfig", backend: str) -> str:
        """The content address of one ``(config, backend)`` run."""
        return config_fingerprint(config, backend)

    def save_result(self, key: str, result: "SimulationResult") -> None:
        """Persist one settled run under its key (see :meth:`result_key`)."""
        self.put(SIMULATION_NAMESPACE, key, result_payload(result))

    def load_results(
        self, keys: Sequence[str], configs: Sequence["SimulationConfig"]
    ) -> list["SimulationResult | None"]:
        """The cached runs under ``keys``, bit-exact, aligned with ``keys``.

        ``configs[i]`` is the configuration ``keys[i]`` addresses (results are
        stored without it).  Misses, corrupt rows and payloads from an
        incompatible schema all come back as ``None``: recompute, don't fail.
        """
        payloads = self.get_many(SIMULATION_NAMESPACE, keys)
        results: list["SimulationResult | None"] = []
        for key, config in zip(keys, configs):
            payload = payloads.get(key)
            try:
                results.append(None if payload is None else result_from_payload(payload, config))
            except (KeyError, TypeError, ValueError):
                results.append(None)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ResultStore(root={str(self.root)!r})"
