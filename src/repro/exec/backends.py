"""Pluggable storage backends behind :class:`~repro.exec.cache.ResultCache`.

The cache's *semantics* — content-hash keys, schema-gated records,
corrupt-reads-as-misses, write-through persistence — live in
:class:`~repro.exec.cache.ResultCache`.  The *storage* lives here, behind
the small :class:`CacheBackend` protocol, so one cache layer can sit on
either of two layouts:

* :class:`JsonShardBackend` — the original one-JSON-file-per-record
  layout (``<root>/<key[:2]>/<key>.json``, atomic temp-file +
  ``os.replace`` writes).  Byte-identical to the pre-backend cache, so
  every legacy ``.repro-cache/`` directory keeps working without a
  ``SCHEMA_VERSION`` bump.
* :class:`SqliteBackend` — a single ``cache.sqlite`` file per store in
  WAL mode, safe for many concurrent reader/writer *processes* (the
  experiment-service regime: one daemon plus any number of direct CLI
  clients hammering the same store).  Connections are opened lazily and
  re-opened after ``fork`` — a sqlite connection must never cross a
  process boundary.

Selection: ``REPRO_CACHE_BACKEND=json|sqlite`` (default ``json``), or
explicitly via ``ResultCache(root, backend=...)``.  Both backends store
the *same* record dicts under the *same* keys, so they are semantically
interchangeable; only the bytes-on-disk layout differs.

The protocol also carries the maintenance surface ``repro cache`` needs:
:meth:`CacheBackend.entries` (key, size, mtime, schema) for ``stats`` and
``gc``, and :meth:`CacheBackend.read_raw` / :meth:`CacheBackend.quarantine`
for ``verify``'s corrupt-record quarantine.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

#: Recognized backend kinds, in selection-priority order.
BACKEND_KINDS = ("json", "sqlite")

#: Subdirectory (relative to a store root) where ``verify`` parks
#: undecodable records instead of silently deleting the evidence.
QUARANTINE_DIR = "quarantine"


class CorruptRecord(ValueError):
    """A record exists but cannot be decoded as a JSON object."""


@dataclass(frozen=True)
class CacheEntry:
    """One stored record, as the maintenance commands see it."""

    key: str
    size_bytes: int
    mtime: float  # seconds since the epoch, write time
    schema: int | None  # the record's stamped schema, None if unreadable


def default_backend_kind(env: dict[str, str] | None = None) -> str:
    """The backend named by ``REPRO_CACHE_BACKEND`` (default ``json``)."""
    value = (env if env is not None else os.environ).get(
        "REPRO_CACHE_BACKEND", ""
    )
    value = value.strip().lower() or "json"
    if value not in BACKEND_KINDS:
        raise ValueError(
            f"REPRO_CACHE_BACKEND must be one of {BACKEND_KINDS}, got {value!r}"
        )
    return value


def make_backend(kind: str, root: str | os.PathLike) -> "CacheBackend":
    """Construct the backend named ``kind`` rooted at ``root``."""
    if kind == "json":
        return JsonShardBackend(root)
    if kind == "sqlite":
        return SqliteBackend(root)
    raise ValueError(f"unknown cache backend {kind!r}; use one of {BACKEND_KINDS}")


class CacheBackend:
    """Raw record storage: JSON dicts under content-hash string keys.

    ``read`` returns the record dict, ``None`` on a miss, and raises
    :class:`CorruptRecord` when bytes exist but do not decode —
    the cache layer turns that into delete-and-miss.  ``write`` must be
    atomic with respect to concurrent readers *and* concurrent writers
    in other processes: a reader never observes a half-written record,
    and the last writer wins whole-record.
    """

    kind: str = "abstract"

    def read(self, key: str) -> dict | None:
        raise NotImplementedError

    def write(self, key: str, record: dict) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def entries(self) -> Iterator[CacheEntry]:
        raise NotImplementedError

    def read_raw(self, key: str) -> bytes | None:
        """The stored bytes for ``key`` without decoding (for quarantine)."""
        raise NotImplementedError

    def quarantine(self, key: str) -> Path:
        """Move ``key``'s raw record into the quarantine directory."""
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class JsonShardBackend(CacheBackend):
    """One JSON file per record: ``<root>/<key[:2]>/<key>.json``.

    The exact pre-backend layout and byte format (``json.dump`` with
    ``sort_keys=True``, no indent), so caches written before the backend
    split read back unchanged.
    """

    kind = "json"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def read(self, key: str) -> dict | None:
        try:
            text = self.path(key).read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CorruptRecord(str(exc)) from exc
        try:
            record = json.loads(text)
        except ValueError as exc:
            raise CorruptRecord(str(exc)) from exc
        if not isinstance(record, dict):
            raise CorruptRecord(f"record for {key} is not a JSON object")
        return record

    def write(self, key: str, record: dict) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*.json"):
            yield path.stem

    def entries(self) -> Iterator[CacheEntry]:
        for key in self.keys():
            path = self.path(key)
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced deletion
                continue
            schema: int | None = None
            try:
                record = json.loads(path.read_text())
                if isinstance(record.get("schema"), int):
                    schema = record["schema"]
            except (ValueError, OSError):
                schema = None
            yield CacheEntry(
                key=key, size_bytes=stat.st_size, mtime=stat.st_mtime, schema=schema
            )

    def read_raw(self, key: str) -> bytes | None:
        try:
            return self.path(key).read_bytes()
        except OSError:
            return None

    def quarantine(self, key: str) -> Path:
        target = self.root / QUARANTINE_DIR / f"{key}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(self.path(key), target)
        return target

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))


class SqliteBackend(CacheBackend):
    """All records in one ``<root>/cache.sqlite`` file, WAL mode.

    WAL lets readers proceed during a write and serializes writers with
    a short lock, which is exactly the many-concurrent-clients shape the
    experiment service produces.  ``busy_timeout`` absorbs writer
    contention instead of surfacing ``database is locked``.  The
    connection is per-process: forked children (pool/daemon workers)
    transparently reopen on first use.
    """

    kind = "sqlite"

    #: Database filename inside the store root.
    DB_NAME = "cache.sqlite"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    @property
    def db_path(self) -> Path:
        return self.root / self.DB_NAME

    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            # Never reuse a connection across fork: close the inherited
            # handle without touching the database and open our own.
            if self._conn is not None:  # pragma: no cover - fork path
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.db_path, timeout=30.0, isolation_level=None)
            # Two processes opening one new store race to switch it to
            # WAL, and sqlite reports the loser's lock at once instead of
            # waiting out busy_timeout: retry for as long.
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS records ("
                " key TEXT PRIMARY KEY,"
                " schema INTEGER,"
                " record TEXT NOT NULL,"
                " mtime REAL NOT NULL)"
            )
            self._conn = conn
            self._pid = pid
        return self._conn

    def read(self, key: str) -> dict | None:
        row = self._connection().execute(
            "SELECT record FROM records WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            record = json.loads(row[0])
        except ValueError as exc:
            raise CorruptRecord(str(exc)) from exc
        if not isinstance(record, dict):
            raise CorruptRecord(f"record for {key} is not a JSON object")
        return record

    def write(self, key: str, record: dict) -> None:
        text = json.dumps(record, sort_keys=True)
        schema = record.get("schema")
        self._connection().execute(
            "INSERT INTO records (key, schema, record, mtime)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET"
            " schema = excluded.schema,"
            " record = excluded.record,"
            " mtime = excluded.mtime",
            (key, schema if isinstance(schema, int) else None, text, time.time()),
        )

    def delete(self, key: str) -> None:
        self._connection().execute("DELETE FROM records WHERE key = ?", (key,))

    def keys(self) -> Iterator[str]:
        if not self.db_path.exists():
            return
        for (key,) in self._connection().execute(
            "SELECT key FROM records ORDER BY key"
        ):
            yield key

    def entries(self) -> Iterator[CacheEntry]:
        if not self.db_path.exists():
            return
        for key, schema, record, mtime in self._connection().execute(
            "SELECT key, schema, record, mtime FROM records ORDER BY key"
        ):
            yield CacheEntry(
                key=key,
                size_bytes=len(record.encode()),
                mtime=mtime,
                schema=schema if isinstance(schema, int) else None,
            )

    def read_raw(self, key: str) -> bytes | None:
        row = self._connection().execute(
            "SELECT record FROM records WHERE key = ?", (key,)
        ).fetchone()
        return row[0].encode() if row is not None else None

    def quarantine(self, key: str) -> Path:
        raw = self.read_raw(key)
        target = self.root / QUARANTINE_DIR / f"{key}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(raw if raw is not None else b"")
        self.delete(key)
        return target

    def __len__(self) -> int:
        if not self.db_path.exists():
            return 0
        (count,) = self._connection().execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()
        return count

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None
