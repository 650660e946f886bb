"""Persistent on-disk result store for completed samples.

Records carry the schema version, the job's canonical payload (for
debuggability — ``cat`` a record to see exactly what produced it), and
the encoded value; corrupt or wrong-schema records read as misses and
are quietly discarded.  Each record is one JSON file under
``<root>/<key[:2]>/<key>.json`` (two-hex-digit shard directories keep
any one directory small at paper-scale campaigns), written atomically
(temp file + ``os.replace``): a reader in any process never observes a
half-written record, and the last writer wins whole-record.

Configuration via environment:

* ``REPRO_CACHE_DIR`` — cache root (default ``.repro-cache/``);
* ``REPRO_NO_CACHE=1`` — disable persistence entirely
  (:func:`default_cache` returns a :class:`NullCache`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterator

from repro.exec.jobs import SCHEMA_VERSION
from repro.sim.sampling import Sample

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory (relative to a store root) where ``verify`` parks
#: undecodable records instead of silently deleting the evidence.
QUARANTINE_DIR = "quarantine"


class CorruptRecord(ValueError):
    """A record exists but cannot be decoded as a JSON object."""


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One stored record, as the maintenance commands see it."""

    key: str
    size_bytes: int
    mtime: float  # seconds since the epoch, write time
    schema: int | None  # the record's stamped schema, None if unreadable


def encode_sample(sample: Sample) -> dict:
    return dataclasses.asdict(sample)


def decode_sample(payload: dict) -> Sample:
    fields = {f.name for f in dataclasses.fields(Sample)}
    return Sample(**{name: int(payload[name]) for name in fields})


def _load_record(path: Path) -> dict:
    """The JSON object stored at ``path``.

    Raises :class:`CorruptRecord` if the file is unreadable, not UTF-8,
    not JSON, or JSON but not an object; a missing file raises
    ``FileNotFoundError``.
    """
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CorruptRecord(f"{path.name}: {exc}") from exc
    if not isinstance(record, dict):
        raise CorruptRecord(f"{path.name} is not a JSON object")
    return record


#: What decoding a bad record can raise; ``int()`` of a JSON number too
#: large for a float (``1e999`` parses as infinity) raises OverflowError.
_UNDECODABLE = (ValueError, KeyError, TypeError, OverflowError)


class ResultCache:
    """Sharded-JSON result store shared across processes and sessions.

    The base class stores :class:`~repro.sim.sampling.Sample` records
    for :class:`~repro.exec.jobs.SampleJob` keys.  Other experiment
    classes (fault campaigns, sweeps) reuse the record format, atomicity,
    and corruption handling by subclassing and overriding the codec
    hooks: ``schema`` (version gate), ``value_field`` (the record field
    holding the encoded value), and ``_encode``/``_decode``.  Keys come
    from the job (anything with ``.key`` and ``.payload()``), so
    subclasses never touch pathing or I/O.
    """

    #: Schema version stamped on / required of every record.
    schema: int = SCHEMA_VERSION
    #: Record field holding the encoded value.
    value_field: str = "sample"

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- codec hooks (override in subclasses) ------------------------------
    def _encode(self, value) -> dict:
        return encode_sample(value)

    def _decode(self, payload: dict):
        return decode_sample(payload)

    # -- records -----------------------------------------------------------
    def get(self, job):
        """The cached value for ``job``, or None on miss/corruption."""
        key = job.key
        try:
            record = self.read(key)
            if record is None:
                self.misses += 1
                return None
            if record.get("schema") != self.schema:
                raise ValueError("schema mismatch")
            value = self._decode(record[self.value_field])
        except (*_UNDECODABLE, OSError):
            # Corrupt, truncated, or stale-schema record: drop it so the
            # fresh result can take its place.
            self.delete(key)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, job, value) -> None:
        """Atomically persist ``value`` as the result of ``job``."""
        record = {
            "schema": self.schema,
            "job": job.payload(),
            self.value_field: self._encode(value),
        }
        self.write(job.key, record)

    # -- storage: one JSON file per key ------------------------------------
    def path(self, job) -> Path:
        """The record file for ``job``."""
        return self._file(job.key)

    def _file(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def read(self, key: str) -> dict | None:
        """The record under ``key``, or None if there is none.

        Raises :class:`CorruptRecord` when the file exists but does not
        decode to a JSON object.
        """
        try:
            return _load_record(self._file(key))
        except FileNotFoundError:
            return None

    def write(self, key: str, record: dict) -> None:
        """Publish ``record`` under ``key``: temp file, then ``os.replace``.

        The byte format is ``json.dump`` with ``sort_keys=True`` and no
        indent, unchanged since the first cache, so old stores read back.
        """
        path = self._file(key)
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
        self._file(key).unlink(missing_ok=True)

    def entries(self) -> Iterator[CacheEntry]:
        """Every stored record's key, size, write time and schema."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced deletion
                continue
            try:
                schema = _load_record(path).get("schema")
            except (CorruptRecord, OSError):
                schema = None
            yield CacheEntry(
                key=path.stem,
                size_bytes=stat.st_size,
                mtime=stat.st_mtime,
                schema=schema if isinstance(schema, int) else None,
            )

    def quarantine(self, key: str) -> Path:
        """Move ``key``'s record file into the quarantine directory."""
        target = self.root / QUARANTINE_DIR / f"{key}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(self._file(key), target)
        return target

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))


class NullCache(ResultCache):
    """A cache that remembers nothing — the ``REPRO_NO_CACHE=1`` store."""

    def __init__(self):
        super().__init__(root=os.devnull)

    def get(self, job):
        self.misses += 1
        return None

    def put(self, job, value) -> None:
        pass

    def __len__(self) -> int:
        return 0


class FreshWriteCache(ResultCache):
    """Write-through, never read: records results but serves no hits.

    Campaign runs *without* ``--resume`` use this so a fresh invocation
    actually re-executes (statistically honest timing/failure behavior)
    while still leaving a complete checkpoint behind for a later
    ``--resume``.  Wraps any :class:`ResultCache` subclass by holding an
    inner cache whose ``put`` it forwards.
    """

    def __init__(self, inner: ResultCache):
        super().__init__(root=inner.root)
        self.inner = inner

    def get(self, job):
        self.misses += 1
        return None

    def put(self, job, value) -> None:
        self.inner.put(job, value)

    def __len__(self) -> int:
        return len(self.inner)


def cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("1", "true", "yes")


def default_cache() -> ResultCache:
    """The environment-configured cache (NullCache under REPRO_NO_CACHE)."""
    if not cache_enabled():
        return NullCache()
    return ResultCache(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


# -- maintenance (the `repro cache` surface) -------------------------------


@dataclasses.dataclass
class CacheStats:
    """What ``repro cache stats`` reports for one store."""

    label: str
    entries: int = 0
    total_bytes: int = 0
    by_schema: dict = dataclasses.field(default_factory=dict)  # schema -> count
    oldest: float | None = None  # epoch seconds
    newest: float | None = None

    def render(self) -> str:
        lines = [
            self.label,
            f"  entries : {self.entries}",
            f"  bytes   : {self.total_bytes:,}",
        ]
        for schema in sorted(self.by_schema, key=str):
            lines.append(f"  schema {schema}: {self.by_schema[schema]} record(s)")
        if self.oldest is not None and self.newest is not None:
            age = time.time() - self.oldest
            lines.append(f"  oldest  : {age / 86400:.1f} day(s) ago")
        return "\n".join(lines)


def cache_stats(cache: ResultCache, label: str = "store") -> CacheStats:
    """Summarize one store: entry count, bytes, schema-version mix."""
    stats = CacheStats(label=label)
    for entry in cache.entries():
        stats.entries += 1
        stats.total_bytes += entry.size_bytes
        schema = entry.schema if entry.schema is not None else "unreadable"
        stats.by_schema[schema] = stats.by_schema.get(schema, 0) + 1
        if stats.oldest is None or entry.mtime < stats.oldest:
            stats.oldest = entry.mtime
        if stats.newest is None or entry.mtime > stats.newest:
            stats.newest = entry.mtime
    return stats


def cache_gc(
    cache: ResultCache, older_than_s: float, now: float | None = None
) -> tuple[int, int]:
    """Delete records last written more than ``older_than_s`` ago.

    Returns ``(removed_count, removed_bytes)``.  Content-hash keys make
    this safe at any time: a collected record simply re-executes on next
    demand.
    """
    cutoff = (now if now is not None else time.time()) - older_than_s
    removed = 0
    removed_bytes = 0
    for entry in list(cache.entries()):
        if entry.mtime < cutoff:
            cache.delete(entry.key)
            removed += 1
            removed_bytes += entry.size_bytes
    return removed, removed_bytes


def cache_verify(cache: ResultCache) -> tuple[int, list[str]]:
    """Decode every record; quarantine the ones that don't.

    A record must be valid JSON, carry the store's schema version, and
    round-trip through the store's value decoder.  Failures move to
    ``<root>/quarantine/<key>.json`` (raw bytes preserved for forensics)
    and are removed from the store.  Returns ``(ok_count,
    quarantined_keys)``.
    """
    ok = 0
    quarantined: list[str] = []
    for entry in list(cache.entries()):
        key = entry.key
        try:
            record = cache.read(key)
            if record is None:  # pragma: no cover - raced deletion
                continue
            if record.get("schema") != cache.schema:
                raise ValueError(
                    f"schema {record.get('schema')!r} != expected {cache.schema}"
                )
            cache._decode(record[cache.value_field])
        except _UNDECODABLE:
            cache.quarantine(key)
            quarantined.append(key)
        else:
            ok += 1
    return ok, quarantined


def maintenance_stores(
    root: str | os.PathLike | None = None,
) -> list[tuple[str, ResultCache]]:
    """The labeled stores ``repro cache`` operates on.

    The sample store at the cache root and the campaign checkpoint store
    under ``<root>/campaign``.
    """
    from repro.campaign.resume import OutcomeCache, campaign_root

    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return [
        ("samples", ResultCache(root)),
        ("campaign", OutcomeCache(campaign_root(root))),
    ]
