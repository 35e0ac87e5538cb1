"""Content-addressed on-disk result store for pipeline jobs.

:class:`DiskCache` holds pickled values addressed by a job's content
hash (:meth:`repro.runner.jobs.JobSpec.key`), which already folds in
:data:`repro.runner.jobs.CODE_VERSION` — so code changes miss naturally.
:data:`FORMAT_VERSION` versions the *store layout* instead: a layout
change moves to a new file and strands (rather than misreads) old
entries.

The store lives in ``~/.cache/repro`` by default, overridable with
``--cache-dir`` or ``$REPRO_CACHE_DIR``.  It is one SQLite database,
``<root>/v2.sqlite``, holding one table::

    entries(key TEXT PRIMARY KEY, stage TEXT, manifest TEXT, payload BLOB)

``payload`` is the pickled stage result and ``manifest`` a JSON object
describing it.  Each store is one autocommitted ``INSERT OR REPLACE``
into a WAL-journaled database, so writers racing on a key win or do
nothing, no reader sees a torn entry, and a concurrent ``clear()`` is
safe.  An entry that does not decode is a miss and is evicted.  A
store file that is not a readable database raises :class:`CorruptStore`
on use, naming the file and ``repro-eval cache clear``, which deletes
it.  ``sqlite3`` is imported on first use, so ``--no-cache`` never
loads it.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Bump when the on-disk layout (not the result semantics) changes.
FORMAT_VERSION = 2

#: Exceptions that mean "this payload does not decode to a value".
#: Anything else propagating from ``pickle.loads`` is a real bug.
DECODE_ERRORS = (
    pickle.PickleError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
)

#: Tries at switching a store to WAL, 10 ms apart.
_WAL_ATTEMPTS = 500


class CorruptStore(RuntimeError):
    """The store file exists but is not a readable SQLite database."""

    def __init__(self, cache: "DiskCache"):
        super().__init__(
            f"result store {cache.store} is not a readable database; "
            f"remove it with: repro-eval cache clear --cache-dir {cache.root}"
        )


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Aggregate view of a store plus this process's hit/miss counters."""

    root: str = ""
    entries: int = 0
    total_bytes: int = 0
    by_stage: Dict[str, int] = field(default_factory=dict)
    #: Payload bytes per stage — traces and compilations dominate, and
    #: this is what says so without opening the database.
    bytes_by_stage: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_stage": dict(sorted(self.by_stage.items())),
            "bytes_by_stage": dict(sorted(self.bytes_by_stage.items())),
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def render(self) -> str:
        lines = [
            f"cache root: {self.root}",
            f"entries:    {self.entries} ({self.total_bytes / 1024:.1f} KiB)",
        ]
        for stage, count in sorted(self.by_stage.items()):
            size = self.bytes_by_stage.get(stage, 0)
            lines.append(f"  {stage:10s} {count} ({size / 1024:.1f} KiB)")
        lines.append(f"session:    {self.hits} hits / {self.misses} misses")
        return "\n".join(lines)


class DiskCache:
    """Durable local pickle store addressed by job content hash.

    ``enabled=False`` turns every lookup into a miss and every store into
    a no-op, which lets callers thread one object through unconditionally
    (the ``--no-cache`` path).

    One connection serves every thread of the process.  It opens on
    first use, and only a store creates a missing database.
    :meth:`close` closes it (a later use reopens it); closing the last
    connection folds the write-ahead log back into the database file.
    """

    def __init__(self, root: Optional[Path] = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._conn = None
        self._lock = threading.RLock()

    @property
    def store(self) -> Path:
        """The database file."""
        return self.root / f"v{FORMAT_VERSION}.sqlite"

    def _query(self, sql: str, params: Tuple = (), create: bool = False) -> List[Tuple]:
        """Run one statement and return its rows.

        The connection opens on first use.  Unless ``create``, a store
        that does not exist yet reads as empty instead of being created.
        A file that is not a database raises :class:`CorruptStore`.
        """
        with self._lock:
            if self._conn is None and not create and not self.store.exists():
                return []
            import sqlite3

            try:
                if self._conn is None:
                    self._conn = self._connect()
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.DatabaseError as exc:
                # A plain DatabaseError is a file that is not a database
                # or a malformed one; its subclasses (a locked store, a
                # failed constraint) are other faults.
                if type(exc) is not sqlite3.DatabaseError:
                    raise
                self.close()
                raise CorruptStore(self) from exc

    def _connect(self):
        import sqlite3

        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.store, isolation_level=None, check_same_thread=False)
        # Switching to WAL fails at once, without waiting, while another
        # process holds a lock on the file (two processes opening a new
        # store); the switch is stored in the file, so retrying is enough.
        for attempt in range(_WAL_ATTEMPTS):
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError:
                if attempt == _WAL_ATTEMPTS - 1:
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")
        # 64 KiB of page cache: entries are read once, not re-read.
        conn.execute("PRAGMA cache_size=-64")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries("
            "key TEXT PRIMARY KEY, stage TEXT, manifest TEXT, payload BLOB)"
        )
        return conn

    def close(self) -> None:
        """Close the connection, if one is open."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # -- value codec ---------------------------------------------------------

    @staticmethod
    def encode(value: Any, refs: Optional["ProgramRefs"] = None) -> bytes:
        """Pickle ``value``; with ``refs``, that program's objects by id."""
        if refs is None:
            return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = refs.persistent_id
        pickler.dump(value)
        return buffer.getvalue()

    @staticmethod
    def decode(payload: bytes, refs: Optional["ProgramRefs"] = None) -> Any:
        """Unpickle ``payload``, resolving its program ids against ``refs``.

        A payload with ids decoded without ``refs``, or against a program
        lacking one of them, raises :class:`pickle.UnpicklingError`.
        """
        if refs is None:
            return pickle.loads(payload)
        unpickler = pickle.Unpickler(io.BytesIO(payload))
        unpickler.persistent_load = refs.persistent_load
        return unpickler.load()

    # -- operations ----------------------------------------------------------

    def get(
        self, key: str, refs: Optional["ProgramRefs"] = None
    ) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; unreadable entries count as misses.

        ``refs`` must be what the entry was stored with; an entry whose
        program ids do not resolve is unreadable.
        """
        if not self.enabled:
            self.misses += 1
            return False, None
        rows = self._query("SELECT payload FROM entries WHERE key = ?", (key,))
        if not rows:
            self.misses += 1
            return False, None
        try:
            value = self.decode(rows[0][0], refs)
        except DECODE_ERRORS:
            # Corrupt or stale-unreadable entry: evict it.
            self.evict(key)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(
        self,
        key: str,
        value: Any,
        manifest: Optional[Dict[str, Any]] = None,
        refs: Optional["ProgramRefs"] = None,
    ) -> Optional[bytes]:
        """Store ``value``; return the encoded payload (``None`` if disabled).

        Returning the payload lets the executor memoize the *decoded
        round trip* of a fresh result, so downstream stages consume
        exactly what a cache hit would hand them — which is what keeps
        their payload bytes independent of cache temperature (a stage
        fed live objects pickles with different internal sharing than
        one fed separately-unpickled inputs).
        """
        if not self.enabled:
            return None
        payload = self.encode(value, refs)
        meta = {
            "key": key,
            "format_version": FORMAT_VERSION,
            "created": time.time(),
            "size_bytes": len(payload),
            **(manifest or {}),
        }
        self._query(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
            (key, str(meta.get("stage", "unknown")), json.dumps(meta), payload),
            create=True,
        )
        return payload

    def evict(self, key: str) -> None:
        """Remove one entry, if it is there."""
        self._query("DELETE FROM entries WHERE key = ?", (key,))

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any], bytes]]:
        """``(key, manifest, payload)`` of every entry, by key."""
        rows = self._query("SELECT key, manifest, payload FROM entries ORDER BY key")
        for key, manifest, payload in rows:
            yield key, json.loads(manifest), payload

    def stats(self) -> CacheStats:
        stats = CacheStats(root=str(self.root), hits=self.hits, misses=self.misses)
        rows = self._query(
            "SELECT stage, COUNT(*), SUM(LENGTH(payload)) FROM entries GROUP BY stage"
        )
        for stage, count, size in rows:
            stats.entries += count
            stats.total_bytes += size
            stats.by_stage[stage] = count
            stats.bytes_by_stage[stage] = size
        return stats

    def clear(self) -> int:
        """Delete every entry of the current format version; return the count.

        The database is vacuumed, so the file shrinks once closed.  A
        store that is not a readable database is deleted, with its
        write-ahead-log files, and counts as holding no entry.
        """
        with self._lock:
            try:
                [(removed,)] = self._query("SELECT COUNT(*) FROM entries") or [(0,)]
                if removed:
                    self._query("DELETE FROM entries")
                    self._query("VACUUM")
            except CorruptStore:
                for suffix in ("", "-wal", "-shm"):
                    self.store.with_name(self.store.name + suffix).unlink(
                        missing_ok=True
                    )
                return 0
        return removed


class _Resolver(dict):
    """Persistent id -> object; an unknown id cannot be decoded."""

    def __missing__(self, pid: Any) -> Any:
        raise pickle.UnpicklingError(f"unresolved program reference {pid!r}")


class ProgramRefs:
    """Persistent ids for the objects of one program.

    A compile payload pickles the program of its job's ``build``
    dependency, with its functions, blocks and operations, as ids
    instead of copies, and decoding resolves each id to the very object
    the build payload decoded to.  Ids are paths: the program is
    ``"<program>/"``, a function ``"<program>/<function>"``, a block
    ``"<program>/<function>/<label>"`` and an operation ``(block id,
    index in the block)``.  A program name in every id makes a payload
    decoded against another benchmark's program fail at its first id.

    Each id string is built here, so no payload object shares it:
    pickle's memo then treats a live value and its decoded copy alike,
    and re-encoding a decoded payload gives back its bytes.  Encoding
    looks objects up by ``id()``; the table pins every object it names,
    so no other live object can share one of those ids.
    """

    __slots__ = ("persistent_id", "persistent_load")

    def __init__(self, program: Any):
        ids: Dict[int, Any] = {}
        objects = _Resolver()

        def name(obj: Any, pid: Any) -> None:
            ids[id(obj)] = pid
            objects[pid] = obj

        name(program, f"{program.name}/")
        for function in program:
            function_id = f"{program.name}/{function.name}"
            name(function, function_id)
            for block in function:
                block_id = f"{function_id}/{block.label}"
                name(block, block_id)
                for index, op in enumerate(block.operations):
                    name(op, (block_id, index))
        get = ids.get
        #: ``Pickler.persistent_id``: the id of a program object, else None.
        self.persistent_id = lambda obj: get(id(obj))
        #: ``Unpickler.persistent_load``: the object an id names.
        self.persistent_load = objects.__getitem__

