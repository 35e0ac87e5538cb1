"""Content-addressed on-disk result store for pipeline jobs.

:class:`DiskCache` holds pickled values addressed by a job's content
hash (:meth:`repro.runner.jobs.JobSpec.key`), which already folds in
:data:`repro.runner.jobs.CODE_VERSION` — so code changes miss naturally.
:data:`FORMAT_VERSION` versions the *store layout* instead: a layout
change moves to a new namespace and strands (rather than misreads) old
entries.

The store lives in ``~/.cache/repro`` by default, overridable with
``--cache-dir`` or ``$REPRO_CACHE_DIR``::

    <root>/v1/<key[:2]>/<key>.pkl     pickled stage result
    <root>/v1/<key[:2]>/<key>.json    sidecar manifest (human-inspectable)

The store is fault-tolerant by construction: writes go through a
temporary file and an atomic ``os.replace`` (a concurrent writer racing
on the same key wins-or-noops, never corrupts), and any unreadable or
truncated entry is treated as a miss and evicted.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Bump when the on-disk layout (not the result semantics) changes.
FORMAT_VERSION = 1

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
    #: On-disk bytes per stage — traces and compilations dominate, and
    #: this is what says so without spelunking the shard directories.
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
    """

    def __init__(self, root: Optional[Path] = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # -- paths --------------------------------------------------------------

    @property
    def store(self) -> Path:
        return self.root / f"v{FORMAT_VERSION}"

    def _paths(self, key: str) -> Tuple[Path, Path]:
        shard = self.store / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

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
        try:
            payload = self._paths(key)[0].read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        try:
            value = self.decode(payload, refs)
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
        pkl, manifest_path = self._paths(key)
        self._atomic_write(pkl, payload)
        self._atomic_write(
            manifest_path, (json.dumps(meta, indent=2) + "\n").encode("utf-8")
        )
        return payload

    def evict(self, key: str) -> None:
        """Best-effort removal of one entry."""
        for path in self._paths(key):
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        """Last-writer-wins atomic replace, safe under concurrent writers.

        Two writers racing on the same key each stage a unique temporary
        file and ``os.replace`` it over the destination — the second
        simply overwrites the first's (identical) entry.  A concurrent
        ``clear()`` can yank the shard directory out from under either
        step; both spots retry once after recreating it, and if the
        directory is lost twice the write is dropped (the entry was
        being deleted anyway).  A replace refused by the OS while a
        complete entry exists means another writer won: noop.
        """
        for _ in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=path.parent, prefix=path.name, suffix=".tmp"
                )
            except (FileNotFoundError, FileExistsError):
                # The shard was removed between mkdir and mkstemp, or
                # inside mkdir itself: pathlib reports a directory that
                # appeared and vanished again as FileExistsError.
                continue
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                _unlink_quietly(tmp)
                continue  # shard removed under the replace; retry
            except OSError:
                _unlink_quietly(tmp)
                if path.exists():
                    return  # a concurrent writer already won this key
                raise
            except BaseException:
                _unlink_quietly(tmp)
                raise

    def stats(self) -> CacheStats:
        stats = CacheStats(root=str(self.root), hits=self.hits, misses=self.misses)
        if not self.store.is_dir():
            return stats
        for manifest_path in self.store.glob("*/*.json"):
            pkl = manifest_path.with_suffix(".pkl")
            if not pkl.exists():
                continue
            stats.entries += 1
            size = pkl.stat().st_size
            stats.total_bytes += size
            try:
                meta = json.loads(manifest_path.read_text())
                stage = str(meta.get("stage", "unknown"))
            except (OSError, json.JSONDecodeError):
                stage = "unknown"
            stats.by_stage[stage] = stats.by_stage.get(stage, 0) + 1
            stats.bytes_by_stage[stage] = (
                stats.bytes_by_stage.get(stage, 0) + size
            )
        return stats

    def clear(self) -> int:
        """Delete every entry of the current format version; return the count.

        Leftovers that are not entries go too, uncounted: a killed
        writer's ``<key>.pkl….tmp`` and a sidecar whose payload is gone.
        Either would otherwise keep its shard directory alive.
        """
        removed = 0
        if not self.store.is_dir():
            return removed
        for path in self.store.glob("*/*"):
            if path.suffix not in (".pkl", ".json", ".tmp"):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if path.suffix == ".pkl":
                removed += 1
        for shard in self.store.glob("*"):
            try:
                shard.rmdir()
            except OSError:
                pass
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


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
