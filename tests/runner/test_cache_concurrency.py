"""DiskCache under concurrent writers, readers, and clears.

The contract under test: concurrent writers racing on one key
win-or-noop — readers observe either a miss or one complete entry, never
a torn one — and a ``clear()`` racing in-flight writes must not raise or
corrupt.  Threads share one cache object and its one connection; writer
processes each open their own.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.runner.cache import DiskCache

SRC = Path(__file__).resolve().parents[2] / "src"


def _key(seed: str) -> str:
    return hashlib.sha256(seed.encode()).hexdigest()


def _hammer(threads_fn, count: int) -> list:
    errors: list = []

    def wrap(fn):
        def run() -> None:
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        return run

    threads = [
        threading.Thread(target=wrap(threads_fn(n))) for n in range(count)
    ]
    # Switch threads far more often than the default 5 ms, so the
    # statements of different threads interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestConcurrentWriters:
    def test_many_writers_one_key(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = _key("contended")
        # Same key ⇒ by construction the same content; any writer's
        # payload is an acceptable final state.
        value = {"benchmark": "li", "cycles": 424242, "pad": list(range(500))}

        def writer(n: int):
            def body() -> None:
                for _ in range(30):
                    cache.put(key, value, manifest={"stage": "simulate"})
                    hit, got = cache.get(key)
                    assert hit and got == value

            return body

        assert _hammer(writer, 8) == []
        assert cache.get(key) == (True, value)
        assert cache.stats().entries == 1
        # Lost races leave nothing behind: the store is one file again
        # once closed.
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == [cache.store.name]

    def test_writers_on_distinct_keys(self, tmp_path):
        cache = DiskCache(root=tmp_path)

        def writer(n: int):
            def body() -> None:
                for i in range(20):
                    key = _key(f"{n}-{i}")
                    cache.put(key, (n, i), manifest={"stage": "test"})
                    assert cache.get(key) == (True, (n, i))

            return body

        assert _hammer(writer, 6) == []
        assert cache.stats().entries == 6 * 20

    def test_writers_survive_a_concurrent_clear(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        stop = threading.Event()

        def actor(n: int):
            if n == 0:
                def clearer() -> None:
                    while not stop.is_set():
                        cache.clear()

                return clearer

            def writer() -> None:
                try:
                    for i in range(60):
                        key = _key(f"{n}-{i}")
                        cache.put(key, i, manifest={"stage": "test"})
                        hit, value = cache.get(key)
                        # A racing clear may have taken the entry; a hit
                        # must still decode to exactly what was written.
                        assert not hit or value == i
                finally:
                    if n == 1:
                        stop.set()

            return writer

        assert _hammer(actor, 5) == []
        # The cache is still fully functional afterwards.
        cache.put(_key("after"), "alive")
        assert cache.get(_key("after")) == (True, "alive")

    def test_readers_never_see_a_torn_entry(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = _key("torn")
        # Two self-consistent payloads; a torn read would decode to
        # neither (or fail to decode, which get() must treat as a miss).
        payloads = [
            {"version": 0, "blob": b"a" * 4096},
            {"version": 1, "blob": b"b" * 4096},
        ]
        stop = threading.Event()

        def actor(n: int):
            if n < 2:
                def writer() -> None:
                    for _ in range(50):
                        cache.put(key, payloads[n], manifest={"stage": "test"})
                    stop.set()

                return writer

            def reader() -> None:
                while not stop.is_set():
                    hit, value = cache.get(key)
                    if hit:
                        assert value in payloads

            return reader

        assert _hammer(actor, 5) == []

    def test_evict_racing_put_leaves_no_partial_state(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = _key("churn")

        def actor(n: int):
            if n % 2 == 0:
                def putter() -> None:
                    for _ in range(50):
                        cache.put(key, "value", manifest={"stage": "test"})

                return putter

            def evicter() -> None:
                for _ in range(50):
                    cache.evict(key)

            return evicter

        assert _hammer(actor, 4) == []
        hit, value = cache.get(key)
        assert not hit or value == "value"


_WRITER = """
import sys
from pathlib import Path
from repro.runner.cache import DiskCache

root, name = Path(sys.argv[1]), sys.argv[2]
cache = DiskCache(root=root)
for i in range(400):
    # Keys 0-199 are shared with the other writer, 200-399 are this one's.
    key = f"{i:064x}" if i < 200 else f"{name}{i:062x}"
    cache.put(key, ("shared", i) if i < 200 else (name, i), manifest={"stage": name})
    hit, value = cache.get(key)
    assert hit, key
cache.close()
"""


class TestConcurrentProcesses:
    def test_two_writer_processes(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), name],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for name in ("aa", "bb")
        ]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err[-2000:]
        cache = DiskCache(root=tmp_path)
        entries = {key: cache.decode(payload) for key, _, payload in cache.entries()}
        assert len(entries) == 200 + 2 * 200
        for i in range(200):
            assert entries[f"{i:064x}"] == ("shared", i)
            for name in ("aa", "bb"):
                assert entries[f"{name}{i + 200:062x}"] == (name, i + 200)
        assert sum(cache.stats().by_stage.values()) == len(entries)
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == [cache.store.name]
