"""Job-key semantics, the disk cache, and the job graph."""

from __future__ import annotations

import contextlib
import dataclasses
import sqlite3
import subprocess
import sys

import pytest

from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.runner.cache import DiskCache
from repro.runner.graph import CycleError, JobGraph
from repro.runner.jobs import (
    Job,
    JobSpec,
    build_spec,
    compile_spec,
    pipeline_jobs,
    profile_spec,
    simulate_job,
    simulate_spec,
)
from repro.runner import jobs as jobs_module


class TestJobKeys:
    def test_identical_settings_hit_the_same_key(self):
        a = simulate_spec("swim", PLAYDOH_4W, scale=0.5)
        b = simulate_spec("swim", PLAYDOH_4W, scale=0.5)
        assert a == b
        assert a.key() == b.key()

    def test_key_is_stable_not_process_salted(self):
        # sha256 of canonical content, so the key must equal a
        # recomputation from an equal-but-distinct spec object; Python's
        # per-process hash randomisation must not leak in.
        spec = compile_spec("li", PLAYDOH_4W, scale=1.0)
        clone = compile_spec("li", PLAYDOH_4W, scale=1.0)
        assert spec.key() == clone.key()
        assert len(spec.key()) == 64
        int(spec.key(), 16)  # hex digest

    def test_threshold_change_misses_compile_but_not_profile(self):
        base = SpeculationConfig()
        tuned = dataclasses.replace(base, threshold=0.9)
        assert (
            compile_spec("li", PLAYDOH_4W, spec_config=base).key()
            != compile_spec("li", PLAYDOH_4W, spec_config=tuned).key()
        )
        # Profiles are config-independent: threshold sweeps share them.
        assert profile_spec("li").key() == profile_spec("li").key()
        assert "spec_config" not in [n for n, _ in profile_spec("li").params]

    @pytest.mark.parametrize(
        "variant",
        [
            simulate_spec("li", PLAYDOH_4W, scale=0.5),
            simulate_spec("li", PLAYDOH_8W, scale=1.0),
            simulate_spec("li", PLAYDOH_4W, scale=1.0, model_icache=True),
            simulate_spec("swim", PLAYDOH_4W, scale=1.0),
            compile_spec("li", PLAYDOH_4W, scale=1.0),
        ],
    )
    def test_any_changed_knob_misses(self, variant):
        reference = simulate_spec("li", PLAYDOH_4W, scale=1.0)
        assert variant.key() != reference.key()

    def test_code_version_salts_every_key(self, monkeypatch):
        spec = profile_spec("compress")
        before = spec.key()
        monkeypatch.setattr(jobs_module, "CODE_VERSION", "test-bump")
        assert spec.key() != before

    def test_job_id_is_human_readable(self):
        spec = simulate_spec("swim", PLAYDOH_4W, model_icache=True)
        assert spec.job_id == "simulate:swim@playdoh-4w[model_icache]"
        assert profile_spec("li").job_id == "profile:li"


class TestJobGraph:
    def test_simulate_job_pulls_its_whole_ancestry(self):
        graph = JobGraph([simulate_job("li", PLAYDOH_4W, scale=0.5)])
        stages = sorted(job.spec.stage for job in graph.jobs)
        assert stages == ["build", "compile", "profile", "simulate", "trace"]
        waves = graph.waves()
        order = [sorted(j.spec.stage for j in wave) for wave in waves]
        assert order == [
            ["build"], ["trace"], ["profile"], ["compile"], ["simulate"]
        ]

    def test_graph_deduplicates_by_content(self):
        jobs = pipeline_jobs(
            ["li", "swim"], [PLAYDOH_4W, PLAYDOH_8W], scale=0.5
        )
        graph = JobGraph(jobs)
        # 2 builds + 2 traces + 2 profiles + 4 compiles + 4 simulates:
        # the trace job is machine-free, so both machines (and all four
        # simulates) share one per benchmark.
        assert len(graph) == 14
        graph.add(simulate_job("li", PLAYDOH_4W, scale=0.5))
        assert len(graph) == 14

    def test_every_wave_depends_only_on_earlier_waves(self):
        graph = JobGraph(pipeline_jobs(["li"], [PLAYDOH_4W], scale=0.5))
        seen = set()
        for wave in graph.waves():
            for job in wave:
                assert all(dep.key() in seen for dep in job.deps)
            seen.update(job.key() for job in wave)

    def test_cycles_are_reported(self):
        a = JobSpec("flaky-a", "x")
        b = JobSpec("flaky-b", "x")
        graph = JobGraph()
        graph.add(Job(a, deps=(b,)))
        graph.add(Job(b, deps=(a,)))
        with pytest.raises(CycleError):
            graph.waves()


class TestDiskCache:
    def test_round_trip_and_manifest(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        cache.put("ab" * 32, {"answer": 42}, manifest={"stage": "simulate"})
        hit, value = cache.get("ab" * 32)
        assert hit and value == {"answer": 42}
        [(key, manifest, payload)] = cache.entries()
        assert key == "ab" * 32
        assert manifest["stage"] == "simulate"
        assert manifest["key"] == "ab" * 32
        assert manifest["size_bytes"] == len(payload) > 0
        assert cache.decode(payload) == {"answer": 42}

    def test_the_store_is_one_file(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        for n in range(3):
            cache.put(f"{n:064x}", n, manifest={"stage": "simulate"})
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == [cache.store.name]
        assert DiskCache(root=tmp_path).get(f"{2:064x}") == (True, 2)

    def test_miss_on_unknown_key(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        hit, value = cache.get("cd" * 32)
        assert not hit and value is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        cache.put("ef" * 32, [1, 2, 3], manifest={"stage": "simulate"})
        cache.put("0f" * 32, [4, 5], manifest={"stage": "simulate"})
        with contextlib.closing(sqlite3.connect(cache.store)) as other:
            with other:
                other.execute(
                    "UPDATE entries SET payload = ? WHERE key = ?",
                    (b"not a pickle", "ef" * 32),
                )
        assert cache.get("ef" * 32) == (False, None)
        assert cache.misses == 1
        assert [key for key, _, _ in cache.entries()] == ["0f" * 32]
        assert cache.stats().entries == 1

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = DiskCache(root=tmp_path, enabled=False)
        cache.put("12" * 32, "value")
        assert cache.get("12" * 32) == (False, None)
        cache.close()
        assert list(tmp_path.iterdir()) == []

    def test_reading_a_missing_store_creates_nothing(self, tmp_path):
        cache = DiskCache(root=tmp_path / "cache")
        assert cache.stats().entries == 0
        assert list(cache.entries()) == []
        assert cache.clear() == 0
        cache.evict("34" * 32)
        assert not (tmp_path / "cache").exists()

    def test_stats_and_clear(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        cache.put("11" * 32, "a", manifest={"stage": "profile"})
        cache.put("22" * 32, "b", manifest={"stage": "simulate"})
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.by_stage == {"profile": 1, "simulate": 1}
        assert stats.total_bytes == sum(len(p) for _, _, p in cache.entries())
        assert stats.bytes_by_stage.keys() == stats.by_stage.keys()
        assert "2" in stats.render()
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_clear_shrinks_the_file(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        for n in range(40):
            cache.put(f"{n:064x}", bytes(4096), manifest={"stage": "trace"})
        cache.close()
        full = cache.store.stat().st_size
        assert cache.clear() == 40
        cache.close()
        assert cache.stats().entries == 0
        assert cache.store.stat().st_size < full

    def test_a_killed_writer_leaves_no_entry(self, tmp_path):
        # A writer that dies inside its transaction commits nothing:
        # its entry is not there, and clear() counts only real entries.
        cache = DiskCache(root=tmp_path)
        cache.put("11" * 32, "a", manifest={"stage": "profile"})
        cache.close()
        killed = (
            "import os, sqlite3\n"
            f"conn = sqlite3.connect({str(cache.store)!r}, isolation_level=None)\n"
            "conn.execute('BEGIN')\n"
            "conn.execute('INSERT INTO entries VALUES (?, ?, ?, ?)',"
            " ('22' * 32, 'profile', '{}', b'partial'))\n"
            "os._exit(0)\n"
        )
        subprocess.run([sys.executable, "-c", killed], check=True, timeout=60)
        assert cache.get("22" * 32) == (False, None)
        assert [key for key, _, _ in cache.entries()] == ["11" * 32]
        assert cache.clear() == 1
