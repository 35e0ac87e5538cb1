"""Job keys and machine fingerprints are hashed once, and stay out of the cache.

``JobSpec.key()`` and ``MachineDescription.fingerprint()`` memoise on the
instance.  These tests pin what that must not change: equal specs key
equally however they were built, the memo never reaches pickled state
(so cached payload bytes do not depend on it), and one run hashes each
job of its graph a bounded number of times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import types

from repro.machine import spec as machine_spec_module
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_4W_SPEC, PLAYDOH_8W
from repro.machine.spec import MachineSpec
from repro.runner.cache import DiskCache
from repro.runner.executor import Runner
from repro.runner.graph import JobGraph
from repro.runner.jobs import JobSpec, compile_job, pipeline_jobs, simulate_spec
from repro.runner import jobs as jobs_module


def _fresh_machine(name: str = "playdoh-4w"):
    """A machine equal to PLAYDOH_4W but built through its spec JSON."""
    return MachineSpec.from_canonical(
        json.loads(PLAYDOH_4W_SPEC.override(name=name).to_json())
    ).build()


class TestKeyMemo:
    def test_equal_specs_built_separately_have_equal_keys(self):
        memoised = simulate_spec("li", PLAYDOH_4W, scale=0.5)
        memoised.key()
        separate = JobSpec(
            "simulate",
            "li",
            scale=0.5,
            machine=_fresh_machine(),
            spec_config=memoised.spec_config,
        )
        assert separate == memoised
        assert separate.key() == memoised.key()

    def test_replace_does_not_inherit_the_memo(self):
        spec = simulate_spec("li", PLAYDOH_4W, scale=0.5)
        spec.key()
        moved = dataclasses.replace(spec, scale=0.25)
        assert moved.key() != spec.key()
        assert moved.key() == simulate_spec("li", PLAYDOH_4W, scale=0.25).key()

    def test_memoised_key_stays_out_of_the_pickle(self):
        spec = simulate_spec("swim", _fresh_machine("memo-pickle"), scale=0.5)
        before = pickle.dumps(spec)
        spec.key()
        assert pickle.dumps(spec) == before
        assert pickle.loads(pickle.dumps(spec)).key() == spec.key()


class TestCachedPayloads:
    def test_compilation_pickles_the_same_with_or_without_a_fingerprint(self):
        runner = Runner(cache=DiskCache(enabled=False))
        compilation = runner.run_job(compile_job("li", PLAYDOH_4W, scale=0.1))
        plain = pickle.loads(pickle.dumps(compilation))
        fingerprinted = pickle.loads(pickle.dumps(compilation))
        fingerprinted.machine.fingerprint()
        assert "_fingerprint" not in plain.machine.__dict__
        assert pickle.dumps(fingerprinted) == pickle.dumps(plain)


class TestHashCount:
    def test_each_job_is_hashed_at_most_twice_per_run(self, monkeypatch):
        digests = []

        def counting_sha256(*args, **kwargs):
            digests.append(1)
            return hashlib.sha256(*args, **kwargs)

        counting = types.SimpleNamespace(sha256=counting_sha256)
        monkeypatch.setattr(jobs_module, "hashlib", counting)
        monkeypatch.setattr(machine_spec_module, "hashlib", counting)
        # A version no earlier test used, so no shared spec carries a
        # memo this run could reuse.
        monkeypatch.setattr(jobs_module, "CODE_VERSION", "hash-count")

        jobs = pipeline_jobs(
            ["li", "compress"], [PLAYDOH_4W, PLAYDOH_8W], scale=0.1
        )
        Runner(cache=DiskCache(enabled=False)).run(jobs)
        hashed = len(digests)
        distinct = len(JobGraph(jobs))
        assert distinct == 14
        assert hashed <= 2 * distinct, hashed
