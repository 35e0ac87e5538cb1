"""A value trace that does not match its program fails the stage that
reads it, with the mismatch as the reason: profiling and simulation read
only the trace, so there is no second, live run to fall back on."""

from __future__ import annotations

import pytest

from repro.explore.driver import explore
from repro.explore.space import Axis, DesignSpace
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_4W_SPEC
from repro.runner import jobs
from repro.runner.cache import DiskCache
from repro.runner.executor import JobError, Runner
from repro.runner.jobs import compile_job, profile_job, simulate_job, trace_job
from repro.trace.capture import capture_trace
from repro.trace.format import TraceMismatch
from repro.workloads.suite import load_benchmark

SCALE = 0.25
BENCHMARK = "compress"


def _stale_trace(spec, dep_results):
    """The trace of the same benchmark built at another scale: a
    different program, as a trace left over from an older build is."""
    return capture_trace(load_benchmark(spec.benchmark, scale=spec.scale / 2))


@pytest.fixture
def stale_runner(tmp_path, monkeypatch):
    """A runner whose cache holds ``warm`` jobs' good results, but whose
    trace stage now returns a stale trace."""

    def make(*warm):
        cache = DiskCache(root=tmp_path / "cache")
        if warm:
            Runner(cache=cache).run(warm)
            cache.evict(trace_job(BENCHMARK, scale=SCALE).key())
        monkeypatch.setitem(jobs._STAGES, "trace", _stale_trace)
        return Runner(cache=cache)

    return make


def _assert_fails_with_mismatch(runner, job):
    with pytest.raises(JobError) as info:
        runner.run_job(job)
    assert info.value.job.spec.stage == job.spec.stage
    assert isinstance(info.value.cause, TraceMismatch)
    assert "different program" in str(info.value.cause)


def test_profile_job_fails(stale_runner):
    _assert_fails_with_mismatch(
        stale_runner(), profile_job(BENCHMARK, scale=SCALE)
    )


def test_simulate_job_fails(stale_runner):
    runner = stale_runner(compile_job(BENCHMARK, PLAYDOH_4W, scale=SCALE))
    _assert_fails_with_mismatch(
        runner, simulate_job(BENCHMARK, PLAYDOH_4W, scale=SCALE)
    )


def test_explore_prunes_the_point_with_the_mismatch(stale_runner):
    space = DesignSpace(
        base=PLAYDOH_4W_SPEC, axes=(Axis.parse("threshold=0.5,0.8"),)
    )
    outcome = explore(
        space.grid(), scale=SCALE, benchmarks=[BENCHMARK], runner=stale_runner()
    )
    assert outcome.results == ()
    assert [p.reason for p in outcome.pruned] == ["error", "error"]
    for pruned in outcome.pruned:
        assert pruned.detail.startswith("TraceMismatch: ")
