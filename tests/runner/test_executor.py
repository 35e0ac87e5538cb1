"""Executor fault tolerance: stage errors, timeouts, pool loss, serial fallback.

Synthetic stages are registered at import time so ``fork``-started
workers inherit them.  Cross-process state (attempt counts) lives in
scratch files addressed through the job's ``params`` — the only channel
that survives the process boundary.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runner import (
    DiskCache,
    EventLog,
    Job,
    JobError,
    JobSpec,
    Runner,
    register_stage,
)


def _bump_counter(path: str) -> int:
    """Append-one attempt counter that is atomic enough for two workers."""
    with open(path, "a") as fh:
        fh.write("x")
    with open(path) as fh:
        return len(fh.read())


def _count(spec: JobSpec, deps):
    attempt = _bump_counter(spec.param("counter"))
    return {"benchmark": spec.benchmark, "succeeded_on_attempt": attempt}


def _raise(spec: JobSpec, deps):
    _bump_counter(spec.param("counter"))
    raise RuntimeError("deterministic stage error")


def _slow_once(spec: JobSpec, deps):
    attempt = _bump_counter(spec.param("counter"))
    if attempt <= spec.param("slow_times", 0):
        time.sleep(spec.param("sleep", 30.0))
    return {"benchmark": spec.benchmark, "attempt": attempt}


def _die_in_worker(spec: JobSpec, deps):
    if os.getpid() != spec.param("parent_pid"):
        os._exit(1)  # hard-kill the worker: parent sees BrokenProcessPool
    return "survived-serially"


register_stage("count", _count)
register_stage("raise", _raise)
register_stage("slow-once", _slow_once)
register_stage("die-in-worker", _die_in_worker)


def _job(stage: str, benchmark: str = "x", **params) -> Job:
    return Job(JobSpec(stage, benchmark, params=tuple(sorted(params.items()))))


def _runner(tmp_path, **kw) -> Runner:
    kw.setdefault("cache", DiskCache(root=tmp_path / "cache"))
    kw.setdefault("events", EventLog())
    kw.setdefault("backoff", 0.01)
    return Runner(**kw)


class TestStageErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stage_error_is_not_retried(self, tmp_path, jobs):
        # Stage bodies are pure: a retry would raise the same error, so
        # the job fails on its first and only execution.
        counter = tmp_path / "attempts"
        runner = _runner(tmp_path, jobs=jobs, retries=2)
        with runner:
            with pytest.raises(JobError) as excinfo:
                runner.run_job(_job("raise", counter=str(counter)))
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value.cause, RuntimeError)
        assert counter.read_text() == "x"
        assert len(runner.events.of_type("job_start")) == 1
        assert len(runner.events.of_type("job_failed")) == 1
        assert runner.events.of_type("job_retry") == []

    def test_failed_job_is_not_run_again(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("raise", counter=str(counter))
        runner = _runner(tmp_path, jobs=1)
        with runner:
            for _ in range(2):
                with pytest.raises(JobError):
                    runner.run([job])
        assert counter.read_text() == "x"
        assert len(runner.events.of_type("job_failed")) == 1

    def test_pooled_error_still_collects_the_rest_of_the_wave(self, tmp_path):
        bad = _job("raise", counter=str(tmp_path / "bad"))
        good = _job("count", counter=str(tmp_path / "good"))
        runner = _runner(tmp_path, jobs=2)
        with runner:
            with pytest.raises(JobError):
                runner.run([bad, good])
            # The sibling's result was kept, so reading it runs nothing.
            assert runner.run_job(good)["succeeded_on_attempt"] == 1
        assert (tmp_path / "good").read_text() == "x"
        assert len(runner.events.of_type("job_start")) == 2


class TestRetry:
    """Only timeouts spend the retry budget, with jittered backoff."""

    def test_retry_budget_exhausted_raises_job_error(self, tmp_path):
        counter = tmp_path / "attempts"
        runner = _runner(tmp_path, jobs=2, timeout=0.5, retries=1)
        with runner:
            with pytest.raises(JobError) as excinfo:
                runner.run_job(
                    _job("slow-once", counter=str(counter), slow_times=99)
                )
        assert excinfo.value.attempts == 2
        assert len(runner.events.of_type("job_retry")) == 1
        assert len(runner.events.of_type("job_failed")) == 1

    def test_backoff_between_attempts(self, tmp_path):
        counter = tmp_path / "attempts"
        timeout = 0.5
        runner = _runner(
            tmp_path, jobs=2, timeout=timeout, retries=2, backoff=0.05
        )
        t0 = time.monotonic()
        with runner:
            runner.run_job(_job("slow-once", counter=str(counter), slow_times=2))
        elapsed = time.monotonic() - t0
        # Exponential growth with up to +50% deterministic jitter
        # (RetryPolicy default): each delay lands in [base*2^k, 1.5x that].
        delays = [e["backoff"] for e in runner.events.of_type("job_retry")]
        assert len(delays) == 2
        assert 0.05 <= delays[0] <= 0.075
        assert 0.10 <= delays[1] <= 0.15
        # Two timed-out attempts, then the runner really slept each delay.
        assert elapsed >= 2 * timeout + sum(delays)

    def test_retry_delays_are_deterministic_per_job(self, tmp_path):
        # Jitter is seeded by (job key, attempt): two different jobs
        # decorrelate.  NB: the jobs differ only in their counter param,
        # so their keys differ and the jitter streams should not coincide.
        delays = []
        for name in ("a", "b"):
            runner = _runner(tmp_path / name, jobs=2, timeout=0.5, retries=2)
            with runner:
                with pytest.raises(JobError):
                    runner.run_job(
                        _job("slow-once", counter=str(tmp_path / name),
                             slow_times=99)
                    )
            delays.append(
                [e["backoff"] for e in runner.events.of_type("job_retry")]
            )
        assert len(delays[0]) == len(delays[1]) == 2
        assert delays[0] != delays[1]


class TestTimeout:
    def test_timeout_then_succeed_on_fresh_pool(self, tmp_path):
        counter = tmp_path / "attempts"
        runner = _runner(tmp_path, jobs=2, timeout=0.5, retries=2)
        with runner:
            result = runner.run_job(
                _job("slow-once", counter=str(counter), slow_times=1, sleep=30.0)
            )
        assert result["attempt"] >= 2
        retries = runner.events.of_type("job_retry")
        assert retries and "timeout" in retries[0]["error"]

    def test_timeout_budget_exhausted_raises(self, tmp_path):
        counter = tmp_path / "attempts"
        runner = _runner(tmp_path, jobs=2, timeout=0.3, retries=0)
        with runner:
            with pytest.raises(JobError) as excinfo:
                runner.run_job(
                    _job("slow-once", counter=str(counter), slow_times=99, sleep=30.0)
                )
        assert isinstance(excinfo.value.cause, TimeoutError)


class TestSerialFallback:
    def test_pool_creation_failure_degrades_to_serial(self, tmp_path):
        def broken_factory(workers):
            raise OSError("no processes in this sandbox")

        counter = tmp_path / "attempts"
        runner = _runner(tmp_path, jobs=4, pool_factory=broken_factory)
        with runner:
            result = runner.run_job(_job("count", counter=str(counter)))
        assert result["succeeded_on_attempt"] == 1
        fallbacks = runner.events.of_type("fallback")
        assert fallbacks and "pool" in fallbacks[0]["reason"]

    def test_worker_death_degrades_to_serial(self, tmp_path):
        runner = _runner(tmp_path, jobs=2, retries=0)
        with runner:
            result = runner.run_job(
                _job("die-in-worker", parent_pid=os.getpid())
            )
        assert result == "survived-serially"
        assert runner.events.of_type("fallback")


class TestCachingThroughTheExecutor:
    def test_second_run_executes_nothing(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("count", counter=str(counter))
        first = _runner(tmp_path, jobs=1)
        with first:
            first.run([job])
        assert first.events.executed == 1
        second = _runner(tmp_path, jobs=1)
        with second:
            value = second.run([job])[job.key()]
        assert value["succeeded_on_attempt"] == 1
        assert second.events.executed == 0
        assert second.events.cache_hits == 1
        # The stage body really did not run again.
        assert counter.read_text() == "x"

    def test_no_cache_mode_executes_every_time(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("count", counter=str(counter))
        for expected in (1, 2):
            runner = _runner(
                tmp_path, jobs=1, cache=DiskCache(enabled=False)
            )
            with runner:
                value = runner.run([job])[job.key()]
            assert value["succeeded_on_attempt"] == expected

    def test_in_memory_memo_within_one_runner(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("count", counter=str(counter))
        runner = _runner(tmp_path, jobs=1, cache=DiskCache(enabled=False))
        with runner:
            runner.run_job(job)
            runner.run_job(job)
        assert counter.read_text() == "x"
