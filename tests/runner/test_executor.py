"""The serial executor: memo, then disk cache, then one execution per job.

Synthetic stages count their executions in scratch files addressed
through the job's ``params``, so a test can tell a run from a cache hit.
"""

from __future__ import annotations

import pytest

from repro.runner.cache import DiskCache
from repro.runner.events import EventLog
from repro.runner.executor import JobError, Runner
from repro.runner.jobs import Job, JobSpec, register_stage


def _bump_counter(path: str) -> int:
    """Append one mark; return how many executions the file has seen."""
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


register_stage("count", _count)
register_stage("raise", _raise)


def _job(stage: str, benchmark: str = "x", **params) -> Job:
    return Job(JobSpec(stage, benchmark, params=tuple(sorted(params.items()))))


def _runner(tmp_path, **kw) -> Runner:
    kw.setdefault("cache", DiskCache(root=tmp_path / "cache"))
    kw.setdefault("events", EventLog())
    return Runner(**kw)


class TestStageErrors:
    def test_stage_error_is_not_retried(self, tmp_path):
        # Stage bodies are pure: a second run would raise the same
        # error, so the job fails on its first and only execution.
        counter = tmp_path / "attempts"
        runner = _runner(tmp_path)
        with pytest.raises(JobError) as excinfo:
            runner.run_job(_job("raise", counter=str(counter)))
        assert isinstance(excinfo.value.cause, RuntimeError)
        assert counter.read_text() == "x"
        assert len(runner.events.of_type("job_start")) == 1
        assert len(runner.events.of_type("job_failed")) == 1

    def test_failed_job_is_not_run_again(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("raise", counter=str(counter))
        runner = _runner(tmp_path)
        for _ in range(2):
            with pytest.raises(JobError):
                runner.run([job])
        assert counter.read_text() == "x"
        assert len(runner.events.of_type("job_failed")) == 1

    def test_sibling_of_a_failed_job_runs_on_demand(self, tmp_path):
        # A failure stops the batch; a job it did not reach still runs
        # when it is asked for (what the explore driver relies on).
        bad = _job("raise", counter=str(tmp_path / "bad"))
        good = _job("count", counter=str(tmp_path / "good"))
        runner = _runner(tmp_path)
        with pytest.raises(JobError):
            runner.run([bad, good])
        assert runner.run_job(good)["succeeded_on_attempt"] == 1
        assert runner.run_job(good)["succeeded_on_attempt"] == 1
        assert (tmp_path / "good").read_text() == "x"


class TestCachingThroughTheExecutor:
    def test_second_run_executes_nothing(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("count", counter=str(counter))
        first = _runner(tmp_path)
        first.run([job])
        assert first.events.executed == 1
        second = _runner(tmp_path)
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
            runner = _runner(tmp_path, cache=DiskCache(enabled=False))
            value = runner.run([job])[job.key()]
            assert value["succeeded_on_attempt"] == expected

    def test_in_memory_memo_within_one_runner(self, tmp_path):
        counter = tmp_path / "attempts"
        job = _job("count", counter=str(counter))
        runner = _runner(tmp_path, cache=DiskCache(enabled=False))
        runner.run_job(job)
        runner.run_job(job)
        assert counter.read_text() == "x"

    def test_summary_counts_hits_misses_and_executions(self, tmp_path):
        job = _job("count", counter=str(tmp_path / "attempts"))
        _runner(tmp_path).run([job])
        runner = _runner(tmp_path)
        runner.run([job, _job("count", "y", counter=str(tmp_path / "y"))])
        summary = runner.events.summary()
        assert summary["executed"] == 1
        assert summary["cache_hits"] == 1
        assert summary["cache_misses"] == 1
        assert "retries" not in summary
