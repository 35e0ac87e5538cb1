"""Equivalence and warm-cache guarantees of the runner-backed Evaluation.

The contract the CLI advertises: a runner-backed run, a warm-cache
rerun and the plain in-process pipeline produce byte-identical JSON
rows, and the warm rerun executes zero pipeline jobs (verified via the
events log).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.evaluation import table2, table3
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.runner.cache import DiskCache
from repro.runner.events import EventLog, executed_jobs, read_events
from repro.runner.executor import Runner

SCALE = 0.2
SETTINGS = EvaluationSettings(scale=SCALE)


def _rows_json(evaluation: Evaluation) -> str:
    return json.dumps(
        [dataclasses.asdict(row) for row in table2.compute(evaluation)],
        indent=2,
    )


@pytest.fixture(scope="module")
def serial_rows() -> str:
    """Ground truth: the original in-process pipeline, no runner at all."""
    return _rows_json(Evaluation(SETTINGS))


class TestParallelEquivalence:
    def test_serial_runner_rows_are_byte_identical_to_serial(
        self, tmp_path, serial_rows
    ):
        runner = Runner(cache=DiskCache(root=tmp_path / "cache"))
        evaluation = Evaluation(SETTINGS, runner=runner)
        evaluation.warm(["table2"])
        assert _rows_json(evaluation) == serial_rows

    def test_no_cache_runner_rows_are_byte_identical_to_serial(
        self, serial_rows
    ):
        runner = Runner(cache=DiskCache(enabled=False))
        evaluation = Evaluation(SETTINGS, runner=runner)
        evaluation.warm(["table2"])
        assert _rows_json(evaluation) == serial_rows

    def test_warm_cache_rerun_is_identical_and_executes_nothing(
        self, tmp_path, serial_rows
    ):
        cache_root = tmp_path / "cache"
        events_path = tmp_path / "warm-events.jsonl"
        cold = Runner(cache=DiskCache(root=cache_root))
        Evaluation(SETTINGS, runner=cold).warm(["table2"])
        assert cold.events.executed > 0

        warm_runner = Runner(
            cache=DiskCache(root=cache_root),
            events=EventLog(path=str(events_path)),
        )
        warm = Evaluation(SETTINGS, runner=warm_runner)
        warm.warm(["table2"])
        assert _rows_json(warm) == serial_rows
        warm_runner.events.close()

        events = read_events(str(events_path))
        for stage in ("build", "profile", "compile", "simulate"):
            assert executed_jobs(events, stage) == []
        assert warm_runner.events.cache_hits > 0

    def test_compilations_survive_the_pickle_round_trip(self, tmp_path):
        """Table 3 reads compilations back through the cache's pickle
        round trip; the unpickled objects must rebuild their memoised
        timings on demand."""
        plain = json.dumps(
            [dataclasses.asdict(r) for r in table3.compute(Evaluation(SETTINGS))]
        )
        runner = Runner(cache=DiskCache(root=tmp_path / "cache"))
        evaluation = Evaluation(SETTINGS, runner=runner)
        evaluation.warm(["table3"])
        via_runner = json.dumps(
            [dataclasses.asdict(r) for r in table3.compute(evaluation)]
        )
        assert via_runner == plain


class TestCacheSharing:
    def test_warm_all_executes_zero_jobs(self, tmp_path):
        cache_root = tmp_path / "cache"
        cold = Runner(cache=DiskCache(root=cache_root))
        Evaluation(SETTINGS, runner=cold).warm(None)
        cold_summary = cold.events.summary()
        assert cold_summary["executed"] > 0

        warm = Runner(cache=DiskCache(root=cache_root))
        Evaluation(SETTINGS, runner=warm).warm(None)
        warm_summary = warm.events.summary()
        assert warm_summary["executed"] == 0
        assert warm_summary["executed_by_stage"] == {}
        assert warm_summary["cache_hits"] == cold_summary["executed"]

    def test_threshold_sweep_shares_builds_and_profiles(self, tmp_path):
        """Another threshold recompiles, but serves the interpreter
        stages (build and profile) from the cache."""
        cache_root = tmp_path / "cache"
        first = Runner(cache=DiskCache(root=cache_root))
        Evaluation(SETTINGS, runner=first).warm(["table2"])

        second = Runner(cache=DiskCache(root=cache_root))
        Evaluation(SETTINGS.with_threshold(0.9), runner=second).warm(["table2"])
        by_stage = second.events.summary()["executed_by_stage"]
        assert by_stage.get("build", 0) == 0
        assert by_stage.get("profile", 0) == 0
        assert by_stage.get("compile", 0) > 0


class TestEvaluationRunnerDelegation:
    def test_unwarmed_access_still_works_through_the_runner(self, tmp_path):
        """Stage accessors fall through to run_job on cold caches."""
        runner = Runner(cache=DiskCache(root=tmp_path / "cache"))
        evaluation = Evaluation(SETTINGS, runner=runner)
        sim = evaluation.simulation("compress", evaluation.machine_4w)
        assert sim.cycles_proposed > 0
        # Every ancestor stage executed exactly once: build, trace,
        # profile, compile and simulate.
        assert runner.events.executed == 5

    def test_benchmark_filter_narrows_the_job_graph(self, tmp_path):
        settings = SETTINGS.with_benchmarks(["li", "swim"])
        runner = Runner(cache=DiskCache(root=tmp_path / "cache"))
        evaluation = Evaluation(settings, runner=runner)
        jobs = evaluation.required_jobs(["table2"])
        assert sorted(j.spec.benchmark for j in jobs) == ["li", "swim"]
        rows = table2.compute(evaluation)
        assert [r.benchmark for r in rows] == ["li", "swim"]



def test_partially_warm_cache_prints_the_cold_output(tmp_path, capsys):
    """``table2`` then ``all`` into one cache prints what a fresh cold
    ``all`` does, and leaves the same payload bytes.  The second run
    reads table2's compile payloads back against builds it decodes, and
    compiles the rest itself after those in-process jobs; op ids come
    from the program alone, so its compiles pickle as a cold run's do."""
    from repro.evaluation.__main__ import main

    def run(*args: str) -> str:
        assert main([*args, "--json", "--scale", "0.1"]) == 0
        return capsys.readouterr().out

    def payloads(root):
        return {key: payload for key, _, payload in DiskCache(root).entries()}

    partial, cold = tmp_path / "partial", tmp_path / "cold"
    run("table2", "--cache-dir", str(partial))
    partially_warm = run("all", "--cache-dir", str(partial))
    assert partially_warm == run("all", "--cache-dir", str(cold))
    warm_payloads, cold_payloads = payloads(partial), payloads(cold)
    assert cold_payloads and warm_payloads.keys() == cold_payloads.keys()
    assert [k for k in cold_payloads if warm_payloads[k] != cold_payloads[k]] == []
