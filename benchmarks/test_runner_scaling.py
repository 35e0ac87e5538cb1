"""The runner's cache wins, measured on the real 8-benchmark suite.

A fully cached ``all``-experiments run executes *zero* pipeline jobs
(every stage served from disk), verified through the events log rather
than timing, so it holds on any host; and a threshold ablation reuses
the cached build/profile stages.

Timings route through :func:`repro.bench.harness.measure` (the same
warmup/repeats/robust-stats primitive ``repro-bench run`` uses), and
each test emits a machine-readable ``BENCH_*.json`` artifact into its
tmp dir — or into ``$REPRO_BENCH_DIR`` when set, so a CI job can
collect runner-scaling numbers straight from the benchmark suite.
"""

from __future__ import annotations

import os
from pathlib import Path

from conftest import BENCH_SCALE, runner_evaluation

from repro.bench.harness import BenchConfig, make_artifact, measure, scenario_entry
from repro.bench.harness import load_artifact, write_artifact
from repro.bench.scenarios import ScenarioRun


def _artifact_dir(tmp_path) -> Path:
    return Path(os.environ.get("REPRO_BENCH_DIR", tmp_path))


def _emit(tmp_path, scenarios) -> Path:
    """Write (and round-trip-check) a BENCH artifact for one test."""
    config = BenchConfig(
        preset="runner-scaling",
        workload_scale=BENCH_SCALE,
        repeats=1,
        warmup=0,
    )
    path = write_artifact(make_artifact(config, scenarios), _artifact_dir(tmp_path))
    assert load_artifact(path)["scenarios"].keys() == scenarios.keys()
    return path


def _cold_warm_run(cache_root, experiments):
    evaluation, runner = runner_evaluation(cache_root)
    evaluation.warm(experiments)
    summary = runner.events.summary()
    return ScenarioRun(
        counters={"jobs_executed": float(summary["executed"])},
        extra={"runner": summary},
    )


def test_warm_all_run_executes_zero_jobs(tmp_path):
    cache = tmp_path / "cache"
    cold = measure(
        lambda: _cold_warm_run(cache, experiments=None),
        repeats=1,
        warmup=0,
    )
    cold_summary = cold.results[0].extra["runner"]
    assert cold_summary["executed"] > 0

    warm = measure(
        lambda: _cold_warm_run(cache, experiments=None),
        repeats=1,
        warmup=0,
    )
    warm_summary = warm.results[0].extra["runner"]
    path = _emit(
        tmp_path,
        {
            "runner_cold": scenario_entry(
                cold.stats, cold.results, subsystems=("runner",)
            ),
            "runner_warm": scenario_entry(
                warm.stats, warm.results, subsystems=("runner",)
            ),
        },
    )
    artifact = load_artifact(path)
    assert artifact["scenarios"]["runner_warm"]["wall_s"]["n"] == 1

    assert warm_summary["executed"] == 0
    assert warm_summary["executed_by_stage"] == {}
    assert warm_summary["cache_hits"] == cold_summary["executed"]
    # Reading pickles must be much cheaper than re-running the pipeline.
    assert warm.stats.median < cold.stats.median


def test_threshold_sweep_shares_profiles(tmp_path):
    """An ablation at a different threshold re-runs compile/simulate but
    serves build/profile — the expensive interpreter runs — from cache."""
    from repro.evaluation.experiment import Evaluation, EvaluationSettings
    from repro.runner import DiskCache, Runner

    cache = tmp_path / "cache"
    base = EvaluationSettings(scale=BENCH_SCALE)
    first = Runner(cache=DiskCache(root=cache))
    Evaluation(base, runner=first).warm(["table2"])

    second = Runner(cache=DiskCache(root=cache))
    Evaluation(base.with_threshold(0.9), runner=second).warm(["table2"])
    by_stage = second.events.summary()["executed_by_stage"]
    assert by_stage.get("build", 0) == 0
    assert by_stage.get("profile", 0) == 0
    assert by_stage.get("compile", 0) > 0
