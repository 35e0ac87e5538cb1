"""Shared fixtures for the benchmark harness.

Each ``test_table*.py`` / ``test_figure8.py`` module regenerates one
table or figure of the paper and asserts its *shape* (who wins, by
roughly what factor) while pytest-benchmark times the regeneration.

``BENCH_SCALE`` shrinks the workloads so a full ``pytest benchmarks/
--benchmark-only`` run stays interactive; the shapes are stable from
scale 0.4 upward (below that, value profiles have not warmed up enough
for the paper's 0.65 threshold).
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiment import Evaluation, EvaluationSettings

BENCH_SCALE = 0.4


def fresh_evaluation(scale: float = BENCH_SCALE) -> Evaluation:
    return Evaluation(EvaluationSettings(scale=scale))


def runner_evaluation(cache_root, scale: float = BENCH_SCALE):
    """An evaluation backed by a repro.runner Runner with its own cache.

    Returns ``(evaluation, runner)``.
    """
    from repro.runner import DiskCache, Runner

    runner = Runner(cache=DiskCache(root=cache_root))
    return Evaluation(EvaluationSettings(scale=scale), runner=runner), runner


@pytest.fixture
def evaluation():
    """A fresh (cold-cache) evaluation per benchmark round."""
    return fresh_evaluation()


@pytest.fixture(scope="session")
def warm_evaluation():
    """A shared evaluation for shape assertions that should not pay the
    pipeline cost repeatedly."""
    return fresh_evaluation()
