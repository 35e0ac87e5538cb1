"""Parallel, disk-cached, fault-tolerant experiment execution engine.

The runner turns the profile -> compile -> simulate pipeline into an
explicit job graph (:mod:`repro.runner.jobs`, :mod:`repro.runner.graph`)
and executes it with worker processes, durable content-addressed caching
(:mod:`repro.runner.cache`) and structured progress events
(:mod:`repro.runner.events`).  See ``docs/RUNNER.md`` for the full
design.

Typical use::

    from repro.runner import DiskCache, Runner
    from repro.evaluation.experiment import Evaluation

    runner = Runner(jobs=4, cache=DiskCache())
    evaluation = Evaluation(runner=runner)
    evaluation.warm()                      # everything runs in parallel
    rows = table2.compute(evaluation)      # served from the warmed caches
"""

from repro.runner.cache import (
    CacheStats,
    DiskCache,
    default_cache_dir,
)
from repro.runner.events import EventLog, ProgressRenderer, executed_jobs, read_events
from repro.runner.executor import JobError, Runner, resolve_workers
from repro.runner.graph import CycleError, JobGraph
from repro.runner.retry import RetryPolicy
from repro.runner.jobs import (
    CODE_VERSION,
    DepResults,
    Job,
    JobSpec,
    adopt_program,
    batch_simulate_job,
    batch_simulate_spec,
    build_job,
    build_spec,
    compile_job,
    compile_spec,
    default_deps,
    dep_result,
    execute_spec,
    job_for,
    pipeline_jobs,
    profile_job,
    profile_spec,
    register_stage,
    simulate_job,
    simulate_spec,
    trace_job,
    trace_spec,
)

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "CycleError",
    "DepResults",
    "DiskCache",
    "EventLog",
    "Job",
    "JobError",
    "JobGraph",
    "JobSpec",
    "ProgressRenderer",
    "RetryPolicy",
    "Runner",
    "adopt_program",
    "batch_simulate_job",
    "batch_simulate_spec",
    "build_job",
    "build_spec",
    "compile_job",
    "compile_spec",
    "default_cache_dir",
    "default_deps",
    "dep_result",
    "execute_spec",
    "executed_jobs",
    "job_for",
    "pipeline_jobs",
    "profile_job",
    "profile_spec",
    "read_events",
    "register_stage",
    "resolve_workers",
    "simulate_job",
    "simulate_spec",
    "trace_job",
    "trace_spec",
]
