"""The job executor: serial, memoised, disk-cached.

:class:`Runner` takes :class:`~repro.runner.jobs.Job` instances, closes
them over their dependencies (:class:`~repro.runner.graph.JobGraph`),
and executes them wave by wave, in process.  Each job is resolved
against the in-memory memo, then the on-disk result cache
(:class:`~repro.runner.cache.DiskCache`), and only then run by
:func:`~repro.runner.jobs.execute_spec`.  An exception raised by a
stage body fails its job once: stage bodies are pure, so running it
again would only raise the same error.

A ``compile`` payload pickles the program of its job's ``build``
dependency by reference (:class:`~repro.runner.cache.ProgramRefs`):
the decoded compilation's program, blocks and untouched operations are
the objects that build's result already holds.

Determinism contract: stage bodies are pure functions of their spec and
dependency results, so a cold run, a warm or partially warm rerun and a
``--no-cache`` run compute equal results and print byte-identical
``--json`` output (``docs/RUNNER.md`` says which bytes may differ).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Optional

from repro.runner.cache import DECODE_ERRORS, DiskCache, ProgramRefs
from repro.runner.events import EventLog
from repro.runner.graph import JobGraph
from repro.runner.jobs import DepResults, Job, execute_spec


class JobError(RuntimeError):
    """A job's stage body raised."""

    def __init__(self, job: Job, cause: BaseException):
        super().__init__(f"job {job.job_id} failed: {cause!r}")
        self.job = job
        self.cause = cause


class Runner:
    """Serial, cached executor for pipeline jobs.

    Args:
        cache: result cache; defaults to an enabled :class:`DiskCache`
            in the standard location.  Pass ``DiskCache(enabled=False)``
            for ``--no-cache``.
        events: event sink; a silent in-memory log by default.
    """

    def __init__(
        self,
        cache: Optional[DiskCache] = None,
        events: Optional[EventLog] = None,
    ):
        self.cache = cache if cache is not None else DiskCache()
        self.events = events if events is not None else EventLog()
        self._results: Dict[str, Any] = {}
        # A failed job is not run again by this runner: stage bodies are
        # pure, so it would only fail the same way.
        self._failures: Dict[str, JobError] = {}
        # build key -> ProgramRefs of that build's (memoised) Program.
        self._program_refs: Dict[str, ProgramRefs] = {}

    def run(self, jobs: Iterable[Job]) -> Dict[str, Any]:
        """Execute ``jobs`` (plus their dependency closure); return key -> result."""
        graph = JobGraph(jobs)
        t0 = time.monotonic()
        self.events.emit("run_start", total_jobs=len(graph))
        try:
            for wave in graph.waves():
                for job in wave:
                    self._resolve(job)
        finally:
            self.events.emit(
                "run_finish",
                wall_time=round(time.monotonic() - t0, 6),
                **self.events.summary(),
            )
        return {job.key(): self._results[job.key()] for job in graph.jobs}

    def run_job(self, job: Job) -> Any:
        """Execute one job (and its deps), via memo and cache when possible."""
        key = job.key()
        if key in self._results:
            return self._results[key]
        return self.run([job])[key]

    def result(self, job: Job) -> Any:
        return self._results[job.key()]

    def _resolve(self, job: Job) -> None:
        """Memo, then disk cache, then execute: the first that answers wins."""
        key = job.key()
        if key in self._failures:
            raise self._failures[key]
        if key in self._results:
            self._finish(job, cached=True, wall_time=0.0)
            return
        hit, value = self.cache.get(key, self._refs(self._program_of(job)))
        if hit:
            self._results[key] = value
            self.events.emit(
                "cache_hit", job=job.job_id, stage=job.spec.stage, key=key
            )
            self._finish(job, cached=True, wall_time=0.0)
            return
        self.events.emit(
            "cache_miss", job=job.job_id, stage=job.spec.stage, key=key
        )
        self._execute(job)

    def _execute(self, job: Job) -> None:
        self.events.emit(
            "job_start",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
        )
        t0 = time.monotonic()
        deps = DepResults((dep, self._results[dep.key()]) for dep in job.deps)
        try:
            value = execute_spec(job.spec, deps)
        except Exception as exc:
            raise self._fail(job, exc) from exc
        self._complete(job, value, time.monotonic() - t0)

    @staticmethod
    def _program_of(job: Job) -> Optional[str]:
        """Key of the build whose program ``job``'s payload references.

        Only ``compile`` payloads reference one: a compilation embeds
        its build's program, while ``persistent_id`` costs a Python call
        per pickled object, which payloads holding no program objects (a
        trace's value stream) would pay for nothing.
        """
        if job.spec.stage != "compile":
            return None
        return next(
            (dep.key() for dep in job.deps if dep.stage == "build"), None
        )

    def _refs(self, program_key: Optional[str]) -> Optional[ProgramRefs]:
        """The references of the build ``program_key``'s memoised result."""
        if program_key is None:
            return None
        refs = self._program_refs.get(program_key)
        if refs is None:
            refs = ProgramRefs(self._results[program_key])
            self._program_refs[program_key] = refs
        return refs

    def _complete(self, job: Job, value: Any, wall_time: float) -> None:
        key = job.key()
        spec = job.spec
        program = self._program_of(job)
        refs = self._refs(program)
        payload = self.cache.put(
            key,
            value,
            manifest={
                "job": job.job_id,
                "stage": spec.stage,
                "benchmark": spec.benchmark,
                "machine": spec.machine.name if spec.machine else None,
                "scale": spec.scale,
                "program": program,
                "wall_time": round(wall_time, 6),
            },
            refs=refs,
        )
        if payload is not None:
            # Memoize the decoded round trip, not the live object:
            # downstream stages then see the same input a cache hit
            # would give them, and the bytes they produce stop
            # depending on cache temperature.
            try:
                value = self.cache.decode(payload, refs)
            except DECODE_ERRORS:
                pass  # undecodable edge: keep the live value in memory
        self._results[key] = value
        self._finish(job, cached=False, wall_time=wall_time)

    def _finish(self, job: Job, cached: bool, wall_time: float) -> None:
        self.events.emit(
            "job_finish",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
            cached=cached,
            wall_time=round(wall_time, 6),
        )

    def _fail(self, job: Job, exc: BaseException) -> JobError:
        """Record a failure; return the error for the caller to raise."""
        self.events.emit(
            "job_failed",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
            error=repr(exc),
        )
        error = JobError(job, exc)
        self._failures[job.key()] = error
        return error
