"""The job executor: process-pool scheduling with graceful degradation.

:class:`Runner` takes :class:`~repro.runner.jobs.Job` instances, closes
them over their dependencies (:class:`~repro.runner.graph.JobGraph`),
and executes wave by wave:

1. every job is first resolved against the in-memory memo and then the
   on-disk result cache (:class:`~repro.runner.cache.DiskCache`) — hits
   never touch a worker;
2. misses run on a ``ProcessPoolExecutor`` when ``jobs > 1``, each with
   a per-job timeout; a timed-out job is retried within a bounded,
   jittered exponential-backoff budget
   (:class:`~repro.runner.retry.RetryPolicy`).  An exception raised by
   a stage body fails its job on the first attempt: stage bodies are
   pure, so a retry would only raise the same error again;
3. a worker death (``BrokenProcessPool``), a pool that cannot be created
   (sandboxes, exotic platforms), or repeated timeouts degrade the run
   to in-process serial execution instead of failing it — results are
   identical either way, only slower.

Determinism contract: stage bodies are pure functions of their spec and
dependency results, so ``--jobs 1``, ``--jobs N`` and a warm-cache rerun
produce byte-identical results.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.runner.cache import DECODE_ERRORS, DiskCache
from repro.runner.events import EventLog
from repro.runner.graph import JobGraph
from repro.runner.jobs import DepResults, Job, execute_spec
from repro.runner.retry import RetryPolicy


class JobError(RuntimeError):
    """A job raised, or exhausted its timeout retry budget."""

    def __init__(self, job: Job, attempts: int, cause: BaseException):
        super().__init__(
            f"job {job.job_id} failed after {attempts} attempt(s): {cause!r}"
        )
        self.job = job
        self.attempts = attempts
        self.cause = cause


def resolve_workers(jobs: Optional[int]) -> int:
    """``None``/``0`` means one worker per CPU; otherwise the given count."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


class Runner:
    """Parallel, cached, fault-tolerant executor for pipeline jobs.

    Args:
        jobs: worker processes; ``1`` (default) runs in-process with no
            pool, ``0``/``None`` means one per CPU.
        cache: result cache; defaults to an enabled :class:`DiskCache`
            in the standard location.  Pass ``DiskCache(enabled=False)``
            for ``--no-cache``.
        events: event sink; a silent in-memory log by default.
        timeout: per-job seconds once a worker picks it up (pooled mode
            only — the serial path cannot preempt a running job).
        retries: additional attempts after a timeout.
        backoff: base seconds for exponential backoff between attempts
            (shorthand for ``retry_policy=RetryPolicy(base=backoff)``).
        retry_policy: full control over backoff growth/jitter/ceiling;
            overrides ``backoff``.
        pool_factory: ``fn(max_workers) -> executor`` — injectable for
            tests; defaults to :class:`ProcessPoolExecutor`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[DiskCache] = None,
        events: Optional[EventLog] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        retry_policy: Optional[RetryPolicy] = None,
        pool_factory: Optional[Callable[[int], Any]] = None,
    ):
        self.jobs = resolve_workers(jobs)
        self.cache = cache if cache is not None else DiskCache()
        self.events = events if events is not None else EventLog()
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_policy = retry_policy or RetryPolicy(base=backoff)
        self._pool_factory = pool_factory or (
            lambda workers: ProcessPoolExecutor(max_workers=workers)
        )
        self._pool: Optional[Any] = None
        self._serial_fallback = False
        self._results: Dict[str, Any] = {}
        # A failed job is not run again by this runner: stage bodies are
        # pure, and a timed-out job has already spent its retry budget.
        self._failures: Dict[str, JobError] = {}

    # -- public API ---------------------------------------------------------

    def run(self, jobs: Iterable[Job]) -> Dict[str, Any]:
        """Execute ``jobs`` (plus their dependency closure); return key -> result."""
        graph = JobGraph(jobs)
        t0 = time.monotonic()
        self.events.emit("run_start", total_jobs=len(graph), jobs=self.jobs)
        try:
            for wave in graph.waves():
                self._run_wave(wave)
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

    def close(self) -> None:
        self._shutdown_pool(wait=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- wave execution -----------------------------------------------------

    def _run_wave(self, wave: List[Job]) -> None:
        pending: List[Job] = []
        for job in wave:
            key = job.key()
            if key in self._failures:
                raise self._failures[key]
            if key in self._results:
                self._finish(job, cached=True, wall_time=0.0, attempt=0)
                continue
            hit, value = self.cache.get(key)
            if hit:
                self._results[key] = value
                self.events.emit(
                    "cache_hit", job=job.job_id, stage=job.spec.stage, key=key
                )
                self._finish(job, cached=True, wall_time=0.0, attempt=0)
            else:
                self.events.emit(
                    "cache_miss", job=job.job_id, stage=job.spec.stage, key=key
                )
                pending.append(job)
        if not pending:
            return
        if self.jobs > 1 and not self._serial_fallback:
            self._run_parallel(pending)
        else:
            for job in pending:
                self._run_serial(job)

    def _dep_results(self, job: Job) -> DepResults:
        return DepResults((dep, self._results[dep.key()]) for dep in job.deps)

    def _complete(self, job: Job, value: Any, wall_time: float, attempt: int) -> None:
        key = job.key()
        spec = job.spec
        payload = self.cache.put(
            key,
            value,
            manifest={
                "job": job.job_id,
                "stage": spec.stage,
                "benchmark": spec.benchmark,
                "machine": spec.machine.name if spec.machine else None,
                "scale": spec.scale,
                "wall_time": round(wall_time, 6),
            },
        )
        if payload is not None:
            # Memoize the decoded round trip, not the live object:
            # downstream stages then see the same input a cache hit (or
            # a pool hand-off) would give them, and the bytes
            # they produce stop depending on the execution mode.
            try:
                value = self.cache.decode(payload)
            except DECODE_ERRORS:
                pass  # undecodable edge: keep the live value in memory
        self._results[key] = value
        self._finish(job, cached=False, wall_time=wall_time, attempt=attempt)

    def _finish(self, job: Job, cached: bool, wall_time: float, attempt: int) -> None:
        self.events.emit(
            "job_finish",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
            cached=cached,
            wall_time=round(wall_time, 6),
            attempt=attempt,
        )

    # -- serial path --------------------------------------------------------

    def _run_serial(self, job: Job, attempt: int = 1) -> None:
        self.events.emit(
            "job_start",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
            attempt=attempt,
        )
        t0 = time.monotonic()
        try:
            value = execute_spec(job.spec, self._dep_results(job))
        except Exception as exc:
            raise self._fail(job, attempt, exc) from exc
        self._complete(job, value, time.monotonic() - t0, attempt)

    # -- pooled path --------------------------------------------------------

    def _ensure_pool(self) -> Optional[Any]:
        if self._serial_fallback:
            return None
        if self._pool is None:
            try:
                self._pool = self._pool_factory(self.jobs)
            except Exception as exc:
                self._degrade(f"cannot create worker pool: {exc!r}")
        return self._pool

    def _shutdown_pool(self, wait: bool, kill: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if kill:
            # A worker is stuck past its timeout; shutdown() alone would
            # let it run to completion in the background.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except TypeError:
            # Minimal pool doubles used in tests may not accept
            # cancel_futures.
            pool.shutdown(wait=wait)

    def _degrade(self, reason: str) -> None:
        if self._serial_fallback:
            return
        self._serial_fallback = True
        self._shutdown_pool(wait=False)
        self.events.emit("fallback", reason=reason)

    def _run_parallel(self, pending: List[Job]) -> None:
        attempts: Dict[str, int] = {job.key(): 0 for job in pending}
        queue = list(pending)
        while queue:
            pool = self._ensure_pool()
            if pool is None:
                # Pool unavailable (creation failed or a worker died):
                # finish everything still outstanding in-process.
                for job in queue:
                    if job.key() not in self._results:
                        self._run_serial(job, attempts[job.key()] + 1)
                return
            submitted: List[tuple] = []
            for job in queue:
                attempts[job.key()] += 1
                self.events.emit(
                    "job_start",
                    job=job.job_id,
                    stage=job.spec.stage,
                    key=job.key(),
                    attempt=attempts[job.key()],
                )
                future = pool.submit(execute_spec, job.spec, self._dep_results(job))
                submitted.append((job, future, time.monotonic()))
            queue = []
            pool_lost = False
            # A stage error fails only its own job: the rest of the wave
            # is still collected (and cached) before the first error is
            # raised, so nothing is left running unread in the workers.
            error: Optional[JobError] = None
            for job, future, t0 in submitted:
                attempt = attempts[job.key()]
                if pool_lost and not future.done():
                    queue.append(job)
                    continue
                try:
                    value = future.result(timeout=self.timeout)
                except concurrent.futures.CancelledError:
                    queue.append(job)
                    continue
                except BrokenProcessPool as exc:
                    if pool_lost:
                        # Collateral damage of a pool we tore down on
                        # purpose (timeout): just requeue.
                        queue.append(job)
                        continue
                    # A worker died of its own accord.  Salvage what
                    # already finished, run the rest serially.
                    self._degrade(f"worker process died: {exc!r}")
                    pool_lost = True
                    queue.append(job)
                    continue
                except concurrent.futures.TimeoutError as exc:
                    # The worker is stuck on this job; the only way to
                    # reclaim it is to tear the pool down (killing the
                    # stuck worker) and rebuild it on the next round.
                    self._shutdown_pool(wait=False, kill=True)
                    pool_lost = True
                    timeout_exc = TimeoutError(
                        f"exceeded per-job timeout of {self.timeout}s"
                    )
                    if attempt > self.retries:
                        raise self._fail(job, attempt, timeout_exc) from exc
                    self._retry(job, attempt, timeout_exc)
                    queue.append(job)
                    continue
                except Exception as exc:
                    failure = self._fail(job, attempt, exc)
                    failure.__cause__ = exc
                    error = error or failure
                    continue
                self._complete(job, value, time.monotonic() - t0, attempt)
            if error is not None:
                raise error

    # -- failure and retry ---------------------------------------------------

    def _fail(self, job: Job, attempt: int, exc: BaseException) -> JobError:
        """Record a final failure; return the error for the caller to raise."""
        self.events.emit(
            "job_failed",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
            attempts=attempt,
            error=repr(exc),
        )
        error = JobError(job, attempt, exc)
        self._failures[job.key()] = error
        return error

    def _retry(self, job: Job, attempt: int, exc: BaseException) -> None:
        """Record a timed-out attempt and back off before the next one."""
        delay = self.retry_policy.delay(attempt, token=job.key())
        self.events.emit(
            "job_retry",
            job=job.job_id,
            stage=job.spec.stage,
            key=job.key(),
            attempt=attempt,
            error=repr(exc),
            backoff=round(delay, 6),
        )
        if delay > 0:
            time.sleep(delay)
