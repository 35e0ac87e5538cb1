"""The job graph: deduplication, dependency closure, topological waves.

Experiments over-ask — every experiment that needs ``simulate`` also
implies ``compile`` and ``profile``, and eight benchmarks x two machines
x three stages name the same profile job many times.  :class:`JobGraph`
collapses all of that by content key and hands the executor *waves*:
batches of jobs whose dependencies are all satisfied by earlier waves,
so every job inside one wave can run concurrently.

Content-key dedup is also what fans one ``trace`` job out to a whole
sweep: the trace spec excludes the machine and speculation config, so
every simulate job of a threshold/machine ablation materialises the
*same* trace dependency, and the closure collapses the N copies into one
interpretation shared by N simulations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.runner.jobs import Job, JobSpec, job_for


class CycleError(ValueError):
    """The job graph contains a dependency cycle."""


class JobGraph:
    """A deduplicated DAG of :class:`Job` instances, keyed by content hash."""

    def __init__(self, jobs: Iterable[Job] = ()):
        self._jobs: Dict[str, Job] = {}
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> None:
        """Insert ``job`` (idempotent) and the closure of its dependencies.

        A dependency spec that no explicit :class:`Job` provides is
        materialised through :func:`repro.runner.jobs.job_for`, which
        attaches the stage's natural upstream specs — so adding only a
        simulate job still pulls in its compile and profile ancestors.
        """
        key = job.key()
        existing = self._jobs.get(key)
        if existing is None or (not existing.deps and job.deps):
            self._jobs[key] = job
        for dep in job.deps:
            if dep.key() not in self._jobs:
                self.add(job_for(dep))

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, spec: JobSpec) -> bool:
        return spec.key() in self._jobs

    @property
    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def waves(self) -> List[List[Job]]:
        """Topological batches: wave *n* depends only on waves ``< n``."""
        remaining: Dict[str, Set[str]] = {
            key: {d.key() for d in job.deps if d.key() in self._jobs}
            for key, job in self._jobs.items()
        }
        done: Set[str] = set()
        waves: List[List[Job]] = []
        while remaining:
            ready = [key for key, deps in remaining.items() if deps <= done]
            if not ready:
                stuck = sorted(self._jobs[k].job_id for k in remaining)
                raise CycleError(f"dependency cycle among jobs: {stuck}")
            waves.append([self._jobs[key] for key in ready])
            done.update(ready)
            for key in ready:
                del remaining[key]
        return waves
