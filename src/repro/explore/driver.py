"""Execute design points through the evaluation stack.

Each :class:`~repro.explore.space.DesignPoint` runs the paper's dynamic
simulation (the table 2/4 machinery) per benchmark through one shared
:class:`~repro.runner.executor.Runner`, so points that share stages dedupe on
content-hash job keys exactly like any other sweep: one
build/trace/profile per benchmark for the *whole* sweep, one
compile/simulate per distinct (machine fingerprint, speculation config)
pair.  The combined job graph across every point is
warmed first, then results are pure cache reads.

The result layer is deliberately plain data (no live machine objects) so
:mod:`repro.explore.report` can serialise it deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.evaluation.experiment import (
    Evaluation,
    EvaluationSettings,
    geometric_mean,
    memory_runner,
)
from repro.explore.cost import machine_cost

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.explore.space import DesignPoint


@dataclass(frozen=True)
class BenchmarkResult:
    """One (point, benchmark) simulation, reduced to report scalars."""

    benchmark: str
    speedup: float
    speedup_baseline: float
    accuracy: float
    cycles_nopred: int
    cycles_proposed: int


@dataclass(frozen=True)
class PointResult:
    """One evaluated design point."""

    label: str
    machine_name: str
    fingerprint: str
    assignment: Tuple[Tuple[str, Any], ...]
    cost: float
    #: Geometric-mean speedup of the proposed machine over no-prediction.
    speedup: float
    #: Arithmetic-mean prediction accuracy across benchmarks.
    accuracy: float
    benchmarks: Tuple[BenchmarkResult, ...]
    #: Dominant non-issue cause of the point's merged proposed-machine
    #: CPI stack (see :mod:`repro.obs.cycles`) — what bottlenecks this
    #: design; ``"unknown"`` when cycle accounting was unavailable.
    bottleneck: str = "unknown"

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "machine": self.machine_name,
            "fingerprint": self.fingerprint,
            "assignment": [[name, value] for name, value in self.assignment],
            "cost": round(self.cost, 6),
            "speedup": round(self.speedup, 6),
            "accuracy": round(self.accuracy, 6),
            "bottleneck": self.bottleneck,
            "benchmarks": [
                {
                    "benchmark": b.benchmark,
                    "speedup": round(b.speedup, 6),
                    "speedup_baseline": round(b.speedup_baseline, 6),
                    "accuracy": round(b.accuracy, 6),
                    "cycles_nopred": b.cycles_nopred,
                    "cycles_proposed": b.cycles_proposed,
                }
                for b in self.benchmarks
            ],
        }


@dataclass(frozen=True)
class PrunedPoint:
    """One design point that was *not* exactly simulated, and why.

    Reasons: ``"duplicate"`` (identical machine + speculation config to
    an earlier point), ``"error"`` (its evaluation raised).  Pruned
    points are always recorded in the report — never silently dropped.
    """

    label: str
    reason: str
    detail: str

    def to_json(self) -> Dict[str, Any]:
        return {"label": self.label, "reason": self.reason, "detail": self.detail}


@dataclass(frozen=True)
class ExploreOutcome:
    """Everything one sweep produced: exact results + pruning log."""

    results: Tuple[PointResult, ...]
    pruned: Tuple[PrunedPoint, ...] = ()


def _evaluation_for(
    point: DesignPoint,
    scale: float,
    benchmarks: Optional[Sequence[str]],
    runner,
) -> Evaluation:
    settings = EvaluationSettings(
        scale=scale, spec_config=point.spec_config
    ).with_benchmarks(benchmarks).with_machine("base", point.spec)
    # Cycle accounting rides along on every point so reports can label
    # frontier entries with their dominant bottleneck.
    return Evaluation(settings, runner=runner, collect_cycles=True)


def _point_result(point: DesignPoint, evaluation: Evaluation) -> PointResult:
    """Exactly simulate one point's benchmarks and reduce to a result."""
    from repro.obs.cycles import CPIStack

    bench_results: List[BenchmarkResult] = []
    merged = CPIStack.of({})
    for name in evaluation.benchmarks:
        sim = evaluation.simulation(name, evaluation.machine_for("base"))
        stacks = getattr(sim, "cycle_stacks", None)
        if stacks and "proposed" in stacks:
            merged = merged.merged(CPIStack.of(stacks["proposed"]))
        bench_results.append(
            BenchmarkResult(
                benchmark=name,
                speedup=sim.speedup_proposed,
                speedup_baseline=sim.speedup_baseline,
                accuracy=sim.prediction_accuracy,
                cycles_nopred=sim.cycles_nopred,
                cycles_proposed=sim.cycles_proposed,
            )
        )
    return PointResult(
        label=point.label,
        machine_name=point.spec.name,
        fingerprint=point.fingerprint(),
        assignment=point.assignment,
        cost=machine_cost(point.spec),
        speedup=geometric_mean([b.speedup for b in bench_results]),
        accuracy=(
            sum(b.accuracy for b in bench_results) / len(bench_results)
            if bench_results
            else 0.0
        ),
        benchmarks=tuple(bench_results),
        bottleneck=merged.dominant() or "unknown",
    )


def _error_detail(exc: BaseException) -> str:
    """``Type: message`` of the error a point's evaluation raised.

    A failed runner job reports its stage's own exception, not the
    runner's wrapper.
    """
    from repro.runner.executor import JobError

    if isinstance(exc, JobError):
        exc = exc.cause
    return f"{type(exc).__name__}: {exc}"


def _union(job_lists: Iterable[Sequence[Any]]) -> List[Any]:
    """Every job of ``job_lists`` once, in first-seen order."""
    jobs, seen = [], set()
    for job_list in job_lists:
        for job in job_list:
            if job.key() not in seen:
                seen.add(job.key())
                jobs.append(job)
    return jobs


def _prefetch(runner, job_lists: Iterable[Sequence[Any]]) -> None:
    """Run the union of every point's jobs in one batch.

    Shared stages dedupe across points.  A failing job does not abort
    the sweep: the per-point loop reads each point's results back
    through the runner, which re-raises the recorded failure for exactly
    the points that need that job (and lazily runs any job the batch did
    not reach), so the error is attributed there.
    """
    from repro.runner.executor import JobError

    jobs = _union(job_lists)
    if not jobs:
        return
    try:
        runner.run(jobs)
    except JobError:
        pass


def explore(
    points: Sequence[DesignPoint],
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    runner=None,
) -> ExploreOutcome:
    """Exactly simulate a sweep, with dedup and error capture.

    - skips points whose (machine fingerprint, speculation config) pair
      duplicates an earlier point — the evaluation stack would dedupe
      their jobs anyway, so the duplicate row carries no information;
    - records a point whose evaluation *raises* as pruned with reason
      ``"error"`` instead of aborting the whole sweep.

    The union of every point's job graph runs first on ``runner`` (one
    execution with cross-point dedup); each point then reads its
    simulations back from the runner.  Without a runner the sweep
    makes one whose cache is disabled.  Results keep point order.  Pruned
    points are returned (and serialised into the report) with their
    reason — nothing is silently dropped.
    """
    pruned: List[PrunedPoint] = []
    unique: List[DesignPoint] = []
    first_of: Dict[Tuple[str, Any], str] = {}
    for point in points:
        key = (point.fingerprint(), point.spec_config)
        if key in first_of:
            pruned.append(
                PrunedPoint(
                    label=point.label,
                    reason="duplicate",
                    detail=(
                        "identical machine and speculation config to "
                        f"point {first_of[key]!r}"
                    ),
                )
            )
            continue
        first_of[key] = point.label
        unique.append(point)

    runner = runner or memory_runner()
    evaluations = [
        _evaluation_for(point, scale, benchmarks, runner) for point in unique
    ]
    _prefetch(runner, (e.required_jobs(["table2"]) for e in evaluations))

    results: List[PointResult] = []
    for point, evaluation in zip(unique, evaluations):
        try:
            results.append(_point_result(point, evaluation))
        except Exception as exc:
            pruned.append(
                PrunedPoint(
                    label=point.label,
                    reason="error",
                    detail=_error_detail(exc),
                )
            )
    return ExploreOutcome(results=tuple(results), pruned=tuple(pruned))


def pareto_frontier(results: Sequence[PointResult]) -> List[PointResult]:
    """The cost/speedup Pareto-optimal subset, cheapest first.

    A point is on the frontier iff no other point is at most as costly
    *and* strictly faster (ties on both axes keep the first occurrence
    in input order, so frontiers are deterministic).
    """
    frontier: List[PointResult] = []
    # Sort by (cost asc, speedup desc, label) — then a single max-scan
    # keeps exactly the non-dominated points.
    ordered = sorted(
        enumerate(results),
        key=lambda iv: (iv[1].cost, -iv[1].speedup, iv[1].label, iv[0]),
    )
    best = float("-inf")
    seen_keys = set()
    for _, result in ordered:
        if result.speedup > best:
            best = result.speedup
            key = (result.cost, result.speedup)
            if key not in seen_keys:
                seen_keys.add(key)
                frontier.append(result)
    return frontier
