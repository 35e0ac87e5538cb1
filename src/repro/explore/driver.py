"""Execute design points through the evaluation stack.

Each :class:`~repro.explore.space.DesignPoint` runs the paper's dynamic
simulation (the table 2/4 machinery) per benchmark through one shared
:class:`~repro.runner.Runner` — serial or process pool — so
points that share stages dedupe on content-hash job keys exactly like
any other sweep: one build/trace/profile per benchmark for the *whole*
sweep, one compile/simulate per distinct (machine fingerprint,
speculation config) pair.  The combined job graph across every point is
warmed first, then results are pure cache reads.

The result layer is deliberately plain data (no live machine objects) so
:mod:`repro.explore.report` can serialise it deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.evaluation.experiment import (
    Evaluation,
    EvaluationSettings,
    geometric_mean,
)
from repro.explore.cost import machine_cost
from repro.explore.space import DesignPoint
from repro.obs.cycles import CPIStack


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

    Reasons: ``"surrogate"`` (ranked out by the analytical estimate),
    ``"duplicate"`` (identical machine + speculation config to an
    earlier point), ``"error"`` (its evaluation raised).  Pruned points
    are always recorded in the report — never silently dropped.
    """

    label: str
    reason: str
    detail: str
    estimated_speedup: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "label": self.label,
            "reason": self.reason,
            "detail": self.detail,
        }
        if self.estimated_speedup is not None:
            doc["estimated_speedup"] = round(self.estimated_speedup, 6)
        return doc


@dataclass(frozen=True)
class SurrogateValidation:
    """Surrogate-vs-exact cross-validation over the simulated points.

    Every ``--surrogate`` run validates the estimates of the points it
    *did* simulate exactly, so drift in the analytical model is caught
    on every sweep, not just in CI.
    """

    bound: float
    #: (point label, benchmark, estimated cycles, exact cycles, rel err).
    entries: Tuple[Tuple[str, str, float, int, float], ...]

    @property
    def max_rel_error(self) -> float:
        return max((e[4] for e in self.entries), default=0.0)

    @property
    def mean_rel_error(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e[4] for e in self.entries) / len(self.entries)

    @property
    def within_bound(self) -> bool:
        return self.max_rel_error <= self.bound

    def to_json(self) -> Dict[str, Any]:
        return {
            "bound": self.bound,
            "max_rel_error": round(self.max_rel_error, 6),
            "mean_rel_error": round(self.mean_rel_error, 6),
            "within_bound": self.within_bound,
            "entries": [
                {
                    "label": label,
                    "benchmark": benchmark,
                    "estimated_cycles": round(estimated, 2),
                    "exact_cycles": exact,
                    "rel_error": round(err, 6),
                }
                for label, benchmark, estimated, exact, err in self.entries
            ],
        }


@dataclass(frozen=True)
class ExploreOutcome:
    """Everything one sweep produced: exact results + pruning log."""

    results: Tuple[PointResult, ...]
    pruned: Tuple[PrunedPoint, ...] = ()
    surrogate: Optional[SurrogateValidation] = None


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


def explore_points(
    points: Sequence[DesignPoint],
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    runner=None,
    progress=None,
) -> List[PointResult]:
    """Evaluate every design point; returns results in point order.

    With a runner, the union of all points' job graphs is warmed first
    (one execution with cross-point dedup), then each
    point reads its simulations back from cache.
    """
    evaluations = [
        _evaluation_for(point, scale, benchmarks, runner) for point in points
    ]
    if runner is not None:
        jobs = _union(e.required_jobs(["table2"]) for e in evaluations)
        if jobs:
            runner.run(jobs)

    results: List[PointResult] = []
    for point, evaluation in zip(points, evaluations):
        if progress is not None:
            progress(point)
        results.append(_point_result(point, evaluation))
    return results


def _point_result(point: DesignPoint, evaluation: Evaluation) -> PointResult:
    """Exactly simulate one point's benchmarks and reduce to a result."""
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


def _estimated_frontier(
    estimates: Dict[str, float], costs: Dict[str, float]
) -> set:
    """Labels on the cost/estimated-speedup Pareto frontier."""
    frontier = set()
    best = float("-inf")
    for label in sorted(
        estimates, key=lambda l: (costs[l], -estimates[l], l)
    ):
        if estimates[label] > best:
            best = estimates[label]
            frontier.add(label)
    return frontier


def _error_detail(exc: BaseException) -> str:
    """``Type: message`` of the error a point's evaluation raised.

    A failed runner job reports its stage's own exception, so the detail
    is the same whether the point ran through the runner or in-process.
    """
    from repro.runner import JobError

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

    Shared stages dedupe and a pooled runner sees the whole sweep at
    once.  A failing job does not abort the sweep: the per-point loop
    reads each point's results back through the runner, which re-raises
    the recorded failure for exactly the points that need that job (and
    lazily runs any job the batch did not reach), so the error is
    attributed there.
    """
    from repro.runner import JobError

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
    progress=None,
    surrogate: bool = False,
    surrogate_keep: Optional[int] = None,
) -> ExploreOutcome:
    """Evaluate a sweep with dedup, error capture and optional pruning.

    Unlike :func:`explore_points` (kept for callers that want the plain
    one-result-per-point list and fail-fast errors), this entry point:

    - skips points whose (machine fingerprint, speculation config) pair
      duplicates an earlier point — the evaluation stack would dedupe
      their jobs anyway, so the duplicate row carries no information;
    - records a point whose evaluation *raises* as pruned with reason
      ``"error"`` instead of aborting the whole sweep;
    - with ``surrogate=True``, compiles every candidate, ranks them by
      the analytical cycles estimate (:mod:`repro.batchsim.surrogate`),
      and exactly simulates only the estimated cost/speedup Pareto
      frontier plus the top ``surrogate_keep`` points by estimated
      speedup (default: the top quarter).  Every survivor's estimate is
      then cross-validated against its exact simulation.

    Pruned points are returned (and serialised into the report) with
    their reason — nothing is silently dropped.
    """
    pruned: List[PrunedPoint] = []
    estimates: Dict[str, float] = {}

    def prune_error(point: DesignPoint, detail: str) -> None:
        pruned.append(
            PrunedPoint(
                label=point.label,
                reason="error",
                detail=detail,
                estimated_speedup=estimates.get(point.label),
            )
        )

    # -- dedup ----------------------------------------------------------
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

    evaluations = {
        point.label: _evaluation_for(point, scale, benchmarks, runner)
        for point in unique
    }

    # -- surrogate ranking ---------------------------------------------
    estimate_details: Dict[str, Dict[str, Any]] = {}
    candidates = list(unique)
    if surrogate and unique:
        from repro.batchsim.surrogate import estimate_compilation

        if runner is not None:
            from repro.runner import compile_job

            def compile_jobs(point: DesignPoint) -> List[Any]:
                evaluation = evaluations[point.label]
                return [
                    compile_job(
                        name,
                        evaluation.machine_for("base"),
                        scale=evaluation.settings.scale,
                        spec_config=evaluation.settings.spec_config,
                    )
                    for name in evaluation.benchmarks
                ]

            _prefetch(runner, (compile_jobs(point) for point in unique))

        candidates = []
        for point in unique:
            evaluation = evaluations[point.label]
            try:
                per_bench = {}
                for name in evaluation.benchmarks:
                    per_bench[name] = estimate_compilation(
                        evaluation.compilation(
                            name, evaluation.machine_for("base")
                        )
                    )
            except Exception as exc:
                prune_error(point, _error_detail(exc))
                continue
            estimates[point.label] = geometric_mean(
                [e.speedup for e in per_bench.values()]
            )
            estimate_details[point.label] = per_bench
            candidates.append(point)

        costs = {p.label: machine_cost(p.spec) for p in candidates}
        keep = _estimated_frontier(estimates, costs)
        extra = (
            surrogate_keep
            if surrogate_keep is not None
            else math.ceil(len(candidates) / 4)
        )
        by_estimate = sorted(
            candidates, key=lambda p: (-estimates[p.label], p.label)
        )
        keep.update(p.label for p in by_estimate[:extra])
        kept = []
        for point in candidates:
            if point.label in keep:
                kept.append(point)
            else:
                pruned.append(
                    PrunedPoint(
                        label=point.label,
                        reason="surrogate",
                        detail=(
                            "estimated speedup ranked below the keep set "
                            "(estimated frontier + top "
                            f"{extra} by estimate)"
                        ),
                        estimated_speedup=estimates[point.label],
                    )
                )
        candidates = kept

    # -- exact simulation ----------------------------------------------
    if runner is not None:
        _prefetch(
            runner,
            (
                evaluations[point.label].required_jobs(["table2"])
                for point in candidates
            ),
        )

    results: List[PointResult] = []
    validation_entries: List[Tuple[str, str, float, int, float]] = []
    for point in candidates:
        if progress is not None:
            progress(point)
        evaluation = evaluations[point.label]
        try:
            result = _point_result(point, evaluation)
        except Exception as exc:
            prune_error(point, _error_detail(exc))
            continue
        results.append(result)
        for bench in result.benchmarks:
            estimate = estimate_details.get(point.label, {}).get(
                bench.benchmark
            )
            if estimate is None:
                continue
            err = (
                abs(estimate.cycles_proposed - bench.cycles_proposed)
                / bench.cycles_proposed
                if bench.cycles_proposed
                else 0.0
            )
            validation_entries.append(
                (
                    point.label,
                    bench.benchmark,
                    estimate.cycles_proposed,
                    bench.cycles_proposed,
                    err,
                )
            )

    validation = None
    if surrogate:
        from repro.batchsim.surrogate import DOCUMENTED_ERROR_BOUND

        validation = SurrogateValidation(
            bound=DOCUMENTED_ERROR_BOUND, entries=tuple(validation_entries)
        )
    return ExploreOutcome(
        results=tuple(results),
        pruned=tuple(pruned),
        surrogate=validation,
    )


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
