"""The benchmark scenario registry.

A *scenario* is one deterministic unit of work the harness can time:
regenerating a paper table from a cold start, the compile stage alone,
a threshold ablation, or a runner cold+warm cache cycle.  Scenarios
mirror the pytest-benchmark modules under ``benchmarks/`` so the
``BENCH_*.json`` trajectory tracks the same workloads the test suite
exercises.

Each scenario returns a :class:`ScenarioRun` whose ``counters`` are
*work units* derived from :mod:`repro.obs` metrics snapshots and
simulation results — simulated cycles, ops retired on the two engines,
compiler passes executed, runner jobs served — which the harness
divides by wall time into per-run throughput rates (``*_per_s``).
Because every scenario is deterministic, counters must not vary across
repeats; the harness flags it if they do.

Ops retired counts dynamic work on both engines: ``vliw.instructions``
(long instructions issued by the VLIW engine) plus ``cce.reexec``
(compensation ops re-executed by the CCE).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.evaluation import figure8, table2, table4
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.obs.metrics import MetricsSnapshot


@dataclass(frozen=True)
class BenchContext:
    """Knobs shared by every scenario invocation."""

    workload_scale: float = 0.25
    benchmarks: Optional[Tuple[str, ...]] = None
    threshold: float = 0.65
    #: Scratch directory scenarios may allocate per-iteration state in
    #: (runner cache dirs); owned and cleaned by the harness.
    workdir: Optional[Path] = None

    def settings(self) -> EvaluationSettings:
        settings = EvaluationSettings(scale=self.workload_scale)
        settings = settings.with_threshold(self.threshold)
        return settings.with_benchmarks(
            list(self.benchmarks) if self.benchmarks else None
        )


@dataclass
class ScenarioRun:
    """What one timed iteration of a scenario produced."""

    #: Deterministic work-unit counters (divided by wall time into rates).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Non-rate facts worth keeping in the artifact (pass-time
    #: attribution, cache hit rates).
    extra: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[MetricsSnapshot] = None


@dataclass(frozen=True)
class BenchScenario:
    """One registered benchmark scenario."""

    name: str
    description: str
    #: Subsystems the scenario predominantly exercises (profile grouping).
    subsystems: Tuple[str, ...]
    run: Callable[[BenchContext, Any], ScenarioRun]
    #: Optional untimed setup shared by every iteration (e.g. build +
    #: profile products when only compile time is being measured).
    prepare: Optional[Callable[[BenchContext], Any]] = None


SCENARIOS: Dict[str, BenchScenario] = {}


def register_scenario(scenario: BenchScenario) -> BenchScenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def resolve_scenarios(names: Optional[Sequence[str]] = None) -> List[BenchScenario]:
    """Scenarios in registration order; unknown names raise with the
    available set in the message."""
    if not names:
        return list(SCENARIOS.values())
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    return [SCENARIOS[n] for n in names]


# -- derived-counter helpers -------------------------------------------------


def engine_counters(evaluation: Evaluation) -> Dict[str, float]:
    """Work units from an evaluation's simulations + metrics snapshot."""
    snapshot = evaluation.metrics_snapshot()
    sim_cycles = sum(
        r.cycles_proposed for r in evaluation.simulation_results
    )
    instructions = snapshot.counter("vliw.instructions")
    reexec = snapshot.counter("cce.reexec")
    return {
        "sim_cycles": float(sim_cycles),
        "ops_retired": float(instructions + reexec),
        "dynamic_blocks": float(snapshot.counter("sim.dynamic_blocks")),
    }


def _pass_totals(snapshot: MetricsSnapshot) -> Dict[str, float]:
    """Total nanoseconds per compiler pass from ``compiler.pass_ns{name}``."""
    out: Dict[str, float] = {}
    prefix = "compiler.pass_ns{"
    for key, summary in snapshot.histograms.items():
        if key.startswith(prefix) and key.endswith("}"):
            out[key[len(prefix):-1]] = summary.total
    return out


# -- scenario bodies ---------------------------------------------------------


def _run_table2(ctx: BenchContext, state: Any) -> ScenarioRun:
    evaluation = Evaluation(ctx.settings(), collect_metrics=True)
    table2.compute(evaluation)
    return ScenarioRun(
        counters=engine_counters(evaluation),
        metrics=evaluation.metrics_snapshot(),
    )


def _run_table4(ctx: BenchContext, state: Any) -> ScenarioRun:
    evaluation = Evaluation(ctx.settings(), collect_metrics=True)
    table4.compute(evaluation)
    return ScenarioRun(
        counters=engine_counters(evaluation),
        metrics=evaluation.metrics_snapshot(),
    )


def _prepare_profiled(ctx: BenchContext) -> Evaluation:
    """Build + profile every benchmark once, untimed, so compile-stage
    scenarios measure the compiler and not the profiling interpreter."""
    base = Evaluation(ctx.settings())
    for name in base.benchmarks:
        base.profile(name)
    return base


def _run_table3(ctx: BenchContext, state: Evaluation) -> ScenarioRun:
    from repro.compiler import PassManager
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    evaluation = Evaluation(ctx.settings()).seed_from(state)
    blocks = 0
    for name in evaluation.benchmarks:
        compilation = PassManager(metrics=registry).compile(
            evaluation.program(name),
            evaluation.machine_4w,
            evaluation.profile(name),
            spec_config=evaluation.settings.spec_config,
        )
        blocks += len(compilation.blocks)
    snapshot = registry.snapshot()
    return ScenarioRun(
        counters={
            "passes_run": float(
                sum(snapshot.counter_family("compiler.pass_runs").values())
            ),
            "blocks_compiled": float(blocks),
        },
        extra={"pass_ns": _pass_totals(snapshot)},
        metrics=snapshot,
    )


def _run_figure8(ctx: BenchContext, state: Evaluation) -> ScenarioRun:
    evaluation = Evaluation(ctx.settings()).seed_from(state)
    rows = figure8.compute(evaluation)
    speculated = sum(
        len(
            evaluation.compilation(name, evaluation.machine_4w).speculated_labels
        )
        for name in evaluation.benchmarks
    )
    return ScenarioRun(
        counters={
            "benchmarks": float(len(rows)),
            "speculated_blocks": float(speculated),
        }
    )


#: Thresholds the ablation scenario sweeps (straddling the paper's 0.65).
ABLATION_THRESHOLDS = (0.5, 0.8)
#: Suite subset the ablation sweeps (one integer, one FP benchmark).
ABLATION_BENCHMARKS = ("compress", "swim")


def _run_ablation(ctx: BenchContext, state: Any) -> ScenarioRun:
    counters: Dict[str, float] = {
        "sim_cycles": 0.0,
        "ops_retired": 0.0,
        "dynamic_blocks": 0.0,
    }
    for threshold in ABLATION_THRESHOLDS:
        settings = EvaluationSettings(scale=ctx.workload_scale)
        settings = settings.with_threshold(threshold)
        settings = settings.with_benchmarks(list(ABLATION_BENCHMARKS))
        evaluation = Evaluation(settings, collect_metrics=True)
        for name in evaluation.benchmarks:
            evaluation.simulation(name, evaluation.machine_4w)
        for key, value in engine_counters(evaluation).items():
            counters[key] += value
    return ScenarioRun(counters=counters)


def _run_cycle_accounting(ctx: BenchContext, state: Any) -> ScenarioRun:
    """The full pipeline with cycle accounting *on*: simulate
    :data:`ABLATION_BENCHMARKS` on the 4-wide machine collecting CPI
    stacks, so the attribution overhead (ledger charges, schedule
    re-attribution, per-pattern compensation simulations) is timed as
    its own scenario and the ``table2``/``perf-smoke`` numbers stay a
    clean disabled-path reference."""
    settings = EvaluationSettings(scale=ctx.workload_scale)
    settings = settings.with_threshold(ctx.threshold)
    settings = settings.with_benchmarks(list(ABLATION_BENCHMARKS))
    evaluation = Evaluation(settings, collect_metrics=True, collect_cycles=True)
    for name in evaluation.benchmarks:
        evaluation.simulation(name, evaluation.machine_4w)
    counters = engine_counters(evaluation)
    attributed = 0
    per_cause: Dict[str, int] = {}
    for result in evaluation.simulation_results:
        for stack in (result.cycle_stacks or {}).values():
            for cause, cycles in stack.items():
                attributed += cycles
                per_cause[cause] = per_cause.get(cause, 0) + cycles
    counters["attributed_cycles"] = float(attributed)
    return ScenarioRun(
        counters=counters,
        extra={"cause_totals": dict(sorted(per_cause.items()))},
        metrics=evaluation.metrics_snapshot(),
    )


def _run_runner_scaling(ctx: BenchContext, state: Any) -> ScenarioRun:
    """One cold + one warm runner pass over the table2 job graph against
    a fresh disk cache; derives the warm-pass cache hit rate."""
    from repro.runner import DiskCache, Runner

    if ctx.workdir is None:
        cache_root = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    else:
        cache_root = Path(tempfile.mkdtemp(dir=ctx.workdir))
    executed = 0
    cache_hits = 0
    warm_hit_rate = 0.0
    for attempt in ("cold", "warm"):
        runner = Runner(cache=DiskCache(root=cache_root))
        Evaluation(ctx.settings(), runner=runner).warm(["table2"])
        summary = runner.events.summary()
        executed += summary["executed"]
        cache_hits += summary["cache_hits"]
        if attempt == "warm":
            served = summary["executed"] + summary["cache_hits"]
            warm_hit_rate = summary["cache_hits"] / served if served else 0.0
    return ScenarioRun(
        counters={
            "jobs_executed": float(executed),
            "jobs_served": float(executed + cache_hits),
        },
        extra={"warm_cache_hit_rate": warm_hit_rate},
    )


#: Workloads the interpreter hot-loop scenario runs end to end.
HOTLOOP_BENCHMARKS = ("compress", "li")
#: Thresholds the replayed sweep visits (the paper's 0.65 plus both
#: ablation points), enough sweep points for replay to amortise capture.
SWEEP_REPLAY_THRESHOLDS = (0.5, 0.65, 0.8)


def _prepare_hotloop(ctx: BenchContext) -> Dict[str, Any]:
    """Build the hot-loop programs untimed so the scenario times the
    interpreter alone, not the front end."""
    from repro.workloads.suite import load_benchmark

    return {
        name: load_benchmark(name, scale=ctx.workload_scale)
        for name in HOTLOOP_BENCHMARKS
    }


def _run_interp_hotloop(ctx: BenchContext, state: Dict[str, Any]) -> ScenarioRun:
    """Observer-less architectural interpretation — the block-specialized
    fast path with the no-notification branch."""
    from repro.profiling.interpreter import Interpreter

    ops = 0
    blocks = 0
    for program in state.values():
        result = Interpreter().run(program)
        ops += result.dynamic_operations
        blocks += result.dynamic_blocks
    return ScenarioRun(
        counters={"interp_ops": float(ops), "interp_blocks": float(blocks)}
    )


def _run_sweep_replay(ctx: BenchContext, state: Any) -> ScenarioRun:
    """A threshold sweep against a fresh trace store: one architectural
    interpretation per benchmark, replayed at every other sweep point."""
    from repro.trace import TraceStore

    store = TraceStore()
    counters: Dict[str, float] = {
        "sim_cycles": 0.0,
        "ops_retired": 0.0,
        "dynamic_blocks": 0.0,
    }
    for threshold in SWEEP_REPLAY_THRESHOLDS:
        settings = EvaluationSettings(scale=ctx.workload_scale)
        settings = settings.with_threshold(threshold)
        settings = settings.with_benchmarks(list(ABLATION_BENCHMARKS))
        evaluation = Evaluation(
            settings, collect_metrics=True, trace_store=store
        )
        for name in evaluation.benchmarks:
            evaluation.simulation(name, evaluation.machine_4w)
        for key, value in engine_counters(evaluation).items():
            counters[key] += value
    return ScenarioRun(
        counters=counters,
        extra={
            "trace_captures": store.captures,
            "trace_hits": store.hits,
        },
    )


#: Axes the explore-grid scenario sweeps (2x2 machine/speculation grid)
#: over :data:`ABLATION_BENCHMARKS`.
EXPLORE_GRID_AXES = ("issue_width=2,4", "threshold=0.5,0.8")


def _run_explore_grid(ctx: BenchContext, state: Any) -> ScenarioRun:
    """A small design-space sweep through the explore driver: point
    derivation, per-point evaluation, cost model, frontier and the
    deterministic report artifact."""
    from repro.explore import (
        Axis,
        DesignSpace,
        dump_report,
        explore,
        pareto_frontier,
        report_payload,
    )
    from repro.machine.configs import PLAYDOH_4W_SPEC

    space = DesignSpace(
        base=PLAYDOH_4W_SPEC,
        axes=tuple(Axis.parse(a) for a in EXPLORE_GRID_AXES),
    )
    points = space.grid()
    results = explore(
        points,
        scale=ctx.workload_scale,
        benchmarks=list(ABLATION_BENCHMARKS),
    ).results
    artifact = dump_report(
        report_payload(
            space, results, ctx.workload_scale, list(ABLATION_BENCHMARKS)
        )
    )
    cycles = sum(
        b.cycles_proposed for r in results for b in r.benchmarks
    )
    return ScenarioRun(
        counters={
            "design_points": float(len(results)),
            "point_sims": float(
                sum(len(r.benchmarks) for r in results)
            ),
            "sim_cycles": float(cycles),
        },
        extra={
            "frontier_size": len(pareto_frontier(results)),
            "artifact_bytes": len(artifact),
        },
    )


#: Machines the batched-sweep scenario simulates per benchmark in one
#: ``batch_simulate`` job.
BATCHED_SWEEP_MACHINES = ("playdoh-4w", "playdoh-8w", "unlimited")


def _run_batched_sweep(ctx: BenchContext, state: Any) -> ScenarioRun:
    """A machine sweep through the runner's ``batch_simulate`` stage:
    per benchmark, one job simulates every machine point off one shared
    trace decode (each result byte-identical to a scalar simulate job)."""
    from repro.machine.configs import by_name
    from repro.runner import Runner, batch_simulate_job

    machines = [by_name(name) for name in BATCHED_SWEEP_MACHINES]
    runner = Runner(cache=None)
    cycles = 0
    points = 0
    for name in ABLATION_BENCHMARKS:
        results = runner.run_job(
            batch_simulate_job(name, machines, scale=ctx.workload_scale)
        )
        points += len(results)
        cycles += sum(r.cycles_proposed for r in results.values())
    return ScenarioRun(
        counters={
            "sim_points": float(points),
            "sim_cycles": float(cycles),
        }
    )


register_scenario(
    BenchScenario(
        name="table2",
        description="Table 2 from a cold start: profile, compile and "
        "simulate the suite on the 4-wide machine",
        subsystems=("core", "profiling", "evaluation"),
        run=_run_table2,
    )
)
register_scenario(
    BenchScenario(
        name="table3",
        description="Compile stage alone (4-wide), build/profile products "
        "prepared untimed; attributes wall time to compiler passes",
        subsystems=("compiler",),
        run=_run_table3,
        prepare=_prepare_profiled,
    )
)
register_scenario(
    BenchScenario(
        name="table4",
        description="Table 4 from a cold start: the suite simulated on "
        "both the 4-wide and 8-wide machines",
        subsystems=("core", "profiling", "evaluation"),
        run=_run_table4,
    )
)
register_scenario(
    BenchScenario(
        name="figure8",
        description="Figure 8 static distribution: compile and bucket "
        "schedule-length deltas (build/profile prepared untimed)",
        subsystems=("compiler", "evaluation"),
        run=_run_figure8,
        prepare=_prepare_profiled,
    )
)
register_scenario(
    BenchScenario(
        name="ablation_threshold",
        description=f"Threshold ablation {ABLATION_THRESHOLDS} over "
        f"{ABLATION_BENCHMARKS}: full pipeline + simulate per point",
        subsystems=("core", "compiler", "profiling"),
        run=_run_ablation,
    )
)
register_scenario(
    BenchScenario(
        name="cycle_accounting",
        description=f"Full pipeline over {ABLATION_BENCHMARKS} (4-wide) "
        "with CPI-stack collection enabled: times the cycle-attribution "
        "overhead against the disabled-path scenarios",
        subsystems=("obs", "core", "compiler"),
        run=_run_cycle_accounting,
    )
)
register_scenario(
    BenchScenario(
        name="runner_scaling",
        description="Runner cold+warm cache cycle over the table2 job "
        "graph (fresh disk cache per iteration)",
        subsystems=("runner",),
        run=_run_runner_scaling,
    )
)
register_scenario(
    BenchScenario(
        name="interp_hotloop",
        description=f"Observer-less architectural interpretation of "
        f"{HOTLOOP_BENCHMARKS} (programs built untimed): the "
        "block-specialized dispatch fast path alone",
        subsystems=("profiling",),
        run=_run_interp_hotloop,
        prepare=_prepare_hotloop,
    )
)
register_scenario(
    BenchScenario(
        name="explore_grid",
        description=f"Design-space sweep {EXPLORE_GRID_AXES} over "
        f"{ABLATION_BENCHMARKS}: explore driver end to end — points, "
        "evaluations, cost model, Pareto frontier, report artifact",
        subsystems=("explore", "core", "compiler"),
        run=_run_explore_grid,
    )
)
register_scenario(
    BenchScenario(
        name="sweep_replay",
        description=f"Threshold sweep {SWEEP_REPLAY_THRESHOLDS} over "
        f"{ABLATION_BENCHMARKS} against a fresh trace store: capture "
        "once, replay every other sweep point",
        subsystems=("trace", "core", "compiler"),
        run=_run_sweep_replay,
    )
)
register_scenario(
    BenchScenario(
        name="batched_sweep",
        description=f"Machine sweep {BATCHED_SWEEP_MACHINES} over "
        f"{ABLATION_BENCHMARKS} through the runner's batch_simulate "
        "stage: one batched pass per benchmark across all machine points",
        subsystems=("batchsim", "runner", "core"),
        run=_run_batched_sweep,
    )
)
# Re-export for harness convenience.
__all__ = [
    "ABLATION_BENCHMARKS",
    "ABLATION_THRESHOLDS",
    "BATCHED_SWEEP_MACHINES",
    "EXPLORE_GRID_AXES",
    "HOTLOOP_BENCHMARKS",
    "SWEEP_REPLAY_THRESHOLDS",
    "BenchContext",
    "BenchScenario",
    "SCENARIOS",
    "ScenarioRun",
    "register_scenario",
    "resolve_scenarios",
]
