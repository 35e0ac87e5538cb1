"""Whole-program dynamic simulation of the proposed architecture.

The program's value trace (one architectural run, captured by
:mod:`repro.trace.capture`) is the only input: for every dynamic instance
of a speculated block, the machine's hardware value predictor is queried
for each predicted load and scored against the recorded loaded value.
The run reduces to :class:`SimCounts` — instances per block version and
per correctness pattern — and one fold charges each pattern its
dual-engine timing, computed once per (block, pattern): a block with *n*
predicted loads has at most ``2^n`` distinct timings.

One engine produces the counts: :mod:`repro.batchsim.engine` computes
them column-wise from the shared trace decode, including the two parts
that couple instances through sequential state — a finite
value-prediction table and the instruction-cache fetch walk.

The same fold accounts the two comparison machines:

* **no prediction** — every block instance costs its original schedule
  length;
* **baseline recovery** ([4]) — the main speculative schedule plus serial
  compensation-block excursions and branch redirects.

Instruction-cache pollution, when modelled, is the one order-dependent
cost: the engine folds the run's fetch streams into per-cache miss
counts, and their penalties are added on top of the fold.

This mirrors the paper's methodology of combining profiled block
frequencies with per-block schedule lengths, except outcomes come from a
real predictor running over the real value stream rather than from the
profile alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.core import compile_cache
from repro.core.metrics import OutcomeClass, classify_outcome

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.metrics import MetricsSnapshot
    from repro.core.metrics import BlockCompilation, ProgramCompilation
    from repro.trace.format import ValueTrace


@dataclass
class ProgramSimResult:
    """Aggregate timing of one dynamic program run on all three machines."""

    program_name: str
    machine_name: str
    # Totals.
    cycles_nopred: int = 0
    cycles_proposed: int = 0
    cycles_baseline: int = 0
    #: Superscalar-style squash recovery: any misprediction restarts the
    #: whole block without prediction.
    cycles_squash: int = 0
    squashed_instances: int = 0
    # Baseline breakdown.
    baseline_compensation_cycles: int = 0
    baseline_branch_cycles: int = 0
    baseline_icache_cycles: int = 0
    proposed_icache_cycles: int = 0
    # Proposed-machine accounting by dynamic outcome class.
    cycles_by_class: Dict[OutcomeClass, int] = field(default_factory=dict)
    instances_by_class: Dict[OutcomeClass, int] = field(default_factory=dict)
    # Original-schedule cycles of the same instances (per class), for
    # schedule-length-ratio computations.
    original_cycles_by_class: Dict[OutcomeClass, int] = field(default_factory=dict)
    # Figure 8: per dynamic speculated instance, original minus effective
    # length (positive = improvement), bucketed later by the experiment.
    length_delta_histogram: Counter = field(default_factory=Counter)
    # Prediction accounting.
    predictions: int = 0
    mispredictions: int = 0
    stall_cycles: int = 0
    cc_executed: int = 0
    cc_flushed: int = 0
    dynamic_blocks: int = 0
    #: Value-prediction-table tag misses (machines with a finite
    #: ``predictor.table_entries`` only).
    table_tag_misses: int = 0
    #: Aggregated observability snapshot; populated only when
    #: ``simulate_program`` ran with ``collect_metrics=True``.
    metrics: Optional[MetricsSnapshot] = None
    #: Per-machine CPI stacks (``"nopred"``/``"proposed"``/``"baseline"``
    #: -> cause -> cycles, causes from :data:`repro.obs.cycles.CAUSES`);
    #: populated only when ``simulate_program`` ran with
    #: ``collect_cycles=True``.  Each stack sums exactly to the matching
    #: ``cycles_*`` total — asserted at the end of the run.
    cycle_stacks: Optional[Dict[str, Dict[str, int]]] = None

    @property
    def speedup_proposed(self) -> float:
        """No-prediction cycles over proposed-machine cycles."""
        return self.cycles_nopred / self.cycles_proposed if self.cycles_proposed else 1.0

    @property
    def speedup_baseline(self) -> float:
        return self.cycles_nopred / self.cycles_baseline if self.cycles_baseline else 1.0

    @property
    def speedup_squash(self) -> float:
        return self.cycles_nopred / self.cycles_squash if self.cycles_squash else 1.0

    @property
    def prediction_accuracy(self) -> float:
        if self.predictions == 0:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions

    def time_fraction(self, outcome: OutcomeClass) -> float:
        """Fraction of proposed-machine time spent in instances of a class."""
        if self.cycles_proposed == 0:
            return 0.0
        return self.cycles_by_class.get(outcome, 0) / self.cycles_proposed

    @property
    def baseline_compensation_fraction(self) -> float:
        """Share of baseline time spent off the main schedule (recovery)."""
        if self.cycles_baseline == 0:
            return 0.0
        overhead = (
            self.baseline_compensation_cycles
            + self.baseline_branch_cycles
            + self.baseline_icache_cycles
        )
        return overhead / self.cycles_baseline


@dataclass
class SimCounts:
    """Sufficient statistics of one dynamic run.

    Everything :func:`simulate_program` reports is an exact,
    deterministic function of these counts plus the (memoised) per-block
    compiler products: per label, how many instances ran non-speculated
    or under each correctness pattern, the raw predictor hit counters,
    the finite table's tag misses and, for icache runs, each cache's
    fetch totals.  :mod:`repro.batchsim.engine` reduces a run to this
    record and :func:`_fold_counts` does all accounting from it.
    """

    nonspec: Dict[str, int] = field(default_factory=dict)
    patterns: Dict[str, Dict[Tuple[bool, ...], int]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    no_predictions: int = 0
    table_tag_misses: int = 0
    #: ``(accesses, misses)`` per cache, ``"proposed"`` (main code) and
    #: ``"baseline"`` (main and compensation code); empty unless the run
    #: modelled the instruction cache.
    icache: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def _shared_original_attribution(
    compilation: ProgramCompilation, comp: BlockCompilation
) -> Dict[str, int]:
    """Per-cause attribution of the block's original schedule.

    The compiler records only the original schedule *length*; list
    scheduling is deterministic, so rebuilding the schedule here
    reproduces it exactly (asserted against the recorded length).
    """
    block = compilation.program.main.block(comp.label)
    machine = compilation.machine

    def compute() -> Dict[str, int]:
        from repro.obs.cycles import attribute_schedule

        schedule = compile_cache.original_schedule(block, machine)
        assert schedule.length == comp.original_length, (
            f"block {comp.label!r}: rebuilt original schedule is "
            f"{schedule.length} cycles, compiler recorded {comp.original_length}"
        )
        return attribute_schedule(schedule)

    return compile_cache.cached(
        block, ("oattr", compile_cache.timing_key(machine)), compute
    )


def _shared_baseline_attribution(comp: BlockCompilation) -> Dict[str, int]:
    """Static attribution of the baseline machine's main schedule."""
    block = comp.baseline.spec.original
    baseline = compile_cache.origin(block, comp.baseline)

    def compute():
        from repro.obs.cycles import attribute_schedule

        counts = attribute_schedule(baseline.schedule.schedule)
        assert sum(counts.values()) == baseline.main_length
        # The memo value pins the baseline object so the id in the key
        # stays valid for the entry's lifetime.
        return (baseline, counts)

    return compile_cache.cached(block, ("battr", id(baseline)), compute)[1]


def _shared_baseline_run(comp: BlockCompilation, ldpreds, pattern, machine):
    """Baseline recovery timing for one pattern (pure — no icache)."""
    block = comp.baseline.spec.original
    baseline = compile_cache.origin(block, comp.baseline)
    tkey = compile_cache.timing_key(machine)

    def compute():
        from repro.core.baseline import simulate_baseline_block

        return (
            baseline,
            simulate_baseline_block(baseline, dict(zip(ldpreds, pattern)), machine),
        )

    key = ("brun", id(baseline), tkey, pattern)
    return compile_cache.cached(block, key, compute)[1]


def _shared_squash_run(comp: BlockCompilation, ldpreds, pattern, machine):
    """Squash recovery timing for one pattern (memoised)."""
    block = comp.spec_schedule.spec.original
    schedule = compile_cache.origin(block, comp.spec_schedule)
    tkey = compile_cache.timing_key(machine)

    def compute():
        from repro.core.baseline import simulate_squash_block

        return (
            schedule,
            simulate_squash_block(schedule, dict(zip(ldpreds, pattern)), machine),
        )

    key = ("srun", id(schedule), tkey, pattern)
    return compile_cache.cached(block, key, compute)[1]


def _charge_scaled(stack: Dict[str, int], counts: Mapping[str, int], n: int) -> None:
    for cause, cycles in counts.items():
        stack[cause] = stack.get(cause, 0) + cycles * n


def _account_class_counts(
    res: ProgramSimResult,
    outcome: OutcomeClass,
    cycles: int,
    comp: BlockCompilation,
    n: int,
) -> None:
    res.cycles_by_class[outcome] = res.cycles_by_class.get(outcome, 0) + cycles * n
    res.instances_by_class[outcome] = res.instances_by_class.get(outcome, 0) + n
    res.original_cycles_by_class[outcome] = (
        res.original_cycles_by_class.get(outcome, 0) + comp.original_length * n
    )


def _fold_counts(
    compilation: ProgramCompilation,
    counts: SimCounts,
    result: ProgramSimResult,
    registry: Optional[MetricsRegistry],
    collect_cycles: bool,
    cycle_stacks: Dict[str, Dict[str, int]],
    predictor_label: str,
) -> None:
    """Deterministic accounting of a run from its sufficient statistics.

    Labels and patterns are folded in sorted order, each charged
    ``count`` times via multiplication, so every result container has a
    canonical layout independent of dynamic encounter order.  Per-pattern
    block timings, baseline and squash recovery runs are computed once
    per (block, pattern) and shared process-wide through
    :mod:`repro.core.compile_cache`.  Instruction-cache penalties, when
    the run modelled the cache, are added last.
    """
    machine = compilation.machine
    res = result
    if registry is not None:
        if counts.hits:
            registry.inc("predict.hit", counts.hits, label=predictor_label)
        if counts.misses:
            registry.inc("predict.miss", counts.misses, label=predictor_label)
        if counts.no_predictions:
            registry.inc(
                "predict.no_prediction",
                counts.no_predictions,
                label=predictor_label,
            )
    for label in sorted(set(counts.nonspec) | set(counts.patterns)):
        comp = compilation.blocks[label]
        plain = counts.nonspec.get(label, 0)
        per_pattern = counts.patterns.get(label)
        n_spec = sum(per_pattern.values()) if per_pattern else 0
        total = plain + n_spec
        res.dynamic_blocks += total
        res.cycles_nopred += comp.original_length * total
        if plain:
            res.cycles_proposed += comp.original_length * plain
            res.cycles_baseline += comp.original_length * plain
            res.cycles_squash += comp.original_length * plain
            _account_class_counts(
                res, OutcomeClass.NOT_SPECULATED, comp.original_length, comp, plain
            )
        if collect_cycles and total:
            orig = _shared_original_attribution(compilation, comp)
            _charge_scaled(cycle_stacks["nopred"], orig, total)
            if plain:
                _charge_scaled(cycle_stacks["proposed"], orig, plain)
                _charge_scaled(cycle_stacks["baseline"], orig, plain)
        if not per_pattern:
            continue
        ldpreds = comp.spec_schedule.spec.ldpred_ids
        for pattern in sorted(per_pattern):
            n = per_pattern[pattern]
            run = comp.run_for(pattern)
            if registry is not None:
                registry.merge_snapshot(comp.metrics_for(pattern).scaled(n))
            res.cycles_proposed += run.effective_length * n
            res.predictions += run.predictions * n
            res.mispredictions += run.mispredictions * n
            res.stall_cycles += run.stall_cycles * n
            res.cc_executed += run.executed * n
            res.cc_flushed += run.flushed * n
            if collect_cycles:
                _charge_scaled(
                    cycle_stacks["proposed"], comp.cycles_for(pattern), n
                )
            outcome = classify_outcome(run.predictions, run.mispredictions)
            _account_class_counts(res, outcome, run.effective_length, comp, n)
            res.length_delta_histogram[
                comp.original_length - run.effective_length
            ] += n
            baseline_run = _shared_baseline_run(comp, ldpreds, pattern, machine)
            res.cycles_baseline += baseline_run.effective_length * n
            res.baseline_compensation_cycles += baseline_run.compensation_cycles * n
            res.baseline_branch_cycles += baseline_run.branch_cycles * n
            if collect_cycles:
                stack = cycle_stacks["baseline"]
                _charge_scaled(stack, _shared_baseline_attribution(comp), n)
                for cause, cycles in (
                    ("reexec", baseline_run.compensation_cycles),
                    ("branch_penalty", baseline_run.branch_cycles),
                ):
                    if cycles:
                        stack[cause] = stack.get(cause, 0) + cycles * n
            squash_run = _shared_squash_run(comp, ldpreds, pattern, machine)
            res.cycles_squash += squash_run.effective_length * n
            if squash_run.squashed:
                res.squashed_instances += n
    res.table_tag_misses += counts.table_tag_misses
    if counts.icache:
        _charge_icache(res, counts.icache, cycle_stacks if collect_cycles else None)


def _charge_icache(
    result: ProgramSimResult,
    icache: Dict[str, Tuple[int, int]],
    cycle_stacks: Optional[Dict[str, Dict[str, int]]],
) -> None:
    """Add the run's instruction-cache miss penalties to the folded
    totals and stacks.

    The no-prediction and squash machines fetch the proposed machine's
    block stream (:mod:`repro.batchsim.fetch`), so they are charged its
    penalty too.
    """
    from repro.core.icache import ICacheConfig

    penalty = ICacheConfig().miss_penalty
    proposed = icache["proposed"][1] * penalty
    baseline = icache["baseline"][1] * penalty
    result.proposed_icache_cycles += proposed
    result.cycles_nopred += proposed
    result.cycles_proposed += proposed
    result.cycles_squash += proposed
    result.baseline_icache_cycles += baseline
    result.cycles_baseline += baseline
    if cycle_stacks is None:
        return
    for model, cycles in (
        ("nopred", proposed),
        ("proposed", proposed),
        ("baseline", baseline),
    ):
        if cycles:
            stack = cycle_stacks[model]
            stack["icache_miss"] = stack.get("icache_miss", 0) + cycles


def _check_coverage(compilation: ProgramCompilation) -> None:
    """Every op the compilation predicts must be one the trace records.

    Only traced ops carry values, so an untraced prediction would
    silently score as "mispredicted" instead of against its real values.
    """
    from repro.trace.format import TRACED_OPCODES, TraceMismatch

    function = compilation.program.main
    for label, comp in compilation.blocks.items():
        if not comp.speculated:
            continue
        traced_ids = {
            op.op_id
            for op in function.block(label).operations
            if op.opcode in TRACED_OPCODES
        }
        missing = set(comp.predicted_load_ids) - traced_ids
        if missing:
            raise TraceMismatch(
                f"block {label!r} of {compilation.program.name!r} "
                f"predicts untraced operation(s) {sorted(missing)}"
            )


def simulate_program(
    compilation: ProgramCompilation,
    trace: ValueTrace,
    model_icache: bool = False,
    max_operations: int = 5_000_000,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
) -> ProgramSimResult:
    """Time one run of the program on all three machines.

    Args:
        compilation: output of :func:`repro.compiler.manager.compile_program`.
            Its machine's ``predictor`` spec names the hardware value
            predictor and, via ``table_entries``, an optional finite,
            direct-mapped Value Prediction Table (``None`` — unbounded,
            the paper's profile-based setting — on the registry machines).
        trace: the :class:`~repro.trace.format.ValueTrace` captured from
            this compilation's program.  It must match the program and
            cover every predicted load;
            :class:`~repro.trace.format.TraceMismatch` is raised otherwise.
        model_icache: charge instruction-cache miss penalties (used by
            the baseline-comparison experiment; off for Tables 2-4, which
            the paper computes from schedule lengths alone).
        collect_metrics: aggregate an observability snapshot (predictor
            hit/miss counters, merged per-block dual-engine metrics,
            icache counters) into ``result.metrics``.  Off by default;
            timing results are identical either way.
        collect_cycles: attribute every cycle of all three machines to
            one cause (see :mod:`repro.obs.cycles`) into
            ``result.cycle_stacks``; each stack is asserted to sum
            exactly to the matching ``cycles_*`` total.  Off by default;
            timing results are identical either way.

    The counts come from :func:`repro.batchsim.engine.batch_counts`
    through the process-wide :class:`~repro.batchsim.context.BatchContext`,
    which shares trace decodes and predictor outcome columns across the
    points of a sweep; one accounting fold turns them into the result.
    """
    from repro.batchsim.context import default_context
    from repro.batchsim.engine import batch_counts

    result = ProgramSimResult(
        program_name=compilation.program.name,
        machine_name=compilation.machine.name,
    )
    registry = MetricsRegistry() if collect_metrics else None
    spec = compilation.machine.predictor
    predictor_label = spec.kind
    if spec.table_entries is not None:
        predictor_label = f"table:{predictor_label}"
    _check_coverage(compilation)

    cycle_stacks: Dict[str, Dict[str, int]] = {
        "nopred": {},
        "proposed": {},
        "baseline": {},
    }
    sim_counts = batch_counts(
        compilation, trace, default_context(), max_operations, model_icache
    )
    _fold_counts(
        compilation,
        sim_counts,
        result,
        registry,
        collect_cycles,
        cycle_stacks,
        predictor_label,
    )
    if collect_cycles:
        totals = {
            "nopred": result.cycles_nopred,
            "proposed": result.cycles_proposed,
            "baseline": result.cycles_baseline,
        }
        for model, stack in cycle_stacks.items():
            # The hard program-level invariant: every simulated cycle of
            # every machine is attributed to exactly one cause.
            attributed = sum(stack.values())
            assert attributed == totals[model], (
                f"{result.program_name} on {result.machine_name}: "
                f"{model} cycle stack sums to {attributed}, "
                f"simulated {totals[model]} cycles"
            )
        result.cycle_stacks = {
            model: dict(sorted(stack.items()))
            for model, stack in cycle_stacks.items()
        }
    if registry is not None:
        if result.cycle_stacks:
            for model, stack in result.cycle_stacks.items():
                for cause, cycles in stack.items():
                    registry.inc(
                        "sim.cycles", cycles, label=f"cause={cause},model={model}"
                    )
        registry.inc("sim.dynamic_blocks", result.dynamic_blocks)
        for label, (accesses, misses) in sim_counts.icache.items():
            registry.inc("icache.access", accesses, label=label)
            registry.inc("icache.miss", misses, label=label)
        result.metrics = registry.snapshot()
    return result
