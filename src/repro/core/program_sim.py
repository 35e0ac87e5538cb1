"""Whole-program dynamic simulation of the proposed architecture.

The program is executed architecturally by the interpreter (or replayed
from its value trace); a simulation observer rides along and, for every
dynamic instance of a speculated block, queries the live hardware value
predictor for each predicted load and scores it against the actual
loaded value.  The run reduces to :class:`SimCounts` — instances per
block version and per correctness pattern — and one fold charges each
pattern its dual-engine timing, computed once per (block, pattern): a
block with *n* predicted loads has at most ``2^n`` distinct timings.

The same fold accounts the two comparison machines:

* **no prediction** — every block instance costs its original schedule
  length;
* **baseline recovery** ([4]) — the main speculative schedule plus serial
  compensation-block excursions and branch redirects.

Instruction-cache pollution, when modelled, is the one order-dependent
cost: a fetch walk adds each instance's miss penalties on top of the
fold.

This mirrors the paper's methodology of combining profiled block
frequencies with per-block schedule lengths, except outcomes come from a
real predictor running over the real value stream rather than from the
profile alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.predict.base import _values_equal
from repro.core import compile_cache
from repro.core.metrics import OutcomeClass, classify_outcome

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.block import BasicBlock
    from repro.ir.operation import Operation
    from repro.obs.metrics import MetricsSnapshot
    from repro.predict.base import ValuePredictor
    from repro.predict.confidence import ConfidenceEstimator
    from repro.predict.table import ValuePredictionTable
    from repro.core.icache import ICacheConfig
    from repro.core.metrics import BlockCompilation, ProgramCompilation


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
    # Extensions: instances that fell back to the non-speculative block
    # version because prediction confidence was low (see simulate_program's
    # ``confidence`` option), and value-prediction-table tag misses.
    gated_instances: int = 0
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

    def class_length_fraction(self, outcome: OutcomeClass) -> float:
        """Effective/original length ratio for instances of a class."""
        orig = self.original_cycles_by_class.get(outcome, 0)
        if orig == 0:
            return 1.0
        return self.cycles_by_class.get(outcome, 0) / orig

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

    Everything :func:`simulate_program` reports, icache penalties aside
    (:class:`_FetchWalk`), is an exact, deterministic function of these
    counts plus the (memoised) per-block compiler products: per label, how many instances ran non-speculated
    / confidence-gated / under each correctness pattern, plus the raw
    predictor hit counters.  The scalar observer and the batched engine
    (:mod:`repro.batchsim.engine`) both reduce a run to this record and
    share :func:`_fold_counts` for the accounting — which is what makes
    batched results byte-identical to scalar results by construction.
    """

    nonspec: Dict[str, int] = field(default_factory=dict)
    gated: Dict[str, int] = field(default_factory=dict)
    patterns: Dict[str, Dict[Tuple[bool, ...], int]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    no_predictions: int = 0


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
    registry: MetricsRegistry,
    collect_cycles: bool,
    cycle_stacks: Dict[str, Dict[str, int]],
    predictor_label: str,
) -> None:
    """Deterministic accounting of a run from its sufficient statistics.

    Labels and patterns are folded in sorted order, each charged
    ``count`` times via multiplication, so every result container has a
    canonical layout independent of dynamic encounter order — the
    keystone of scalar/batched byte-parity.  Per-pattern block timings,
    baseline and squash recovery runs are computed once per (block,
    pattern) and shared process-wide through
    :mod:`repro.core.compile_cache`.
    """
    machine = compilation.machine
    res = result
    if registry.enabled:
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
    labels = sorted(
        set(counts.nonspec) | set(counts.gated) | set(counts.patterns)
    )
    for label in labels:
        comp = compilation.blocks[label]
        n_nonspec = counts.nonspec.get(label, 0)
        n_gated = counts.gated.get(label, 0)
        per_pattern = counts.patterns.get(label)
        n_spec = sum(per_pattern.values()) if per_pattern else 0
        total = n_nonspec + n_gated + n_spec
        res.dynamic_blocks += total
        res.cycles_nopred += comp.original_length * total
        res.gated_instances += n_gated
        plain = n_nonspec + n_gated
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
            if registry.enabled:
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


class _FetchWalk:
    """Instruction-cache fetches of one run, walked in dynamic order.

    Cache state depends on the fetch sequence, so this is the only
    per-instance work an icache run adds to the counts fold.  Every
    instance fetches its main block through both caches; a speculated
    instance on the baseline machine then fetches, in LdPred order, the
    compensation block of each mispredicted load that has operations.
    The no-prediction and squash machines fetch the same block stream as
    the proposed machine, so all three are charged its penalty (the
    squash machine's refetch on restart is folded into that penalty).
    """

    def __init__(
        self, compilation: ProgramCompilation, config: Optional[ICacheConfig]
    ):
        from repro.core.icache import CodeLayout, ICacheConfig, InstructionCache

        config = config or ICacheConfig()
        self.layout = CodeLayout(config)
        self.proposed = InstructionCache(config)
        self.baseline = InstructionCache(config)
        self.proposed_cycles = 0
        self.baseline_cycles = 0
        # Main code first, then the baseline's compensation blocks.
        for label, comp in compilation.blocks.items():
            if comp.spec_schedule is not None:
                op_count = len(comp.spec_schedule.spec.operations)
            else:
                op_count = len(compilation.program.main.block(label).operations)
            self.layout.place(f"main:{label}", op_count)
        for comp in compilation.blocks.values():
            if comp.baseline is None:
                continue
            for c in comp.baseline.compensation.values():
                if c.op_count:
                    self.layout.place(c.code_id, c.op_count)

    def instance(
        self, comp: BlockCompilation, pattern: Optional[Tuple[bool, ...]]
    ) -> None:
        """Fetch one instance; ``pattern`` is ``None`` unless it ran the
        speculative version."""
        main = f"main:{comp.label}"
        fetch = self.layout.fetch
        self.proposed_cycles += fetch(self.proposed, main)
        self.baseline_cycles += fetch(self.baseline, main)
        if pattern is None:
            return
        compensation = comp.baseline.compensation
        for ldpred_id, correct in zip(comp.spec_schedule.spec.ldpred_ids, pattern):
            block = compensation[ldpred_id]
            if not correct and block.op_count:
                self.baseline_cycles += fetch(self.baseline, block.code_id)

    def charge(
        self,
        result: ProgramSimResult,
        cycle_stacks: Optional[Dict[str, Dict[str, int]]],
    ) -> None:
        """Add the walked penalties to the folded totals and stacks."""
        proposed, baseline = self.proposed_cycles, self.baseline_cycles
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


class _SimulationObserver:
    """Interpreter observer reducing a run to its :class:`SimCounts`.

    It drives the live value predictor over the predicted loads and
    records, per dynamic block instance, which version ran and under
    which correctness pattern; :func:`_fold_counts` does all cycle
    accounting after the run.  With icache modelling, each instance is
    also handed to the run's :class:`_FetchWalk`.
    """

    def __init__(
        self,
        compilation: ProgramCompilation,
        predictor: ValuePredictor,
        counts: SimCounts,
        table: Optional[ValuePredictionTable] = None,
        confidence: Optional[ConfidenceEstimator] = None,
        fetch: Optional[_FetchWalk] = None,
    ):
        self.compilation = compilation
        self.predictor = predictor
        self.counts = counts
        self.table = table
        self.confidence = confidence
        self.fetch = fetch

        self._current: Optional[BlockCompilation] = None
        self._predicted_ids: frozenset = frozenset()
        self._outcomes: Dict[int, bool] = {}
        self._gated = False

    # -- observer protocol -------------------------------------------------

    def block_entered(self, block: BasicBlock) -> None:
        self._finish_instance()
        self._current = self.compilation.blocks.get(block.label)
        if self._current is not None and self._current.speculated:
            self._predicted_ids = frozenset(self._current.predicted_load_ids)
        else:
            self._predicted_ids = frozenset()
        self._outcomes = {}
        # Confidence gating decides at fetch time (before the block's
        # loads execute) whether this instance runs the speculative or
        # the plain version of the block.
        self._gated = bool(
            self.confidence is not None
            and self._predicted_ids
            and any(
                not self.confidence.confident(op_id)
                for op_id in self._predicted_ids
            )
        )

    def operation_executed(self, op: Operation, inputs, result) -> None:
        if op.op_id not in self._predicted_ids:
            return
        if self.table is not None:
            prediction = self.table.lookup(op.op_id)
        else:
            prediction = self.predictor.predict(op.op_id)
        correct = prediction is not None and _values_equal(prediction, result)
        self._outcomes[op.op_id] = correct
        if correct:
            self.counts.hits += 1
        else:
            self.counts.misses += 1
        if prediction is None:
            self.counts.no_predictions += 1
        if self.table is not None:
            self.table.train(op.op_id, result)
        else:
            self.predictor.update(op.op_id, result)
        if self.confidence is not None:
            self.confidence.record(op.op_id, correct)

    def finish(self) -> None:
        self._finish_instance()
        self._current = None

    def _finish_instance(self) -> None:
        comp = self._current
        if comp is None:
            return
        c = self.counts
        pattern = None
        if not comp.speculated:
            c.nonspec[comp.label] = c.nonspec.get(comp.label, 0) + 1
        elif self._gated:
            # Low confidence: the fetch unit selected the plain version.
            c.gated[comp.label] = c.gated.get(comp.label, 0) + 1
        else:
            pattern = tuple(
                self._outcomes.get(load_id, False)
                for load_id in comp.predicted_load_ids
            )
            per = c.patterns.setdefault(comp.label, {})
            per[pattern] = per.get(pattern, 0) + 1
        if self.fetch is not None:
            self.fetch.instance(comp, pattern)


def simulate_program(
    compilation: ProgramCompilation,
    predictor: Optional[ValuePredictor] = None,
    model_icache: bool = False,
    icache_config: Optional[ICacheConfig] = None,
    max_operations: int = 5_000_000,
    table_capacity: Optional[int] = None,
    confidence: Optional[ConfidenceEstimator] = None,
    collect_metrics: bool = False,
    collect_cycles: bool = False,
    trace=None,
    batch=None,
) -> ProgramSimResult:
    """Execute the program once, timing all three machines.

    Args:
        compilation: output of :func:`repro.core.metrics.compile_program`.
        predictor: live hardware value predictor; ``None`` builds the
            machine spec's declared predictor (the paper's machines
            declare the stride+FCM hybrid, so the default is unchanged).
        model_icache: charge instruction-cache miss penalties (used by
            the baseline-comparison experiment; off for Tables 2-4, which
            the paper computes from schedule lengths alone).
        table_capacity: model a finite, direct-mapped Value Prediction
            Table of this many entries; ``None`` falls back to the
            machine spec's ``predictor.table_entries`` (itself ``None``
            — unbounded, the paper's profile-based setting — on the
            registry machines); conflicting static loads then steal each
            other's entries.
        confidence: optional saturating-counter confidence estimator;
            when a block's predicted loads are not all confident, the
            instance runs the plain (non-speculative) version of the
            block — the classic dual-version gating extension.
        collect_metrics: aggregate an observability snapshot (predictor
            hit/miss counters, merged per-block dual-engine metrics,
            icache counters) into ``result.metrics``.  Off by default;
            timing results are identical either way.
        collect_cycles: attribute every cycle of all three machines to
            one cause (see :mod:`repro.obs.cycles`) into
            ``result.cycle_stacks``; each stack is asserted to sum
            exactly to the matching ``cycles_*`` total.  Off by default;
            timing results are identical either way.
        trace: a :class:`~repro.trace.format.ValueTrace` captured from this
            compilation's program.  When given, the simulation observer
            is driven from the recorded value stream instead of a live
            interpretation — results are identical because the observer
            consumes only block entries and traced-op result values.
            The trace must cover every predicted load of the
            compilation; :class:`~repro.trace.format.TraceMismatch` is raised
            otherwise.
        batch: opt into the batched struct-of-arrays engine
            (:mod:`repro.batchsim`).  Pass a
            :class:`~repro.batchsim.context.BatchContext` to share trace
            decodes and predictor outcome columns across the points of a
            sweep, or ``True`` for the process-wide default context.
            The batched engine runs only when this simulation is on the
            common path (trace-driven, machine-spec predictor, unbounded
            table, no confidence gating, no icache); anything else runs
            the scalar engine.  Results are byte-identical either way —
            both engines reduce the run to :class:`SimCounts` and share
            one accounting fold.
    """
    from repro.predict.hybrid import default_hybrid
    from repro.predict.table import ValuePredictionTable

    result = ProgramSimResult(
        program_name=compilation.program.name,
        machine_name=compilation.machine.name,
    )
    registry = MetricsRegistry() if collect_metrics else NULL_METRICS
    machine_predictor = getattr(compilation.machine, "predictor", None)
    if predictor is not None:
        base_predictor = predictor
    elif machine_predictor is not None:
        # The machine spec declares the hardware predictor; the registry
        # machines declare the paper's hybrid, so this default matches
        # the historical ``default_hybrid()``.
        base_predictor = machine_predictor.build()
    else:
        base_predictor = default_hybrid()
    if table_capacity is None and machine_predictor is not None:
        table_capacity = machine_predictor.table_entries
    table = (
        ValuePredictionTable(base_predictor, capacity=table_capacity)
        if table_capacity is not None
        else None
    )
    predictor_label = (
        f"table:{base_predictor.name}" if table is not None else base_predictor.name
    )
    if trace is not None:
        from repro.trace.format import TRACED_OPCODES, TraceMismatch

        # Static coverage check: replay only notifies traced ops, so
        # every load (or ALU op) the compilation predicts must be in the
        # traced set — otherwise its outcomes would silently default to
        # "mispredicted" instead of being scored against real values.
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

    cycle_stacks: Dict[str, Dict[str, int]] = {
        "nopred": {},
        "proposed": {},
        "baseline": {},
    }
    sim_counts: Optional[SimCounts] = None
    if batch is not None:
        from repro.batchsim.engine import batch_counts, unsupported_reason

        if (
            unsupported_reason(
                predictor=predictor,
                table=table,
                confidence=confidence,
                model_icache=model_icache,
                trace=trace,
            )
            is None
        ):
            from repro.batchsim.context import resolve_context

            sim_counts = batch_counts(
                compilation, trace, resolve_context(batch), max_operations
            )

    fetch = None
    if sim_counts is None:
        sim_counts = SimCounts()
        if model_icache:
            fetch = _FetchWalk(compilation, icache_config)
        observer = _SimulationObserver(
            compilation,
            base_predictor,
            sim_counts,
            table=table,
            confidence=confidence,
            fetch=fetch,
        )
        if trace is not None:
            from repro.trace.replay import replay_trace

            replay_trace(
                trace,
                compilation.program,
                observers=[observer],
                max_operations=max_operations,
            )
        else:
            from repro.profiling.interpreter import Interpreter

            Interpreter(max_operations=max_operations).run(
                compilation.program, observers=[observer]
            )
        observer.finish()
        if table is not None:
            result.table_tag_misses = table.tag_misses
    _fold_counts(
        compilation,
        sim_counts,
        result,
        registry,
        collect_cycles,
        cycle_stacks,
        predictor_label,
    )
    if fetch is not None:
        fetch.charge(result, cycle_stacks if collect_cycles else None)
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
    if registry.enabled:
        if result.cycle_stacks:
            for model, stack in result.cycle_stacks.items():
                for cause, cycles in stack.items():
                    registry.inc(
                        "sim.cycles", cycles, label=f"cause={cause},model={model}"
                    )
        registry.inc("sim.dynamic_blocks", result.dynamic_blocks)
        registry.inc("sim.gated_instances", result.gated_instances)
        if fetch is not None:
            for label, cache in (
                ("proposed", fetch.proposed),
                ("baseline", fetch.baseline),
            ):
                registry.inc("icache.access", cache.accesses, label=label)
                registry.inc("icache.miss", cache.misses, label=label)
        result.metrics = registry.snapshot()
    return result
