"""Whole-program dynamic simulation of the proposed architecture.

The program is executed architecturally by the interpreter; a simulation
observer rides along and, for every dynamic instance of a speculated
block, queries the live hardware value predictor for each predicted load,
scores it against the actual loaded value, and charges the instance the
dual-engine timing for the resulting correctness pattern (timings are
memoised per pattern — a block with *n* predicted loads has at most
``2^n`` distinct timings).

The same pass simultaneously accounts the two comparison machines:

* **no prediction** — every block instance costs its original schedule
  length;
* **baseline recovery** ([4]) — the main speculative schedule plus serial
  compensation-block excursions, branch redirects and (optionally)
  instruction-cache pollution.

This mirrors the paper's methodology of combining profiled block
frequencies with per-block schedule lengths, except outcomes come from a
real predictor running over the real value stream rather than from the
profile alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.operation import Operation
from repro.obs.cycles import attribute_schedule
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, NULL_METRICS
from repro.predict.base import ValuePredictor, _values_equal
from repro.predict.confidence import ConfidenceEstimator
from repro.predict.hybrid import default_hybrid
from repro.predict.table import ValuePredictionTable
from repro.profiling.interpreter import Interpreter
from repro.core import compile_cache
from repro.core.baseline import simulate_baseline_block, simulate_squash_block
from repro.core.icache import CodeLayout, ICacheConfig, InstructionCache
from repro.core.metrics import (
    BlockCompilation,
    OutcomeClass,
    ProgramCompilation,
    classify_outcome,
)


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
    """Sufficient statistics of one dynamic run (non-icache machines).

    Everything :func:`simulate_program` reports is an exact,
    deterministic function of these counts plus the (memoised) per-block
    compiler products: per label, how many instances ran non-speculated
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
    entry = compile_cache.cached(
        block,
        ("brun", id(baseline), tkey, pattern),
        lambda: (
            baseline,
            simulate_baseline_block(
                baseline, dict(zip(ldpreds, pattern)), machine
            ),
        ),
    )
    return entry[1]


def _shared_squash_run(comp: BlockCompilation, ldpreds, pattern, machine):
    """Squash recovery timing for one pattern (memoised)."""
    block = comp.spec_schedule.spec.original
    schedule = compile_cache.origin(block, comp.spec_schedule)
    tkey = compile_cache.timing_key(machine)
    entry = compile_cache.cached(
        block,
        ("srun", id(schedule), tkey, pattern),
        lambda: (
            schedule,
            simulate_squash_block(
                schedule, dict(zip(ldpreds, pattern)), machine
            ),
        ),
    )
    return entry[1]


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
            res.baseline_icache_cycles += baseline_run.icache_cycles * n
            if collect_cycles:
                stack = cycle_stacks["baseline"]
                _charge_scaled(stack, _shared_baseline_attribution(comp), n)
                for cause, cycles in (
                    ("reexec", baseline_run.compensation_cycles),
                    ("branch_penalty", baseline_run.branch_cycles),
                    ("icache_miss", baseline_run.icache_cycles),
                ):
                    if cycles:
                        stack[cause] = stack.get(cause, 0) + cycles * n
            squash_run = _shared_squash_run(comp, ldpreds, pattern, machine)
            res.cycles_squash += squash_run.effective_length * n
            if squash_run.squashed:
                res.squashed_instances += n


class _SimulationObserver:
    """Interpreter observer driving all three machine accountings."""

    def __init__(
        self,
        compilation: ProgramCompilation,
        predictor: ValuePredictor,
        result: ProgramSimResult,
        model_icache: bool,
        icache_config: Optional[ICacheConfig],
        table: Optional[ValuePredictionTable] = None,
        confidence: Optional[ConfidenceEstimator] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        collect_cycles: bool = False,
        counts: Optional[SimCounts] = None,
    ):
        self.compilation = compilation
        self.predictor = predictor
        self.result = result
        # Counts mode (every non-icache run): the observer only records
        # sufficient statistics; _fold_counts does all accounting after
        # the run.  Icache modelling keeps the legacy per-instance path
        # because cache state depends on the dynamic fetch sequence.
        self.counts = counts
        self.machine = compilation.machine
        self.table = table
        self.confidence = confidence
        self.metrics = metrics
        self.collect_cycles = collect_cycles
        # Per-machine cause -> cycles accumulators, plus per-label memos
        # of the static schedule attributions charged once per instance.
        self.cycle_stacks: Dict[str, Dict[str, int]] = {
            "nopred": {},
            "proposed": {},
            "baseline": {},
        }
        self._original_attr: Dict[str, Dict[str, int]] = {}
        self._baseline_attr: Dict[str, Dict[str, int]] = {}
        self._predictor_label = (
            f"table:{predictor.name}" if table is not None else predictor.name
        )

        self._current: Optional[BlockCompilation] = None
        self._predicted_ids: frozenset = frozenset()
        self._outcomes: Dict[int, bool] = {}
        self._gated = False

        self.model_icache = model_icache
        if model_icache:
            config = icache_config or ICacheConfig()
            self.layout = CodeLayout(config)
            self.cache_proposed = InstructionCache(config)
            self.cache_baseline = InstructionCache(config)
            self._place_code()
        else:
            self.layout = None
            self.cache_proposed = None
            self.cache_baseline = None

    def _place_code(self) -> None:
        """Lay out main code, then the baseline's compensation blocks."""
        for label, comp in self.compilation.blocks.items():
            if comp.spec_schedule is not None:
                op_count = len(comp.spec_schedule.spec.operations)
            else:
                op_count = len(
                    self.compilation.program.main.block(label).operations
                )
            self.layout.place(f"main:{label}", op_count)
        for label, comp in self.compilation.blocks.items():
            if comp.baseline is None:
                continue
            for c in comp.baseline.compensation.values():
                if c.op_count:
                    self.layout.place(c.code_id, c.op_count)

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
        if self.counts is not None:
            if correct:
                self.counts.hits += 1
            else:
                self.counts.misses += 1
            if prediction is None:
                self.counts.no_predictions += 1
        elif self.metrics.enabled:
            self.metrics.inc(
                "predict.hit" if correct else "predict.miss",
                label=self._predictor_label,
            )
            if prediction is None:
                self.metrics.inc(
                    "predict.no_prediction", label=self._predictor_label
                )
        if self.table is not None:
            self.table.train(op.op_id, result)
        else:
            self.predictor.update(op.op_id, result)
        if self.confidence is not None:
            self.confidence.record(op.op_id, correct)

    def finish(self) -> None:
        self._finish_instance()
        self._current = None

    # -- cycle accounting --------------------------------------------------

    def _charge(self, model: str, counts: Mapping[str, int]) -> None:
        stack = self.cycle_stacks[model]
        for cause, cycles in counts.items():
            stack[cause] = stack.get(cause, 0) + cycles

    def _charge_cause(self, model: str, cause: str, cycles: int) -> None:
        if self.collect_cycles and cycles:
            stack = self.cycle_stacks[model]
            stack[cause] = stack.get(cause, 0) + cycles

    def _original_attribution(self, comp: BlockCompilation) -> Dict[str, int]:
        """Static per-cause attribution of the block's original schedule.

        The compiler records only the original schedule *length*; list
        scheduling is deterministic, so rebuilding the schedule here
        reproduces it exactly (asserted against the recorded length).
        """
        cached = self._original_attr.get(comp.label)
        if cached is None:
            schedule = compile_cache.original_schedule(
                self.compilation.program.main.block(comp.label), self.machine
            )
            assert schedule.length == comp.original_length, (
                f"block {comp.label!r}: rebuilt original schedule is "
                f"{schedule.length} cycles, compiler recorded {comp.original_length}"
            )
            cached = attribute_schedule(schedule)
            self._original_attr[comp.label] = cached
        return cached

    def _baseline_attribution(self, comp: BlockCompilation) -> Dict[str, int]:
        """Static attribution of the baseline machine's main schedule."""
        cached = self._baseline_attr.get(comp.label)
        if cached is None:
            cached = attribute_schedule(comp.baseline.schedule.schedule)
            assert sum(cached.values()) == comp.baseline.main_length
            self._baseline_attr[comp.label] = cached
        return cached

    # -- accounting -------------------------------------------------------

    def _finish_instance(self) -> None:
        comp = self._current
        if comp is None:
            return
        if self.counts is not None:
            c = self.counts
            if not comp.speculated:
                c.nonspec[comp.label] = c.nonspec.get(comp.label, 0) + 1
            elif self._gated:
                c.gated[comp.label] = c.gated.get(comp.label, 0) + 1
            else:
                pattern = tuple(
                    self._outcomes.get(load_id, False)
                    for load_id in comp.predicted_load_ids
                )
                per = c.patterns.setdefault(comp.label, {})
                per[pattern] = per.get(pattern, 0) + 1
            return
        res = self.result
        res.dynamic_blocks += 1
        res.cycles_nopred += comp.original_length

        if not comp.speculated:
            res.cycles_proposed += comp.original_length
            res.cycles_baseline += comp.original_length
            res.cycles_squash += comp.original_length
            self._account_class(OutcomeClass.NOT_SPECULATED, comp.original_length, comp)
            if self.collect_cycles:
                counts = self._original_attribution(comp)
                self._charge("nopred", counts)
                self._charge("proposed", counts)
                self._charge("baseline", counts)
            if self.model_icache:
                penalty = self.layout.fetch(self.cache_proposed, f"main:{comp.label}")
                res.proposed_icache_cycles += penalty
                res.cycles_proposed += penalty
                # The no-prediction and squash machines fetch the same
                # block stream; charging them the proposed machine's
                # penalty keeps the speedup comparisons apples-to-apples.
                res.cycles_nopred += penalty
                res.cycles_squash += penalty
                self._charge_cause("proposed", "icache_miss", penalty)
                self._charge_cause("nopred", "icache_miss", penalty)
                penalty = self.layout.fetch(self.cache_baseline, f"main:{comp.label}")
                res.baseline_icache_cycles += penalty
                res.cycles_baseline += penalty
                self._charge_cause("baseline", "icache_miss", penalty)
            return

        if self._gated:
            # Low-confidence instance: the fetch unit selected the plain
            # (non-speculative) version of the block, so it costs the
            # original schedule on both speculating machines.
            res.gated_instances += 1
            res.cycles_proposed += comp.original_length
            res.cycles_baseline += comp.original_length
            res.cycles_squash += comp.original_length
            self._account_class(
                OutcomeClass.NOT_SPECULATED, comp.original_length, comp
            )
            if self.collect_cycles:
                counts = self._original_attribution(comp)
                self._charge("nopred", counts)
                self._charge("proposed", counts)
                self._charge("baseline", counts)
            if self.model_icache:
                penalty = self.layout.fetch(self.cache_proposed, f"main:{comp.label}")
                res.proposed_icache_cycles += penalty
                res.cycles_proposed += penalty
                res.cycles_nopred += penalty
                self._charge_cause("proposed", "icache_miss", penalty)
                self._charge_cause("nopred", "icache_miss", penalty)
                penalty = self.layout.fetch(self.cache_baseline, f"main:{comp.label}")
                res.baseline_icache_cycles += penalty
                res.cycles_baseline += penalty
                self._charge_cause("baseline", "icache_miss", penalty)
            return

        pattern = tuple(
            self._outcomes.get(load_id, False) for load_id in comp.predicted_load_ids
        )
        run = comp.run_for(pattern)
        if self.metrics.enabled:
            # One merge per dynamic instance: identical instances share
            # the memoised per-pattern snapshot, so counters sum exactly
            # as the instance-level stats below do.
            self.metrics.merge_snapshot(comp.metrics_for(pattern))
        res.cycles_proposed += run.effective_length
        res.predictions += run.predictions
        res.mispredictions += run.mispredictions
        res.stall_cycles += run.stall_cycles
        res.cc_executed += run.executed
        res.cc_flushed += run.flushed
        if self.collect_cycles:
            self._charge("nopred", self._original_attribution(comp))
            self._charge("proposed", comp.cycles_for(pattern))
        outcome = classify_outcome(run.predictions, run.mispredictions)
        self._account_class(outcome, run.effective_length, comp)
        res.length_delta_histogram[comp.original_length - run.effective_length] += 1

        ldpreds = comp.spec_schedule.spec.ldpred_ids
        baseline_run = simulate_baseline_block(
            comp.baseline,
            dict(zip(ldpreds, pattern)),
            self.machine,
            cache=self.cache_baseline,
            layout=self.layout,
        )
        res.cycles_baseline += baseline_run.effective_length
        res.baseline_compensation_cycles += baseline_run.compensation_cycles
        res.baseline_branch_cycles += baseline_run.branch_cycles
        res.baseline_icache_cycles += baseline_run.icache_cycles
        if self.collect_cycles:
            # Main speculative schedule plus the three serial overheads;
            # their sum is exactly baseline_run.effective_length.
            self._charge("baseline", self._baseline_attribution(comp))
            self._charge_cause(
                "baseline", "reexec", baseline_run.compensation_cycles
            )
            self._charge_cause(
                "baseline", "branch_penalty", baseline_run.branch_cycles
            )
            self._charge_cause(
                "baseline", "icache_miss", baseline_run.icache_cycles
            )

        squash_run = simulate_squash_block(
            comp.spec_schedule, dict(zip(ldpreds, pattern)), self.machine
        )
        res.cycles_squash += squash_run.effective_length
        if squash_run.squashed:
            res.squashed_instances += 1
        if self.model_icache:
            penalty = self.layout.fetch(self.cache_proposed, f"main:{comp.label}")
            res.proposed_icache_cycles += penalty
            res.cycles_proposed += penalty
            res.cycles_nopred += penalty
            # The squash machine fetches the same block stream (and
            # refetches on restart, which this approximation folds into
            # the same penalty).
            res.cycles_squash += penalty
            self._charge_cause("proposed", "icache_miss", penalty)
            self._charge_cause("nopred", "icache_miss", penalty)

    def _account_class(
        self, outcome: OutcomeClass, cycles: int, comp: BlockCompilation
    ) -> None:
        res = self.result
        res.cycles_by_class[outcome] = res.cycles_by_class.get(outcome, 0) + cycles
        res.instances_by_class[outcome] = res.instances_by_class.get(outcome, 0) + 1
        res.original_cycles_by_class[outcome] = (
            res.original_cycles_by_class.get(outcome, 0) + comp.original_length
        )


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
        trace: a :class:`~repro.trace.ValueTrace` captured from this
            compilation's program.  When given, the simulation observer
            is driven from the recorded value stream instead of a live
            interpretation — results are identical because the observer
            consumes only block entries and traced-op result values.
            The trace must cover every predicted load of the
            compilation; :class:`~repro.trace.TraceMismatch` is raised
            otherwise.
        batch: opt into the batched struct-of-arrays engine
            (:mod:`repro.batchsim`).  Pass a
            :class:`~repro.batchsim.context.BatchContext` to share trace
            decodes and predictor outcome columns across the points of a
            sweep, or ``True`` for the process-wide default context.
            The batched engine runs only when this simulation is on the
            common path (trace-driven, machine-spec predictor, unbounded
            table, no confidence gating, no icache) *and* NumPy is
            available with ``REPRO_NO_BATCH`` unset; anything else falls
            back to the scalar engine.  Results are byte-identical
            either way — both engines reduce the run to
            :class:`SimCounts` and share one accounting fold.
    """
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

    counts_mode = not model_icache
    cycle_stacks: Dict[str, Dict[str, int]] = {
        "nopred": {},
        "proposed": {},
        "baseline": {},
    }
    batched = False
    if batch is not None and counts_mode:
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
            _fold_counts(
                compilation,
                sim_counts,
                result,
                registry,
                collect_cycles,
                cycle_stacks,
                predictor_label,
            )
            batched = True

    observer = None
    if not batched:
        sim_counts = SimCounts() if counts_mode else None
        observer = _SimulationObserver(
            compilation,
            base_predictor,
            result,
            model_icache=model_icache,
            icache_config=icache_config,
            table=table,
            confidence=confidence,
            metrics=registry,
            collect_cycles=collect_cycles,
            counts=sim_counts,
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
            Interpreter(max_operations=max_operations).run(
                compilation.program, observers=[observer]
            )
        observer.finish()
        if table is not None:
            result.table_tag_misses = table.tag_misses
        if counts_mode:
            _fold_counts(
                compilation,
                sim_counts,
                result,
                registry,
                collect_cycles,
                cycle_stacks,
                predictor_label,
            )
        else:
            cycle_stacks = observer.cycle_stacks
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
        if model_icache:
            registry.inc(
                "icache.access", observer.cache_proposed.accesses, label="proposed"
            )
            registry.inc(
                "icache.miss", observer.cache_proposed.misses, label="proposed"
            )
            registry.inc(
                "icache.access", observer.cache_baseline.accesses, label="baseline"
            )
            registry.inc(
                "icache.miss", observer.cache_baseline.misses, label="baseline"
            )
        result.metrics = registry.snapshot()
    return result
