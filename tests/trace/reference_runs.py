"""Reference runs for the trace-driven entry points.

``capture_trace`` records inside the interpreter's compiled blocks, and
``profile_program`` and ``simulate_program`` read the value trace
column-wise.  The helpers here produce the same products the streaming
way — observers riding the reference interpreter's per-op loop or a
scalar trace replay, one event at a time, with a stateful value
prediction table and a stateful instruction cache — so the suites can
hold the production paths to them.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Protocol, Sequence, Tuple
from unittest import mock

from repro.batchsim import engine
from repro.batchsim.arrays import block_plan
from repro.core.icache import CodeLayout, ICacheConfig
from repro.core.program_sim import SimCounts, simulate_program
from repro.ir.opcodes import Opcode
from repro.predict.base import Value, _values_equal
from repro.profiling.block_profile import BlockProfile
from repro.profiling.interpreter import ExecutionLimitExceeded, ExecutionResult
from repro.profiling.memory import Memory, Number
from repro.profiling.profile_run import ProfileData
from repro.profiling.value_profile import (
    LONG_LATENCY_OPCODES,
    LoadValueStats,
    ValueProfile,
)
from repro.trace.format import (
    TRACED_OPCODES,
    TraceMismatch,
    ValueTrace,
    block_signature,
    program_digest,
)
from tests.predict.reference_predictors import (
    FCMPredictor,
    Key,
    StridePredictor,
    ValuePredictor,
    build_predictor,
)
from tests.profiling.reference_interpreter import run_reference


class ExecutionObserver(Protocol):
    """Hook interface of the reference interpreter and of trace replay."""

    def block_entered(self, block) -> None:
        """Called when control enters a basic block."""

    def operation_executed(
        self, op, inputs: tuple, result: Optional[Number]
    ) -> None:
        """Called after each dynamic operation with its actual values."""


# -- capture -------------------------------------------------------------------


class TraceCaptureObserver:
    """The reference recorder: an execution observer keeping the block
    sequence (as ids in first-entry order) and the traced values."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.block_seq: List[int] = []
        self.values: list = []

    def block_entered(self, block) -> None:
        label = block.label
        block_id = self._label_ids.get(label)
        if block_id is None:
            block_id = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        self.block_seq.append(block_id)

    def operation_executed(self, op, inputs, result) -> None:
        if op.opcode in TRACED_OPCODES:
            self.values.append(result)


def reference_capture(program, max_operations: int = 5_000_000) -> ValueTrace:
    """The trace :func:`repro.trace.capture.capture_trace` must return:
    the reference recorder on the reference interpreter."""
    recorder = TraceCaptureObserver()
    result = run_reference(
        program, observers=[recorder], max_operations=max_operations
    )
    function = program.main
    return ValueTrace(
        program_name=program.name,
        program_digest=program_digest(program),
        labels=tuple(recorder.labels),
        block_signatures=tuple(
            block_signature(function.block(label)) for label in recorder.labels
        ),
        block_seq=recorder.block_seq,
        values=recorder.values,
        dynamic_operations=result.dynamic_operations,
        dynamic_blocks=result.dynamic_blocks,
        loads_executed=result.loads_executed,
        stores_executed=result.stores_executed,
        halted=result.halted,
        final_registers=dict(result.registers),
        final_memory=result.memory.snapshot(),
    )


# -- replay --------------------------------------------------------------------


def execution_result(trace: ValueTrace) -> ExecutionResult:
    """The captured run's :class:`ExecutionResult`, rebuilt from the trace.

    The memory's access counters are restored from the capture, so the
    result reports the captured ``loads_executed``/``stores_executed``.
    """
    memory = Memory(trace.final_memory)
    memory.reads = trace.loads_executed
    memory.writes = trace.stores_executed
    return ExecutionResult(
        program_name=trace.program_name,
        dynamic_operations=trace.dynamic_operations,
        dynamic_blocks=trace.dynamic_blocks,
        registers=dict(trace.final_registers),
        memory=memory,
        halted=trace.halted,
    )


def replay_trace(
    trace: ValueTrace,
    program,
    observers: Sequence[ExecutionObserver] = (),
    max_operations: Optional[int] = None,
) -> ExecutionResult:
    """Drive ``observers`` from a captured trace, one event at a time, and
    return the captured run.

    Observers see each block entry and each *traced* op with its recorded
    result (``inputs=()``: operands are not recorded).  A trace longer
    than ``max_operations`` raises :class:`ExecutionLimitExceeded`, as
    interpreting the program would.
    """
    if max_operations is not None and trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    plan = block_plan(trace, program)
    values = trace.values
    cursor = 0
    for block_id in trace.block_seq:
        block, traced_ops = plan[block_id]
        for observer in observers:
            observer.block_entered(block)
        for op in traced_ops:
            if cursor >= len(values):
                raise TraceMismatch(
                    f"trace for {trace.program_name!r} ran out of values at "
                    f"op {op.op_id} of block {block.label!r}"
                )
            for observer in observers:
                observer.operation_executed(op, (), values[cursor])
            cursor += 1
    if cursor != len(values):
        raise TraceMismatch(
            f"trace for {trace.program_name!r} has {len(values)} values but "
            f"the block sequence consumes {cursor}"
        )
    return execution_result(trace)


def live(program):
    """A driver running ``program`` on the reference interpreter under
    observers."""
    return lambda observers: run_reference(program, observers=observers)


def replayed(trace, program):
    """A driver replaying ``trace`` against ``program`` under observers."""
    return lambda observers: replay_trace(trace, program, observers=observers)


# -- profiling -----------------------------------------------------------------


class BlockFrequencyProfiler:
    """Execution observer counting dynamic entries per block label."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def block_entered(self, block) -> None:
        self.counts[block.label] = self.counts.get(block.label, 0) + 1

    def operation_executed(self, op, inputs, result) -> None:
        pass

    def profile(self) -> BlockProfile:
        return BlockProfile(dict(self.counts))


class ValueProfiler:
    """Execution observer training the profile predictors (two-delta
    stride and order-2 FCM) on loads and ``extra_opcodes``."""

    def __init__(self, extra_opcodes: Collection[Opcode] = ()):
        self._stride = StridePredictor()
        self._fcm = FCMPredictor(order=2)
        self._stats: Dict[int, LoadValueStats] = {}
        self._extra = frozenset(extra_opcodes)

    def block_entered(self, block) -> None:
        pass

    def operation_executed(self, op, inputs, result) -> None:
        if not (op.is_load or op.opcode in self._extra):
            return
        stats = self._stats.setdefault(op.op_id, LoadValueStats())
        stats.executions += 1
        stride_prediction = self._stride.predict(op.op_id)
        fcm_prediction = self._fcm.predict(op.op_id)
        if stride_prediction is not None and _values_equal(stride_prediction, result):
            stats.stride_correct += 1
        if fcm_prediction is not None and _values_equal(fcm_prediction, result):
            stats.fcm_correct += 1
        self._stride.update(op.op_id, result)
        self._fcm.update(op.op_id, result)

    def profile(self) -> ValueProfile:
        return ValueProfile(dict(self._stats))


def observed_profile(program, drive, profile_alu=False):
    """The streaming profilers' :class:`ProfileData` over one run, where
    ``drive(observers)`` runs the program (see :func:`live`,
    :func:`replayed`)."""
    blocks = BlockFrequencyProfiler()
    values = ValueProfiler(
        extra_opcodes=LONG_LATENCY_OPCODES if profile_alu else ()
    )
    drive([blocks, values])
    return ProfileData(program.name, blocks.profile(), values.profile())


# -- simulation ----------------------------------------------------------------


class ValuePredictionTable:
    """The paper's Figure 5 Value Prediction Table, one lookup at a time.

    ``capacity=None`` models an unbounded table (every static operation
    keeps its own entry).  With a finite capacity the table is
    direct-mapped on ``hash(key) % capacity``: the underlying predictor
    still trains on every key, but predictions are only served for the
    slot's current occupant (tag mismatch otherwise).
    """

    def __init__(self, predictor: ValuePredictor, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.predictor = predictor
        self.capacity = capacity
        self._occupant: Dict[int, Key] = {}
        self.lookups = 0
        self.tag_misses = 0

    def _slot(self, key: Key) -> Optional[int]:
        if self.capacity is None:
            return None
        return hash(key) % self.capacity

    def lookup(self, key: Key) -> Optional[Value]:
        """Predicted value for ``key`` or ``None`` (no entry / tag miss)."""
        self.lookups += 1
        slot = self._slot(key)
        if slot is not None:
            occupant = self._occupant.get(slot)
            if occupant != key:
                if occupant is not None:
                    self.tag_misses += 1  # conflict: another key owns the slot
                return None
        return self.predictor.predict(key)

    def train(self, key: Key, actual: Value) -> None:
        """Update the table with the verified outcome of ``key``."""
        slot = self._slot(key)
        if slot is not None:
            self._occupant[slot] = key
        self.predictor.update(key, actual)

    def observe(self, key: Key, actual: Value) -> Optional[Value]:
        """Lookup + train in one step."""
        prediction = self.lookup(key)
        self.train(key, actual)
        return prediction

    def reset(self) -> None:
        self.predictor.reset()
        self._occupant = {}
        self.lookups = 0
        self.tag_misses = 0


class InstructionCache:
    """Direct-mapped instruction cache over a flat line-address space,
    one fetch at a time."""

    def __init__(self, config: Optional[ICacheConfig] = None):
        self.config = config or ICacheConfig()
        self._tags: Dict[int, int] = {}
        self.accesses = 0
        self.misses = 0

    def access_range(self, first_line: int, line_count: int) -> int:
        """Fetch ``line_count`` lines from ``first_line``; returns the
        miss penalty in cycles."""
        if line_count < 1:
            raise ValueError("must access at least one line")
        penalty = 0
        for line in range(first_line, first_line + line_count):
            self.accesses += 1
            index = line % self.config.lines
            if self._tags.get(index) != line:
                self.misses += 1
                self._tags[index] = line
                penalty += self.config.miss_penalty
        return penalty

    def fetch(self, layout: CodeLayout, block_id: str) -> int:
        """Fetch a placed block; returns its miss penalty in cycles."""
        return self.access_range(*layout.range_of(block_id))

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self._tags = {}
        self.accesses = 0
        self.misses = 0


class FetchWalk:
    """Instruction-cache fetches of one run, walked instance by instance.

    Every instance fetches its main block through both caches; a
    speculated instance on the baseline machine then fetches, in LdPred
    order, the compensation block of each mispredicted load that has
    operations.
    """

    def __init__(self, compilation):
        config = ICacheConfig()
        self.layout = CodeLayout(config)
        self.proposed = InstructionCache(config)
        self.baseline = InstructionCache(config)
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

    def instance(self, comp, pattern: Optional[Tuple[bool, ...]]) -> None:
        """Fetch one instance; ``pattern`` is ``None`` unless it ran the
        speculative version."""
        main = f"main:{comp.label}"
        self.proposed.fetch(self.layout, main)
        self.baseline.fetch(self.layout, main)
        if pattern is None:
            return
        compensation = comp.baseline.compensation
        for ldpred_id, correct in zip(comp.spec_schedule.spec.ldpred_ids, pattern):
            block = compensation[ldpred_id]
            if not correct and block.op_count:
                self.baseline.fetch(self.layout, block.code_id)

    def counts(self) -> Dict[str, Tuple[int, int]]:
        return {
            "proposed": (self.proposed.accesses, self.proposed.misses),
            "baseline": (self.baseline.accesses, self.baseline.misses),
        }


class SimulationObserver:
    """Execution observer reducing a run to its :class:`SimCounts`.

    It drives the machine's hardware value predictor (behind a finite
    :class:`ValuePredictionTable` when ``predictor.table_entries`` is
    set) over the predicted loads and records, per dynamic block
    instance, which version ran and under which correctness pattern.
    With a :class:`FetchWalk`, each instance is also fetched.
    """

    def __init__(self, compilation, fetch: Optional[FetchWalk] = None):
        spec = compilation.machine.predictor
        self.compilation = compilation
        self.predictor = build_predictor(spec)
        self.table = (
            ValuePredictionTable(self.predictor, capacity=spec.table_entries)
            if spec.table_entries is not None
            else None
        )
        self.counts = SimCounts()
        self.fetch = fetch
        self._current = None
        self._predicted_ids: frozenset = frozenset()
        self._outcomes: Dict[int, bool] = {}

    def block_entered(self, block) -> None:
        self._finish_instance()
        self._current = self.compilation.blocks.get(block.label)
        if self._current is not None and self._current.speculated:
            self._predicted_ids = frozenset(self._current.predicted_load_ids)
        else:
            self._predicted_ids = frozenset()
        self._outcomes = {}

    def operation_executed(self, op, inputs, result) -> None:
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

    def finish(self) -> SimCounts:
        self._finish_instance()
        self._current = None
        if self.table is not None:
            self.counts.table_tag_misses = self.table.tag_misses
        if self.fetch is not None:
            self.counts.icache = self.fetch.counts()
        return self.counts

    def _finish_instance(self) -> None:
        comp = self._current
        if comp is None:
            return
        c = self.counts
        pattern = None
        if not comp.speculated:
            c.nonspec[comp.label] = c.nonspec.get(comp.label, 0) + 1
        else:
            pattern = tuple(
                self._outcomes.get(load_id, False)
                for load_id in comp.predicted_load_ids
            )
            per = c.patterns.setdefault(comp.label, {})
            per[pattern] = per.get(pattern, 0) + 1
        if self.fetch is not None:
            self.fetch.instance(comp, pattern)


def reference_counts(
    compilation, trace, context, max_operations, model_icache=False
) -> SimCounts:
    """Drop-in for :func:`repro.batchsim.engine.batch_counts`: the counts
    of a scalar replay through :class:`SimulationObserver` (``context``
    is unused)."""
    fetch = FetchWalk(compilation) if model_icache else None
    observer = SimulationObserver(compilation, fetch=fetch)
    replay_trace(
        trace, compilation.program, observers=[observer], max_operations=max_operations
    )
    return observer.finish()


def scalar_simulation(compilation, trace, **options):
    """``simulate_program`` with its counts from the scalar reference."""
    with mock.patch.object(engine, "batch_counts", reference_counts):
        return simulate_program(compilation, trace, **options)
