"""Reference runs for the trace-driven entry points.

``capture_trace`` records inside the interpreter's compiled blocks, and
``profile_program`` and ``simulate_program`` read only the value trace
and prefer the batched engines.  The helpers here produce the same
products the streaming way — observers riding the reference
interpreter's per-op loop or a scalar trace replay — so the suites can
hold the production paths to them.
"""

from __future__ import annotations

from typing import Dict, List
from unittest import mock

from repro.batchsim import engine
from repro.core.program_sim import simulate_program
from repro.profiling.block_profile import BlockFrequencyProfiler
from repro.profiling.profile_run import ProfileData
from repro.profiling.value_profile import LONG_LATENCY_OPCODES, ValueProfiler
from repro.trace.format import (
    TRACED_OPCODES,
    ValueTrace,
    block_signature,
    program_digest,
)
from repro.trace.replay import replay_trace
from tests.profiling.reference_interpreter import run_reference


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


def live(program):
    """A driver running ``program`` on the reference interpreter under
    observers."""
    return lambda observers: run_reference(program, observers=observers)


def replayed(trace, program):
    """A driver replaying ``trace`` against ``program`` under observers."""
    return lambda observers: replay_trace(trace, program, observers=observers)


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


def scalar_only(machine, model_icache=False):
    """Stand-in for :func:`repro.batchsim.engine.unsupported_reason` that
    sends every simulation to the scalar replay engine."""
    return "scalar reference"


def scalar_simulation(compilation, trace, **options):
    """``simulate_program`` on the scalar replay engine."""
    with mock.patch.object(engine, "unsupported_reason", scalar_only):
        return simulate_program(compilation, trace, **options)
