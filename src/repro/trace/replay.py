"""Replaying a captured value trace through execution observers.

Replay walks the recorded dynamic block sequence and, for each block
instance, notifies observers of the block entry and of each *traced*
static operation with its recorded result value.  That is exactly the
subset of execution events the block-frequency profiler, the value
profiler and the dual-engine simulation observer consume — so replay
produces identical profiles and simulation results at a fraction of the
cost of re-interpreting every dynamic operation.

Observers receive ``inputs=()``: operand values are not recorded in the
trace, and no shipped observer reads them (they key on ``op.op_id`` and
``result``).  Replay is the only place observers attach: the interpreter
records the trace itself and takes none.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ir.program import Program
from repro.profiling.interpreter import (
    ExecutionLimitExceeded,
    ExecutionObserver,
    ExecutionResult,
)
from repro.trace.format import (
    TRACED_OPCODES,
    TraceMismatch,
    ValueTrace,
    block_signature,
    program_digest,
)


def _replay_plan(trace: ValueTrace, program: Program):
    """Resolve trace block ids to this program's blocks and traced ops.

    Raises :class:`TraceMismatch` when the trace does not belong to a
    structurally identical program — wrong digest, unknown label, or a
    block whose opcode sequence changed since capture.
    """
    digest = program_digest(program)
    if digest != trace.program_digest:
        raise TraceMismatch(
            f"trace was captured from a different program: digest "
            f"{trace.program_digest[:12]} != {digest[:12]} "
            f"({trace.program_name!r} vs {program.name!r})"
        )
    function = program.main
    plan = []
    for label, signature in zip(trace.labels, trace.block_signatures):
        try:
            block = function.block(label)
        except KeyError as exc:
            raise TraceMismatch(
                f"trace references block {label!r} missing from "
                f"program {program.name!r}"
            ) from exc
        if block_signature(block) != signature:
            raise TraceMismatch(
                f"block {label!r} of {program.name!r} changed since the "
                "trace was captured"
            )
        traced_ops = tuple(
            op for op in block.operations if op.opcode in TRACED_OPCODES
        )
        plan.append((block, traced_ops))
    return plan


def replay_trace(
    trace: ValueTrace,
    program: Program,
    observers: Optional[Sequence[ExecutionObserver]] = None,
    max_operations: Optional[int] = None,
) -> ExecutionResult:
    """Drive ``observers`` from a captured trace; returns the captured run.

    ``max_operations`` mirrors the interpreter's dynamic-op budget: a
    trace longer than the budget raises :class:`ExecutionLimitExceeded`
    just as live interpretation of the same program would.
    """
    if max_operations is not None and trace.dynamic_operations > max_operations:
        raise ExecutionLimitExceeded(
            f"{trace.program_name}: exceeded {max_operations} operations"
        )
    plan = _replay_plan(trace, program)
    values = trace.values
    n_values = len(values)
    cursor = 0

    if observers:
        observer_list: List[ExecutionObserver] = list(observers)
        if len(observer_list) == 1:
            # The common case (one profiler pair is fused upstream, the
            # simulation observer always rides alone): bind the two
            # notification methods once.
            only = observer_list[0]
            block_entered = only.block_entered
            operation_executed = only.operation_executed
            for block_id in trace.block_seq:
                block, traced_ops = plan[block_id]
                block_entered(block)
                for op in traced_ops:
                    if cursor >= n_values:
                        raise TraceMismatch(
                            f"trace for {trace.program_name!r} ran out of "
                            f"values at op {op.op_id} of block "
                            f"{block.label!r}"
                        )
                    operation_executed(op, (), values[cursor])
                    cursor += 1
        else:
            for block_id in trace.block_seq:
                block, traced_ops = plan[block_id]
                for observer in observer_list:
                    observer.block_entered(block)
                for op in traced_ops:
                    if cursor >= n_values:
                        raise TraceMismatch(
                            f"trace for {trace.program_name!r} ran out of "
                            f"values at op {op.op_id} of block "
                            f"{block.label!r}"
                        )
                    value = values[cursor]
                    cursor += 1
                    for observer in observer_list:
                        observer.operation_executed(op, (), value)
    else:
        # No observers: nothing consumes events, but still validate the
        # stream length below by accounting every instance's values.
        for block_id in trace.block_seq:
            cursor += len(plan[block_id][1])

    if cursor != n_values:
        raise TraceMismatch(
            f"trace for {trace.program_name!r} has {n_values} values but "
            f"the block sequence consumes {cursor}"
        )
    return trace.to_execution_result()
