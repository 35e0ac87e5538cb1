"""The reference interpreter: one dispatch per dynamic operation.

This is the original execution loop of :class:`repro.profiling.interpreter.Interpreter`,
kept as the executable specification its specialized fast path is
checked against (``test_fast_path.py``): same results, same errors at
the same dynamic operation.  It keeps the observer hooks the
interpreter no longer has, so tests that watch every executed
operation, and the reference trace recorder
(``tests/trace/reference_runs.py``), ride this loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.ir.opcodes import Opcode, evaluator, is_alu
from repro.ir.operation import Imm, Reg
from repro.ir.program import Program
from repro.profiling.interpreter import (
    ExecutionLimitExceeded,
    ExecutionResult,
    _dispatch_miss_message,
)
from repro.profiling.memory import Memory, Number

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from tests.trace.reference_runs import ExecutionObserver


def run_reference(
    program: Program,
    observers: Optional[List[ExecutionObserver]] = None,
    max_operations: int = 5_000_000,
) -> ExecutionResult:
    """Execute ``program``'s main function to completion, op by op."""
    function = program.main
    memory = Memory(program.initial_memory)
    registers: Dict[str, Number] = dict(program.initial_registers)
    observers = observers or []

    def read(operand: Union[Reg, Imm]) -> Number:
        if isinstance(operand, Imm):
            return operand.value
        return registers.get(operand.name, 0)

    executed = 0
    blocks = 0
    label: Optional[str] = function.entry_label
    halted = False

    while label is not None:
        block = function.block(label)
        blocks += 1
        for observer in observers:
            observer.block_entered(block)

        next_label: Optional[str] = None
        for op in block.operations:
            executed += 1
            if executed > max_operations:
                raise ExecutionLimitExceeded(
                    f"{program.name}: exceeded {max_operations} operations"
                )
            opcode = op.opcode
            inputs = tuple(read(src) for src in op.srcs)
            result: Optional[Number] = None

            if is_alu(opcode):
                result = evaluator(opcode)(*inputs)
                registers[op.dest.name] = result
            elif opcode is Opcode.LOAD:
                result = memory.load(inputs[0] + op.offset)
                registers[op.dest.name] = result
            elif opcode is Opcode.STORE:
                memory.store(inputs[1] + op.offset, inputs[0])
            elif opcode is Opcode.BR:
                next_label = op.targets[0]
            elif opcode is Opcode.BRCOND:
                next_label = op.targets[0] if inputs[0] != 0 else op.targets[1]
            elif opcode is Opcode.HALT:
                halted = True
            else:
                raise ValueError(_dispatch_miss_message(opcode))

            for observer in observers:
                observer.operation_executed(op, inputs, result)

            if halted:
                break

        if halted:
            break
        if next_label is None:
            raise RuntimeError(
                f"block {block.label!r} fell through without a branch"
            )
        label = next_label

    return ExecutionResult(
        program_name=program.name,
        dynamic_operations=executed,
        dynamic_blocks=blocks,
        registers=registers,
        memory=memory,
        halted=halted,
    )
