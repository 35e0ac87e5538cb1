"""Capturing a value trace from one architectural run.

The interpreter records the block sequence and the traced values as it
runs (see :mod:`repro.profiling.interpreter`); capture adds the
program's identity and the run's final state.
"""

from __future__ import annotations

from repro.ir.program import Program
from repro.profiling.interpreter import Interpreter
from repro.trace.format import ValueTrace, block_signature, program_digest


def capture_trace(
    program: Program, max_operations: int = 5_000_000
) -> ValueTrace:
    """Interpret ``program`` once and package the run as a trace."""
    result = Interpreter(max_operations=max_operations).run(program)
    function = program.main
    return ValueTrace(
        program_name=program.name,
        program_digest=program_digest(program),
        labels=result.labels,
        block_signatures=tuple(
            block_signature(function.block(label)) for label in result.labels
        ),
        block_seq=result.block_seq,
        values=result.values,
        dynamic_operations=result.dynamic_operations,
        dynamic_blocks=result.dynamic_blocks,
        loads_executed=result.loads_executed,
        stores_executed=result.stores_executed,
        halted=result.halted,
        final_registers=dict(result.registers),
        final_memory=result.memory.snapshot(),
    )
