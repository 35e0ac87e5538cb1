"""Block-local optimisation passes: constant folding, copy propagation,
dead-code elimination.

Trimaran runs classical optimisations before scheduling; these passes
fill that role for the front end here.  All three are *block-local* and
intentionally conservative:

* :func:`constant_folding` — evaluates ALU operations whose operands are
  all compile-time constants (tracked from ``mov rX, #imm`` chains) and
  rewrites them as constant moves; a conditional branch whose condition
  folded becomes an unconditional one.
* :func:`copy_propagation` — forwards ``mov a, b`` so later uses of
  ``a`` read ``b`` directly, until either side is redefined.
* :func:`dead_code_elimination` — removes side-effect-free operations
  whose results are never used again (needs whole-function liveness for
  the block boundary).

A rewritten operation keeps the id of the operation it replaces, so a
pass never mints ids; run the passes before profiling so profiles and
schedules see the final code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.liveness import compute_liveness
from repro.ir.opcodes import Opcode, evaluator, is_alu
from repro.ir.operation import Imm, Operand, Operation, Reg

Number = Union[int, float]


def _rebuild(function: Function, blocks: Dict[str, List[Operation]]) -> Function:
    result = Function(function.name, entry_label=function.entry_label)
    for block in function:
        result.add_block(BasicBlock(block.label, blocks[block.label]))
    return result


# ---------------------------------------------------------------------------
# constant folding


def _fold_block(ops: List[Operation]) -> List[Operation]:
    constants: Dict[Reg, Number] = {}
    out: List[Operation] = []

    def value_of(operand: Operand) -> Optional[Number]:
        if isinstance(operand, Imm):
            return operand.value
        return constants.get(operand)

    for op in ops:
        if is_alu(op.opcode):
            values = [value_of(s) for s in op.srcs]
            if all(v is not None for v in values):
                folded = evaluator(op.opcode)(*values)
                constants[op.dest] = folded
                out.append(
                    Operation(
                        opcode=Opcode.MOV, dest=op.dest, srcs=(Imm(folded),), op_id=op.op_id
                    )
                )
                continue
            constants.pop(op.dest, None)
            out.append(op)
            continue
        if op.opcode is Opcode.BRCOND:
            cond = value_of(op.srcs[0])
            if cond is not None:
                target = op.targets[0] if cond != 0 else op.targets[1]
                out.append(Operation(opcode=Opcode.BR, targets=(target,), op_id=op.op_id))
                continue
        for reg in op.defs():
            constants.pop(reg, None)
        out.append(op)
    return out


def constant_folding(function: Function) -> Function:
    """Fold constant ALU chains and constant conditional branches."""
    return _rebuild(
        function, {b.label: _fold_block(list(b.operations)) for b in function}
    )


# ---------------------------------------------------------------------------
# copy propagation


def _propagate_block(ops: List[Operation]) -> List[Operation]:
    copies: Dict[Reg, Reg] = {}
    out: List[Operation] = []

    def resolve(operand: Operand) -> Operand:
        if isinstance(operand, Reg):
            return copies.get(operand, operand)
        return operand

    for op in ops:
        new_srcs = tuple(resolve(s) for s in op.srcs)
        new_op = op
        if new_srcs != op.srcs:
            new_op = Operation(
                opcode=op.opcode,
                dest=op.dest,
                srcs=new_srcs,
                offset=op.offset,
                targets=op.targets,
                op_id=op.op_id,
            )
        # Invalidate copies killed by this definition.
        for reg in new_op.defs():
            copies.pop(reg, None)
            for key in [k for k, v in copies.items() if v == reg]:
                copies.pop(key)
        # Record a fresh register copy.
        if (
            new_op.opcode is Opcode.MOV
            and isinstance(new_op.srcs[0], Reg)
            and new_op.dest != new_op.srcs[0]
        ):
            copies[new_op.dest] = new_op.srcs[0]
        out.append(new_op)
    return out


def copy_propagation(function: Function) -> Function:
    """Forward register copies to their uses within each block."""
    return _rebuild(
        function, {b.label: _propagate_block(list(b.operations)) for b in function}
    )


# ---------------------------------------------------------------------------
# dead code elimination


def dead_code_elimination(function: Function) -> Function:
    """Drop side-effect-free ops whose results are never read.

    A definition is dead when no later operation in the block reads it
    before it is redefined and it is not live out of the block.  Stores,
    branches and halt always survive.
    """
    liveness = compute_liveness(function)
    blocks: Dict[str, List[Operation]] = {}
    for block in function:
        live: set[Reg] = set(liveness.live_out[block.label])
        keep_reversed: List[Operation] = []
        for op in reversed(block.operations):
            defs = set(op.defs())
            needed = (
                op.has_side_effect
                or op.opcode is Opcode.HALT
                or bool(defs & live)
            )
            if needed:
                keep_reversed.append(op)
                live -= defs
                live |= set(op.uses())
        blocks[block.label] = list(reversed(keep_reversed))
    return _rebuild(function, blocks)


# ---------------------------------------------------------------------------
# the pipeline


DEFAULT_PASSES = (constant_folding, copy_propagation, dead_code_elimination)


def optimize_function(function: Function, max_iterations: int = 8) -> Function:
    """Run the pass pipeline to a fixpoint (bounded)."""
    current = function
    for _ in range(max_iterations):
        before = function_shape(current)
        for pass_fn in DEFAULT_PASSES:
            current = pass_fn(current)
        if function_shape(current) == before:
            break
    return current


def optimize_program(program, max_iterations: int = 8):
    """Optimise every function of a program (returns a new program)."""
    from repro.ir.program import Program

    result = Program(program.name, main=program.main_name)
    for function in program:
        result.add_function(optimize_function(function, max_iterations))
    result.initial_memory.update(program.initial_memory)
    result.initial_registers.update(program.initial_registers)
    return result


def function_shape(function: Function) -> tuple:
    """A structural fingerprint of a function, insensitive to operation
    ids — used for fixpoint detection."""
    return tuple(
        (block.label, tuple(str(op).split(": ", 1)[1] for op in block))
        for block in function
    )
