"""Loop unrolling with register renaming.

Unrolls a single-block counted loop ``factor`` times, renaming each
copy's definitions so the copies expose instruction-level parallelism to
the scheduler instead of serialising on register reuse.  Loop-carried
values flow naturally: every definition gets a fresh name in copies
1..factor-1 and uses are resolved through a running rename map; the last
copy writes the *original* register names so the loop back-edge and the
exit see the expected state.

The intermediate copies' exit tests are removed (their compare feeds
only the branch), which is only sound when the trip count is divisible
by the unroll factor — the classic restriction.  :func:`unroll_loop`
cannot check that statically, so callers (and the region experiments)
validate by architectural equivalence: run both versions and compare
final state.

The unrolled block's operations are numbered from one past the input
function's highest id, so the result's ids depend only on its input.

This transform exists to quantify the paper's closing expectation that
"for larger regions such as hyperblocks and superblocks, we expect to
see a further improvement" from value prediction.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operand, Operation, Reg


class UnrollError(ValueError):
    """The block is not an unrollable self-loop."""


def _rename_operand(operand: Operand, mapping: Dict[Reg, Reg]) -> Operand:
    if isinstance(operand, Reg):
        return mapping.get(operand, operand)
    return operand


def _copy_op(
    op: Operation,
    mapping: Dict[Reg, Reg],
    fresh_suffix: Optional[str],
    op_id: int,
) -> Operation:
    """Copy ``op`` as ``op_id`` with operands renamed through ``mapping``; if
    ``fresh_suffix`` is given, the destination gets a fresh name and the
    mapping is updated, otherwise the destination reverts to the
    original architectural name."""
    srcs = tuple(_rename_operand(s, mapping) for s in op.srcs)
    dest = op.dest
    if dest is not None:
        if fresh_suffix is not None:
            fresh = Reg(f"{dest.name}{fresh_suffix}")
            mapping[dest] = fresh
            dest = fresh
        else:
            mapping[dest] = dest
    return Operation(
        opcode=op.opcode,
        dest=dest,
        srcs=srcs,
        offset=op.offset,
        targets=op.targets,
        op_id=op_id,
    )


def _condition_feeds_only_branch(block: BasicBlock) -> bool:
    term = block.terminator
    if term is None or term.opcode is not Opcode.BRCOND:
        return False
    cond = term.srcs[0]
    uses = 0
    for op in block.body:
        uses += sum(1 for r in op.uses() if r == cond)
    return uses == 0


def check_unrollable(function: Function, label: str, factor: int) -> Operation:
    """Check that loop ``label`` can be unrolled ``factor``x, copying
    nothing; return the op that computes the loop condition.

    Requirements (raising :class:`UnrollError` otherwise):

    * ``factor`` >= 2;
    * the block's terminator is a conditional branch with the block
      itself as one target (a self loop);
    * the loop condition register is produced in the block and feeds
      only the branch (so intermediate exit tests can be elided).
    """
    if factor < 2:
        raise UnrollError("unroll factor must be >= 2")
    block = function.block(label)
    term = block.terminator
    if term is None or term.opcode is not Opcode.BRCOND or label not in term.targets:
        raise UnrollError(f"block {label!r} is not a conditional self-loop")
    cond_reg = term.srcs[0]
    cond_def = None
    for op in block.body:
        if op.dest == cond_reg:
            cond_def = op
    if cond_def is None or not _condition_feeds_only_branch(block):
        raise UnrollError(
            f"loop condition of {label!r} must be computed in the block "
            "and feed only the branch"
        )
    return cond_def


def unroll_loop(function: Function, label: str, factor: int) -> Function:
    """Return a new function with loop ``label`` unrolled ``factor``x.

    Raises :class:`UnrollError` where :func:`check_unrollable` does.
    """
    cond_def = check_unrollable(function, label, factor)
    block = function.block(label)
    term = block.terminator
    cond_reg = term.srcs[0]

    body = [op for op in block.body]
    new_ops: List[Operation] = []
    mapping: Dict[Reg, Reg] = {}
    ids = itertools.count(function.max_op_id() + 1)
    for copy_index in range(factor):
        last_copy = copy_index == factor - 1
        suffix = None if last_copy else f"__u{copy_index}"
        for op in body:
            if not last_copy and op.op_id == cond_def.op_id:
                continue  # intermediate exit test elided
            new_ops.append(_copy_op(op, mapping, suffix, next(ids)))
    # The back edge: same branch shape, condition renamed through the map.
    new_ops.append(
        Operation(
            opcode=Opcode.BRCOND,
            srcs=(_rename_operand(cond_reg, mapping),),
            targets=term.targets,
            op_id=next(ids),
        )
    )

    result = Function(function.name, entry_label=function.entry_label)
    for blk in function:
        if blk.label == label:
            result.add_block(BasicBlock(label, new_ops))
        else:
            result.add_block(BasicBlock(blk.label, list(blk.operations)))
    return result


def unroll_program_loop(program, label: str, factor: int):
    """Convenience: clone ``program`` with one loop of main unrolled."""
    from repro.ir.program import Program

    clone = Program(f"{program.name}-u{factor}", main=program.main_name)
    for function in program:
        if function.name == program.main_name:
            clone.add_function(unroll_loop(function, label, factor))
        else:
            clone.add_function(function)
    clone.initial_memory.update(program.initial_memory)
    clone.initial_registers.update(program.initial_registers)
    return clone
