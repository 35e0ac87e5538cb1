"""Architectural (functional) execution of IR programs.

The interpreter executes a program the way the paper's HP PA-RISC host
executed the benchmarks during profiling: sequentially, with exact
values.  Every run also records what a value trace holds
(:func:`repro.trace.capture.capture_trace` packages it): the dynamic
block sequence, as block ids in first-entry order, and the result of
every op whose opcode is in :data:`~repro.trace.format.TRACED_OPCODES`,
in execution order.

Each basic block is precompiled, once per static block per run, into a
dispatch list of per-op closures: the opcode handler, operand readers,
destination slot and, for traced ops, the append to the run's value
list are resolved at compile time instead of being re-dispatched for
every dynamic instance.  The test suite keeps the original per-op
dispatch loop, with its observer hooks, as the executable specification
this path is checked against
(``tests/profiling/reference_interpreter.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode, evaluator, is_alu
from repro.ir.operation import Imm, Operation, Reg
from repro.ir.program import Program
from repro.profiling.memory import Memory, Number
from repro.trace.format import TRACED_OPCODES


class ExecutionLimitExceeded(RuntimeError):
    """The program ran past the configured dynamic-operation budget."""


@dataclass
class ExecutionResult:
    """Outcome of one architectural run.

    ``labels``, ``block_seq`` and ``values`` are the interpreter's
    recording in the :class:`~repro.trace.format.ValueTrace` layout.
    """

    program_name: str
    dynamic_operations: int
    dynamic_blocks: int
    registers: Dict[str, Number]
    memory: Memory
    halted: bool
    labels: Tuple[str, ...] = ()
    block_seq: List[int] = field(default_factory=list)
    values: List[Number] = field(default_factory=list)

    @property
    def loads_executed(self) -> int:
        return self.memory.reads

    @property
    def stores_executed(self) -> int:
        return self.memory.writes


def _dispatch_miss_message(opcode: Opcode) -> str:
    """The error for opcodes without an interpretation — one string, so
    the interpreter and its reference loop can never drift apart."""
    return (
        f"interpreter cannot execute {opcode.value}; the "
        "prediction forms exist only in scheduled code"
    )


# -- block specialization ----------------------------------------------------


def _make_reader(src: Union[Reg, Imm]):
    """Operand reader resolved once per static operand."""
    if isinstance(src, Imm):
        value = src.value
        return lambda regs: value
    return lambda regs, _name=src.name: regs.get(_name, 0)


def _compile_plain_op(op: Operation):
    """Compile one straight-line op into a ``step(regs, mem)`` closure
    performing its architectural effect with no allocation."""
    opcode = op.opcode
    srcs = op.srcs

    if is_alu(opcode):
        fn = evaluator(opcode)
        dest = op.dest.name
        if len(srcs) == 2:
            a, b = srcs
            if isinstance(a, Reg) and isinstance(b, Reg):
                an, bn = a.name, b.name

                def step(regs, mem, fn=fn, an=an, bn=bn, dest=dest):
                    regs[dest] = fn(regs.get(an, 0), regs.get(bn, 0))

                return step
            if isinstance(a, Reg) and isinstance(b, Imm):
                an, bv = a.name, b.value

                def step(regs, mem, fn=fn, an=an, bv=bv, dest=dest):
                    regs[dest] = fn(regs.get(an, 0), bv)

                return step
            if isinstance(a, Imm) and isinstance(b, Reg):
                av, bn = a.value, b.name

                def step(regs, mem, fn=fn, av=av, bn=bn, dest=dest):
                    regs[dest] = fn(av, regs.get(bn, 0))

                return step
        if len(srcs) == 1 and isinstance(srcs[0], Reg):
            an = srcs[0].name

            def step(regs, mem, fn=fn, an=an, dest=dest):
                regs[dest] = fn(regs.get(an, 0))

            return step
        readers = tuple(_make_reader(s) for s in srcs)

        def step(regs, mem, fn=fn, readers=readers, dest=dest):
            regs[dest] = fn(*[read(regs) for read in readers])

        return step

    if opcode is Opcode.LOAD:
        read_base = _make_reader(srcs[0])

        def step(regs, mem, read_base=read_base, offset=op.offset,
                 dest=op.dest.name):
            regs[dest] = mem.load(read_base(regs) + offset)

        return step

    if opcode is Opcode.STORE:
        offset = op.offset
        value_src, base_src = srcs
        if isinstance(value_src, Reg) and isinstance(base_src, Reg):
            vn, bn = value_src.name, base_src.name

            def step(regs, mem, vn=vn, bn=bn, offset=offset):
                mem.store(regs.get(bn, 0) + offset, regs.get(vn, 0))

            return step
        read_value = _make_reader(value_src)
        read_base = _make_reader(base_src)

        def step(regs, mem, rv=read_value, rb=read_base, offset=offset):
            mem.store(rb(regs) + offset, rv(regs))

        return step

    # Prediction forms (and any future opcode without an architectural
    # interpretation): the reference loop reads the operands, then raises.
    # Compiling a raiser keeps the dispatch miss at the same dynamic
    # point with the same message.
    readers = tuple(_make_reader(s) for s in srcs)
    message = _dispatch_miss_message(opcode)

    def step(regs, mem, readers=readers, message=message):
        for read in readers:
            read(regs)
        raise ValueError(message)

    return step


def _compile_traced_op(op: Operation, record):
    """Like :func:`_compile_plain_op` for an op in ``TRACED_OPCODES``,
    whose step also passes its result to ``record``.

    Register-based loads and two-operand arithmetic, nearly every traced
    op the suite executes, record inline; any other shape wraps its
    plain step and records the destination it wrote.
    """
    srcs = op.srcs
    dest = op.dest.name
    if op.opcode is Opcode.LOAD and isinstance(srcs[0], Reg):

        def step(regs, mem, bn=srcs[0].name, offset=op.offset, dest=dest,
                 record=record):
            regs[dest] = result = mem.load(regs.get(bn, 0) + offset)
            record(result)

        return step
    if is_alu(op.opcode) and len(srcs) == 2 and isinstance(srcs[0], Reg):
        fn = evaluator(op.opcode)
        a, b = srcs
        if isinstance(b, Reg):

            def step(regs, mem, fn=fn, an=a.name, bn=b.name, dest=dest,
                     record=record):
                regs[dest] = result = fn(regs.get(an, 0), regs.get(bn, 0))
                record(result)

            return step
        if isinstance(b, Imm):

            def step(regs, mem, fn=fn, an=a.name, bv=b.value, dest=dest,
                     record=record):
                regs[dest] = result = fn(regs.get(an, 0), bv)
                record(result)

            return step

    def step(regs, mem, plain=_compile_plain_op(op), dest=dest,
             record=record):
        plain(regs, mem)
        record(regs[dest])

    return step


class _CompiledBlock:
    """One basic block lowered to a dispatch list of per-op closures."""

    __slots__ = ("block_id", "n_ops", "steps", "term_kind", "term_cond",
                 "term_targets")

    def __init__(self, block: BasicBlock, block_id: int, record):
        ops = block.operations
        term_op = ops[-1] if ops and ops[-1].is_branch else None
        body = ops[:-1] if term_op is not None else list(ops)
        self.block_id = block_id
        self.n_ops = len(ops)
        self.steps = [
            _compile_traced_op(op, record)
            if op.opcode in TRACED_OPCODES
            else _compile_plain_op(op)
            for op in body
        ]
        self.term_cond = None
        self.term_targets: Tuple[str, ...] = ()
        if term_op is None:
            self.term_kind = None
        elif term_op.opcode is Opcode.BR:
            self.term_kind = "br"
            self.term_targets = term_op.targets
        elif term_op.opcode is Opcode.BRCOND:
            self.term_kind = "brcond"
            self.term_cond = _make_reader(term_op.srcs[0])
            self.term_targets = term_op.targets
        else:  # HALT is the only other branch opcode.
            self.term_kind = "halt"

    def exec_terminator(self, regs):
        """Run the terminator; returns ``(next_label, halted)``."""
        kind = self.term_kind
        if kind == "br":
            return self.term_targets[0], False
        if kind == "brcond":
            if self.term_cond(regs) != 0:
                return self.term_targets[0], False
            return self.term_targets[1], False
        return None, True


class Interpreter:
    """Executes a program's main function to completion."""

    def __init__(self, max_operations: int = 5_000_000):
        self.max_operations = max_operations

    def run(self, program: Program) -> ExecutionResult:
        function = program.main
        memory = Memory(program.initial_memory)
        registers: Dict[str, Number] = dict(program.initial_registers)
        max_operations = self.max_operations
        compiled: Dict[str, _CompiledBlock] = {}
        block_seq: List[int] = []
        values: List[Number] = []
        enter = block_seq.append
        record = values.append

        executed = 0
        label: Optional[str] = function.entry_label
        halted = False

        while label is not None:
            cb = compiled.get(label)
            if cb is None:
                # Ids count blocks in first-entry order: the dict's size
                # before this block joins it.
                cb = compiled[label] = _CompiledBlock(
                    function.block(label), len(compiled), record
                )
            enter(cb.block_id)

            next_label: Optional[str] = None
            if executed + cb.n_ops > max_operations:
                # The budget may run out inside this block: step op by
                # op so the limit error raises at exactly the operation
                # that exceeds it, after its predecessors have run.
                for step in cb.steps:
                    executed += 1
                    if executed > max_operations:
                        raise ExecutionLimitExceeded(
                            f"{program.name}: exceeded "
                            f"{max_operations} operations"
                        )
                    step(registers, memory)
                if cb.term_kind is not None:
                    executed += 1
                    if executed > max_operations:
                        raise ExecutionLimitExceeded(
                            f"{program.name}: exceeded "
                            f"{max_operations} operations"
                        )
                    next_label, halted = cb.exec_terminator(registers)
            else:
                executed += cb.n_ops
                for step in cb.steps:
                    step(registers, memory)
                if cb.term_kind is not None:
                    next_label, halted = cb.exec_terminator(registers)

            if halted:
                break
            if next_label is None:
                raise RuntimeError(
                    f"block {label!r} fell through without a branch"
                )
            label = next_label

        return ExecutionResult(
            program_name=program.name,
            dynamic_operations=executed,
            dynamic_blocks=len(block_seq),
            registers=registers,
            memory=memory,
            halted=halted,
            labels=tuple(compiled),
            block_seq=block_seq,
            values=values,
        )


def run_program(
    program: Program, max_operations: int = 5_000_000
) -> ExecutionResult:
    """Convenience wrapper around :class:`Interpreter`."""
    return Interpreter(max_operations=max_operations).run(program)
