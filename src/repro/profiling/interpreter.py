"""Architectural (functional) execution of IR programs.

The interpreter executes a program the way the paper's HP PA-RISC host
executed the benchmarks during profiling: sequentially, with exact
values.  Observers hook block entries and executed operations, which is
how block-frequency profiling, value profiling and the dynamic
dual-engine simulation all attach to execution without duplicating the
semantics.

Each basic block is precompiled, once per static block per run, into a
dispatch list of per-op closures: the opcode handler, operand readers
and destination slot are resolved at compile time instead of being
re-dispatched for every dynamic instance.  Observer-less runs
additionally skip building the per-op ``inputs`` tuples entirely.  The
test suite keeps the original per-op dispatch loop as the executable
specification this path is checked against
(``tests/profiling/reference_interpreter.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple, Union

from repro.ir.block import BasicBlock
from repro.ir.opcodes import Opcode, evaluator, is_alu
from repro.ir.operation import Imm, Operation, Reg
from repro.ir.program import Program
from repro.profiling.memory import Memory, Number

class ExecutionObserver(Protocol):
    """Hook interface for profilers and simulators."""

    def block_entered(self, block: BasicBlock) -> None:
        """Called when control enters a basic block."""

    def operation_executed(
        self, op: Operation, inputs: tuple[Number, ...], result: Optional[Number]
    ) -> None:
        """Called after each dynamic operation with its actual values."""


class ExecutionLimitExceeded(RuntimeError):
    """The program ran past the configured dynamic-operation budget."""


@dataclass
class ExecutionResult:
    """Outcome of one architectural run."""

    program_name: str
    dynamic_operations: int
    dynamic_blocks: int
    registers: Dict[str, Number]
    memory: Memory
    halted: bool

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


def _make_reader(src: Union[Reg, Imm], strict: bool):
    """Operand reader resolved once per static operand."""
    if isinstance(src, Imm):
        value = src.value
        return lambda regs: value
    name = src.name
    if strict:
        def read_strict(regs, _name=name):
            if _name not in regs:
                raise KeyError(f"read of uninitialised register {_name}")
            return regs[_name]
        return read_strict
    return lambda regs, _name=name: regs.get(_name, 0)


def _compile_body_op(op: Operation, strict: bool):
    """Compile one straight-line op into ``(step, obs_step)`` closures.

    ``step(regs, mem)`` performs the op's architectural effect with no
    allocation; ``obs_step(regs, mem)`` does the same but also returns
    ``(inputs, result)`` exactly as the reference loop computes them, for
    observer notification.
    """
    opcode = op.opcode
    srcs = op.srcs

    if is_alu(opcode):
        fn = evaluator(opcode)
        dest = op.dest.name
        if not strict and len(srcs) == 2:
            a, b = srcs
            if isinstance(a, Reg) and isinstance(b, Reg):
                an, bn = a.name, b.name

                def step(regs, mem, fn=fn, an=an, bn=bn, dest=dest):
                    regs[dest] = fn(regs.get(an, 0), regs.get(bn, 0))

                def obs_step(regs, mem, fn=fn, an=an, bn=bn, dest=dest):
                    inputs = (regs.get(an, 0), regs.get(bn, 0))
                    result = fn(inputs[0], inputs[1])
                    regs[dest] = result
                    return inputs, result

                return step, obs_step
            if isinstance(a, Reg) and isinstance(b, Imm):
                an, bv = a.name, b.value

                def step(regs, mem, fn=fn, an=an, bv=bv, dest=dest):
                    regs[dest] = fn(regs.get(an, 0), bv)

                def obs_step(regs, mem, fn=fn, an=an, bv=bv, dest=dest):
                    inputs = (regs.get(an, 0), bv)
                    result = fn(inputs[0], bv)
                    regs[dest] = result
                    return inputs, result

                return step, obs_step
            if isinstance(a, Imm) and isinstance(b, Reg):
                av, bn = a.value, b.name

                def step(regs, mem, fn=fn, av=av, bn=bn, dest=dest):
                    regs[dest] = fn(av, regs.get(bn, 0))

                def obs_step(regs, mem, fn=fn, av=av, bn=bn, dest=dest):
                    inputs = (av, regs.get(bn, 0))
                    result = fn(av, inputs[1])
                    regs[dest] = result
                    return inputs, result

                return step, obs_step
        if not strict and len(srcs) == 1 and isinstance(srcs[0], Reg):
            an = srcs[0].name

            def step(regs, mem, fn=fn, an=an, dest=dest):
                regs[dest] = fn(regs.get(an, 0))

            def obs_step(regs, mem, fn=fn, an=an, dest=dest):
                inputs = (regs.get(an, 0),)
                result = fn(inputs[0])
                regs[dest] = result
                return inputs, result

            return step, obs_step
        readers = tuple(_make_reader(s, strict) for s in srcs)

        def step(regs, mem, fn=fn, readers=readers, dest=dest):
            regs[dest] = fn(*[read(regs) for read in readers])

        def obs_step(regs, mem, fn=fn, readers=readers, dest=dest):
            inputs = tuple(read(regs) for read in readers)
            result = fn(*inputs)
            regs[dest] = result
            return inputs, result

        return step, obs_step

    if opcode is Opcode.LOAD:
        dest = op.dest.name
        offset = op.offset
        base = srcs[0]
        if not strict and isinstance(base, Reg):
            bn = base.name

            def step(regs, mem, bn=bn, offset=offset, dest=dest):
                regs[dest] = mem.load(regs.get(bn, 0) + offset)

            def obs_step(regs, mem, bn=bn, offset=offset, dest=dest):
                address = regs.get(bn, 0)
                result = mem.load(address + offset)
                regs[dest] = result
                return (address,), result

            return step, obs_step
        read_base = _make_reader(base, strict)

        def step(regs, mem, read_base=read_base, offset=offset, dest=dest):
            regs[dest] = mem.load(read_base(regs) + offset)

        def obs_step(regs, mem, read_base=read_base, offset=offset, dest=dest):
            address = read_base(regs)
            result = mem.load(address + offset)
            regs[dest] = result
            return (address,), result

        return step, obs_step

    if opcode is Opcode.STORE:
        offset = op.offset
        value_src, base_src = srcs
        if (
            not strict
            and isinstance(value_src, Reg)
            and isinstance(base_src, Reg)
        ):
            vn, bn = value_src.name, base_src.name

            def step(regs, mem, vn=vn, bn=bn, offset=offset):
                mem.store(regs.get(bn, 0) + offset, regs.get(vn, 0))

            def obs_step(regs, mem, vn=vn, bn=bn, offset=offset):
                inputs = (regs.get(vn, 0), regs.get(bn, 0))
                mem.store(inputs[1] + offset, inputs[0])
                return inputs, None

            return step, obs_step
        read_value = _make_reader(value_src, strict)
        read_base = _make_reader(base_src, strict)

        def step(regs, mem, rv=read_value, rb=read_base, offset=offset):
            mem.store(rb(regs) + offset, rv(regs))

        def obs_step(regs, mem, rv=read_value, rb=read_base, offset=offset):
            inputs = (rv(regs), rb(regs))
            mem.store(inputs[1] + offset, inputs[0])
            return inputs, None

        return step, obs_step

    # Prediction forms (and any future opcode without an architectural
    # interpretation): the reference loop reads the operands, then raises.
    # Compiling a raiser keeps the dispatch miss at the same dynamic
    # point with the same message.
    readers = tuple(_make_reader(s, strict) for s in srcs)
    message = _dispatch_miss_message(opcode)

    def step(regs, mem, readers=readers, message=message):
        for read in readers:
            read(regs)
        raise ValueError(message)

    def obs_step(regs, mem, readers=readers, message=message):
        for read in readers:
            read(regs)
        raise ValueError(message)

    return step, obs_step


class _CompiledBlock:
    """One basic block lowered to a dispatch list of per-op closures."""

    __slots__ = (
        "block",
        "label",
        "n_ops",
        "steps",
        "obs_steps",
        "term_kind",
        "term_op",
        "term_cond",
        "term_targets",
    )

    def __init__(self, block: BasicBlock, strict: bool):
        ops = block.operations
        term_op = ops[-1] if ops and ops[-1].is_branch else None
        body = ops[:-1] if term_op is not None else list(ops)
        self.block = block
        self.label = block.label
        self.n_ops = len(ops)
        self.steps = []
        self.obs_steps = []
        for op in body:
            step, obs_step = _compile_body_op(op, strict)
            self.steps.append(step)
            self.obs_steps.append((op, obs_step))
        self.term_op = term_op
        self.term_cond = None
        self.term_targets: Tuple[str, ...] = ()
        if term_op is None:
            self.term_kind = None
        elif term_op.opcode is Opcode.BR:
            self.term_kind = "br"
            self.term_targets = term_op.targets
        elif term_op.opcode is Opcode.BRCOND:
            self.term_kind = "brcond"
            self.term_cond = _make_reader(term_op.srcs[0], strict)
            self.term_targets = term_op.targets
        else:  # HALT is the only other branch opcode.
            self.term_kind = "halt"

    def exec_terminator(self, regs):
        """Run the terminator; returns ``(next_label, halted, inputs)``."""
        kind = self.term_kind
        if kind == "br":
            return self.term_targets[0], False, ()
        if kind == "brcond":
            cond = self.term_cond(regs)
            target = self.term_targets[0] if cond != 0 else self.term_targets[1]
            return target, False, (cond,)
        return None, True, ()


class Interpreter:
    """Executes a program's main function to completion."""

    def __init__(
        self,
        max_operations: int = 5_000_000,
        strict_registers: bool = False,
    ):
        self.max_operations = max_operations
        self.strict_registers = strict_registers

    def run(
        self,
        program: Program,
        observers: Optional[List[ExecutionObserver]] = None,
    ) -> ExecutionResult:
        observers = observers or []
        function = program.main
        memory = Memory(program.initial_memory)
        registers: Dict[str, Number] = dict(program.initial_registers)
        strict = self.strict_registers
        max_operations = self.max_operations
        compiled: Dict[str, _CompiledBlock] = {}

        executed = 0
        blocks = 0
        label: Optional[str] = function.entry_label
        halted = False

        while label is not None:
            cb = compiled.get(label)
            if cb is None:
                cb = compiled[label] = _CompiledBlock(
                    function.block(label), strict
                )
            blocks += 1
            if observers:
                block = cb.block
                for observer in observers:
                    observer.block_entered(block)

            next_label: Optional[str] = None
            if executed + cb.n_ops > max_operations:
                # The budget may run out inside this block: step op by
                # op so the limit error raises at exactly the operation
                # that exceeds it, after that op's predecessors have
                # notified the observers.
                for op, obs_step in cb.obs_steps:
                    executed += 1
                    if executed > max_operations:
                        raise ExecutionLimitExceeded(
                            f"{program.name}: exceeded "
                            f"{max_operations} operations"
                        )
                    inputs, result = obs_step(registers, memory)
                    for observer in observers:
                        observer.operation_executed(op, inputs, result)
                if cb.term_kind is not None:
                    executed += 1
                    if executed > max_operations:
                        raise ExecutionLimitExceeded(
                            f"{program.name}: exceeded "
                            f"{max_operations} operations"
                        )
                    next_label, halted, term_inputs = cb.exec_terminator(
                        registers
                    )
                    for observer in observers:
                        observer.operation_executed(
                            cb.term_op, term_inputs, None
                        )
            else:
                executed += cb.n_ops
                if observers:
                    for op, obs_step in cb.obs_steps:
                        inputs, result = obs_step(registers, memory)
                        for observer in observers:
                            observer.operation_executed(op, inputs, result)
                else:
                    for step in cb.steps:
                        step(registers, memory)
                if cb.term_kind is not None:
                    next_label, halted, term_inputs = cb.exec_terminator(
                        registers
                    )
                    if observers:
                        for observer in observers:
                            observer.operation_executed(
                                cb.term_op, term_inputs, None
                            )

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
            dynamic_blocks=blocks,
            registers=registers,
            memory=memory,
            halted=halted,
        )


def run_program(
    program: Program,
    observers: Optional[List[ExecutionObserver]] = None,
    max_operations: int = 5_000_000,
) -> ExecutionResult:
    """Convenience wrapper around :class:`Interpreter`."""
    return Interpreter(max_operations=max_operations).run(program, observers=observers)
