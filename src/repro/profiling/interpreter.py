"""Architectural (functional) execution of IR programs.

The interpreter executes a program the way the paper's HP PA-RISC host
executed the benchmarks during profiling: sequentially, with exact
values.  Every run also records what a value trace holds
(:func:`repro.trace.capture.capture_trace` packages it): the dynamic
block sequence, as block ids in first-entry order, and the result of
every op whose opcode is in :data:`~repro.trace.format.TRACED_OPCODES`,
in execution order.

Each basic block is precompiled, once per static block per run, into a
dispatch list of no-argument per-op closures: the opcode handler, the
register slots of operands and destination (one slot per register name
in the run's register list), the memory dict and, for traced ops, the
append to the run's value list are resolved at compile time instead of
being re-dispatched for every dynamic instance.  Loads and stores read
and write the memory words inline; their counts are added once per
block entry.  The test suite keeps the original per-op
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


class _RegisterFile:
    """The run's registers as one list with a slot per register name.

    Slots are handed out as blocks are compiled, so a compiled step
    indexes a list instead of hashing a name.  An unwritten slot holds
    0, which is what reading a never-written register yields.

    ``written`` is an ordered set of the names the run's ``registers``
    reports: the initial registers, then each destination in the order
    blocks are compiled and, within a block, in op order.  A block is
    compiled on its first entry and runs to its end on that entry (or
    the run raises), so that order is exactly the dynamic first-write
    order.
    """

    __slots__ = ("values", "slots", "written")

    def __init__(self, initial: Dict[str, Number]):
        self.values: List[Number] = list(initial.values())
        self.slots: Dict[str, int] = {name: i for i, name in enumerate(initial)}
        self.written: Dict[str, None] = dict.fromkeys(initial)

    def slot(self, name: str) -> int:
        index = self.slots.get(name)
        if index is None:
            index = self.slots[name] = len(self.values)
            self.values.append(0)
        return index

    def dest(self, reg: Reg) -> int:
        """The slot of a register an op writes, noting the write."""
        self.written[reg.name] = None
        return self.slot(reg.name)

    def snapshot(self) -> Dict[str, Number]:
        values, slots = self.values, self.slots
        return {name: values[slots[name]] for name in self.written}


def _make_reader(src: Union[Reg, Imm], rf: _RegisterFile):
    """Operand reader resolved once per static operand."""
    if isinstance(src, Imm):
        value = src.value
        return lambda: value
    return lambda R=rf.values, s=rf.slot(src.name): R[s]


def _compile_plain_op(op: Operation, rf: _RegisterFile, W: Dict[int, Number]):
    """Compile one straight-line op into a no-argument ``step()`` closure
    over the run's register list ``R`` and memory words ``W``."""
    opcode = op.opcode
    srcs = op.srcs
    R = rf.values

    if is_alu(opcode):
        fn = evaluator(opcode)
        if len(srcs) == 2:
            a, b = srcs
            if isinstance(a, Reg) and isinstance(b, Reg):

                def step(R=R, fn=fn, a=rf.slot(a.name), b=rf.slot(b.name),
                         d=rf.dest(op.dest)):
                    R[d] = fn(R[a], R[b])

                return step
            if isinstance(a, Reg) and isinstance(b, Imm):

                def step(R=R, fn=fn, a=rf.slot(a.name), bv=b.value,
                         d=rf.dest(op.dest)):
                    R[d] = fn(R[a], bv)

                return step
            if isinstance(a, Imm) and isinstance(b, Reg):

                def step(R=R, fn=fn, av=a.value, b=rf.slot(b.name),
                         d=rf.dest(op.dest)):
                    R[d] = fn(av, R[b])

                return step
        if len(srcs) == 1 and isinstance(srcs[0], Reg):

            def step(R=R, fn=fn, a=rf.slot(srcs[0].name), d=rf.dest(op.dest)):
                R[d] = fn(R[a])

            return step
        readers = tuple(_make_reader(s, rf) for s in srcs)

        def step(R=R, fn=fn, readers=readers, d=rf.dest(op.dest)):
            R[d] = fn(*[read() for read in readers])

        return step

    if opcode is Opcode.LOAD:
        base = srcs[0]
        if isinstance(base, Reg):

            def step(R=R, W=W, b=rf.slot(base.name), offset=op.offset,
                     d=rf.dest(op.dest)):
                R[d] = W.get(int(R[b] + offset), 0)

            return step

        def step(R=R, W=W, bv=base.value, offset=op.offset,
                 d=rf.dest(op.dest)):
            R[d] = W.get(int(bv + offset), 0)

        return step

    if opcode is Opcode.STORE:
        offset = op.offset
        value_src, base_src = srcs
        if isinstance(value_src, Reg) and isinstance(base_src, Reg):

            def step(R=R, W=W, v=rf.slot(value_src.name),
                     b=rf.slot(base_src.name), offset=offset):
                W[int(R[b] + offset)] = R[v]

            return step
        read_value = _make_reader(value_src, rf)
        read_base = _make_reader(base_src, rf)

        def step(W=W, rv=read_value, rb=read_base, offset=offset):
            W[int(rb() + offset)] = rv()

        return step

    # Prediction forms (and any future opcode without an architectural
    # interpretation).  Reading operands has no effect, so the step just
    # raises: the dispatch miss fires at the same dynamic op with the
    # reference loop's message.
    message = _dispatch_miss_message(opcode)

    def step(message=message):
        raise ValueError(message)

    return step


def _compile_traced_op(op: Operation, rf: _RegisterFile,
                       W: Dict[int, Number], record):
    """Like :func:`_compile_plain_op` for an op in ``TRACED_OPCODES``,
    whose step also passes its result to ``record``.

    Register-based loads and two-operand arithmetic, nearly every traced
    op the suite executes, record inline; any other shape wraps its
    plain step and records the destination it wrote.
    """
    srcs = op.srcs
    R = rf.values
    if op.opcode is Opcode.LOAD and isinstance(srcs[0], Reg):

        def step(R=R, W=W, b=rf.slot(srcs[0].name), offset=op.offset,
                 d=rf.dest(op.dest), record=record):
            R[d] = result = W.get(int(R[b] + offset), 0)
            record(result)

        return step
    if is_alu(op.opcode) and len(srcs) == 2 and isinstance(srcs[0], Reg):
        fn = evaluator(op.opcode)
        a, b = srcs
        if isinstance(b, Reg):

            def step(R=R, fn=fn, a=rf.slot(a.name), b=rf.slot(b.name),
                     d=rf.dest(op.dest), record=record):
                R[d] = result = fn(R[a], R[b])
                record(result)

            return step
        if isinstance(b, Imm):

            def step(R=R, fn=fn, a=rf.slot(a.name), bv=b.value,
                     d=rf.dest(op.dest), record=record):
                R[d] = result = fn(R[a], bv)
                record(result)

            return step

    plain = _compile_plain_op(op, rf, W)

    def step(R=R, plain=plain, d=rf.slot(op.dest.name), record=record):
        plain()
        record(R[d])

    return step


def _compile_branch(term_op: Optional[Operation], label: str,
                    rf: _RegisterFile):
    """The block's exit as a closure returning the next label, or
    ``None`` on ``HALT``; a block without a terminator raises."""
    if term_op is None:
        message = f"block {label!r} fell through without a branch"

        def branch():
            raise RuntimeError(message)

        return branch
    if term_op.opcode is Opcode.BR:
        target = term_op.targets[0]
        return lambda: target
    if term_op.opcode is Opcode.BRCOND:
        taken, fallthrough = term_op.targets
        cond = term_op.srcs[0]
        if isinstance(cond, Reg):

            def branch(R=rf.values, c=rf.slot(cond.name)):
                return taken if R[c] != 0 else fallthrough

            return branch
        return lambda: taken if cond.value != 0 else fallthrough
    return lambda: None  # HALT is the only other branch opcode.


class _CompiledBlock:
    """One basic block lowered to a dispatch list of per-op closures."""

    __slots__ = ("block_id", "n_ops", "steps", "has_terminator", "branch",
                 "n_loads", "n_stores")

    def __init__(self, block: BasicBlock, block_id: int, rf: _RegisterFile,
                 W: Dict[int, Number], record):
        ops = block.operations
        term_op = ops[-1] if ops and ops[-1].is_branch else None
        body = ops[:-1] if term_op is not None else list(ops)
        self.block_id = block_id
        self.n_ops = len(ops)
        self.steps = [
            _compile_traced_op(op, rf, W, record)
            if op.opcode in TRACED_OPCODES
            else _compile_plain_op(op, rf, W)
            for op in body
        ]
        self.has_terminator = term_op is not None
        self.branch = _compile_branch(term_op, block.label, rf)
        self.n_loads = sum(op.opcode is Opcode.LOAD for op in body)
        self.n_stores = sum(op.opcode is Opcode.STORE for op in body)


class Interpreter:
    """Executes a program's main function to completion."""

    def __init__(self, max_operations: int = 5_000_000):
        self.max_operations = max_operations

    def run(self, program: Program) -> ExecutionResult:
        function = program.main
        memory = Memory(program.initial_memory)
        words = memory.words
        rf = _RegisterFile(program.initial_registers)
        max_operations = self.max_operations
        compiled: Dict[str, _CompiledBlock] = {}
        block_seq: List[int] = []
        values: List[Number] = []
        enter = block_seq.append
        record = values.append

        executed = loads = stores = 0
        label: Optional[str] = function.entry_label

        while label is not None:
            cb = compiled.get(label)
            if cb is None:
                # Ids count blocks in first-entry order: the dict's size
                # before this block joins it.
                cb = compiled[label] = _CompiledBlock(
                    function.block(label), len(compiled), rf, words, record
                )
            enter(cb.block_id)

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
                    step()
                if cb.has_terminator:
                    executed += 1
                    if executed > max_operations:
                        raise ExecutionLimitExceeded(
                            f"{program.name}: exceeded "
                            f"{max_operations} operations"
                        )
            else:
                executed += cb.n_ops
                for step in cb.steps:
                    step()
            loads += cb.n_loads
            stores += cb.n_stores
            label = cb.branch()

        memory.reads = loads
        memory.writes = stores
        return ExecutionResult(
            program_name=program.name,
            dynamic_operations=executed,
            dynamic_blocks=len(block_seq),
            registers=rf.snapshot(),
            memory=memory,
            # The loop ends only on a HALT, unless it never started.
            halted=bool(block_seq),
            labels=tuple(compiled),
            block_seq=block_seq,
            values=values,
        )


def run_program(
    program: Program, max_operations: int = 5_000_000
) -> ExecutionResult:
    """Convenience wrapper around :class:`Interpreter`."""
    return Interpreter(max_operations=max_operations).run(program)
