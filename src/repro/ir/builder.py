"""Fluent construction of IR functions and programs.

The builder is the authoring surface for the synthetic workloads: register
operands are plain strings, immediates are plain numbers, and blocks are
opened with :meth:`FunctionBuilder.block`.

Example::

    fb = FunctionBuilder("main")
    fb.block("entry")
    fb.mov("r1", 0)
    fb.br("loop")
    fb.block("loop")
    fb.load("r2", "r1", offset=100)
    fb.add("r1", "r1", 1)
    fb.cmplt("r3", "r1", 64)
    fb.brcond("r3", "loop", "exit")
    fb.block("exit")
    fb.halt()
    function = fb.build()

Operations are numbered 1..N in emission order, one counter per program.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm, Operand, Operation, Reg
from repro.ir.program import Program

SrcLike = Union[str, int, float, Reg, Imm]


def as_operand(value: SrcLike) -> Operand:
    """Coerce a string/number into a register/immediate operand."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, str):
        return Reg(value)
    if isinstance(value, (int, float)):
        return Imm(value)
    raise TypeError(f"cannot convert {value!r} to an operand")


def as_reg(value: Union[str, Reg]) -> Reg:
    if isinstance(value, Reg):
        return value
    if isinstance(value, str):
        return Reg(value)
    raise TypeError(f"cannot convert {value!r} to a register")


class FunctionBuilder:
    """Builds a :class:`Function` block by block; ``ids`` (from 1 by
    default) numbers its operations."""

    def __init__(
        self, name: str, entry_label: str = "entry", ids: Optional[Iterator[int]] = None
    ):
        self._function = Function(name, entry_label=entry_label)
        self._current: Optional[BasicBlock] = None
        self._ids = itertools.count(1) if ids is None else ids

    # -- blocks ------------------------------------------------------------

    def block(self, label: str) -> BasicBlock:
        """Open a new basic block; subsequent emits go to it."""
        blk = BasicBlock(label)
        self._function.add_block(blk)
        self._current = blk
        return blk

    def _emit(self, op: Operation) -> Operation:
        if self._current is None:
            raise RuntimeError("open a block before emitting operations")
        return self._current.append(op)

    # -- generic emitters ----------------------------------------------------

    def emit(
        self,
        opcode: Opcode,
        dest: Optional[Union[str, Reg]] = None,
        *srcs: SrcLike,
        offset: int = 0,
        targets: tuple[str, ...] = (),
    ) -> Operation:
        return self._emit(
            Operation(
                opcode=opcode,
                dest=as_reg(dest) if dest is not None else None,
                srcs=tuple(as_operand(s) for s in srcs),
                offset=offset,
                targets=targets,
                op_id=next(self._ids),
            )
        )

    def binary(self, opcode: Opcode, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.emit(opcode, dest, a, b)

    def unary(self, opcode: Opcode, dest: str, a: SrcLike) -> Operation:
        return self.emit(opcode, dest, a)

    # -- integer ALU ---------------------------------------------------------

    def add(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.ADD, dest, a, b)

    def sub(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.SUB, dest, a, b)

    def mul(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.MUL, dest, a, b)

    def div(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.DIV, dest, a, b)

    def mod(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.MOD, dest, a, b)

    def and_(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.AND, dest, a, b)

    def or_(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.OR, dest, a, b)

    def xor(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.XOR, dest, a, b)

    def shl(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.SHL, dest, a, b)

    def shr(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.SHR, dest, a, b)

    def min_(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.MIN, dest, a, b)

    def max_(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.MAX, dest, a, b)

    def mov(self, dest: str, a: SrcLike) -> Operation:
        return self.unary(Opcode.MOV, dest, a)

    def neg(self, dest: str, a: SrcLike) -> Operation:
        return self.unary(Opcode.NEG, dest, a)

    def not_(self, dest: str, a: SrcLike) -> Operation:
        return self.unary(Opcode.NOT, dest, a)

    def abs_(self, dest: str, a: SrcLike) -> Operation:
        return self.unary(Opcode.ABS, dest, a)

    # -- comparisons -----------------------------------------------------------

    def cmpeq(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.CMPEQ, dest, a, b)

    def cmpne(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.CMPNE, dest, a, b)

    def cmplt(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.CMPLT, dest, a, b)

    def cmple(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.CMPLE, dest, a, b)

    def cmpgt(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.CMPGT, dest, a, b)

    def cmpge(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.CMPGE, dest, a, b)

    # -- floating point ---------------------------------------------------------

    def fadd(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.FADD, dest, a, b)

    def fsub(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.FSUB, dest, a, b)

    def fmul(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.FMUL, dest, a, b)

    def fdiv(self, dest: str, a: SrcLike, b: SrcLike) -> Operation:
        return self.binary(Opcode.FDIV, dest, a, b)

    def fsqrt(self, dest: str, a: SrcLike) -> Operation:
        return self.unary(Opcode.FSQRT, dest, a)

    # -- memory ------------------------------------------------------------------

    def load(self, dest: str, base: Union[str, Reg], offset: int = 0) -> Operation:
        return self.emit(Opcode.LOAD, dest, base, offset=offset)

    def store(
        self, value: SrcLike, base: Union[str, Reg], offset: int = 0
    ) -> Operation:
        return self.emit(Opcode.STORE, None, value, base, offset=offset)

    # -- control -------------------------------------------------------------------

    def br(self, target: str) -> Operation:
        return self.emit(Opcode.BR, targets=(target,))

    def brcond(self, cond: Union[str, Reg], then_label: str, else_label: str) -> Operation:
        return self.emit(Opcode.BRCOND, None, cond, targets=(then_label, else_label))

    def halt(self) -> Operation:
        return self.emit(Opcode.HALT)

    # -- finish ---------------------------------------------------------------------

    def build(self) -> Function:
        from repro.ir.verifier import verify_function

        verify_function(self._function)
        return self._function


class ProgramBuilder:
    """Builds a :class:`Program` containing one or more functions."""

    def __init__(self, name: str, main: str = "main"):
        self._program = Program(name, main=main)
        self._ids = itertools.count(1)

    def function(self, name: Optional[str] = None, entry_label: str = "entry") -> FunctionBuilder:
        return FunctionBuilder(name or self._program.main_name, entry_label, self._ids)

    def add(self, function: Function) -> "ProgramBuilder":
        self._program.add_function(function)
        return self

    def memory(self, base: int, values) -> "ProgramBuilder":
        self._program.poke_array(base, values)
        return self

    def register(self, name: str, value) -> "ProgramBuilder":
        self._program.set_register(name, value)
        return self

    def build(self) -> Program:
        if not len(self._program):
            raise ValueError("program has no functions")
        return self._program
