"""Opcode definitions for the VLIW intermediate representation.

The opcode set is modelled on the HPL-PD ("Playdoh") instruction set that
the paper's Trimaran infrastructure targets: simple integer and floating
point ALU operations, explicit loads and stores, compares and branches.
Each opcode carries the functional-unit class it executes on; operation
latencies are a property of the machine description, not of the opcode
(see :mod:`repro.machine.description`).
"""

from __future__ import annotations

import enum
import operator as _op
from typing import Callable


class FUClass(enum.Enum):
    """Functional-unit classes of the HPL-PD-like machine model."""

    IALU = "ialu"
    FALU = "falu"
    MEM = "mem"
    BRANCH = "branch"

    # Members are singletons compared by identity, so hash by identity
    # too: Enum.__hash__ hashes the name in Python on every dict lookup.
    __hash__ = object.__hash__


class Opcode(enum.Enum):
    """Operation codes understood by the IR, interpreter and scheduler."""

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    NOT = "not"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    MOV = "mov"
    # Comparisons (produce 0/1 in an integer register).
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    # Floating point ALU.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FABS = "fabs"
    FSQRT = "fsqrt"
    # Memory.
    LOAD = "load"
    STORE = "store"
    # Control.
    BR = "br"
    BRCOND = "brcond"
    HALT = "halt"
    # Value-prediction ISA extension (paper section 2.1).  These only ever
    # appear in *transformed* code produced by repro.core.speculation; the
    # front end never emits them.
    LDPRED = "ldpred"
    CHKPRED = "chkpred"

    __hash__ = object.__hash__  # identity, as for FUClass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes that transfer control.  They terminate basic blocks.
BRANCH_OPCODES = frozenset({Opcode.BR, Opcode.BRCOND, Opcode.HALT})

#: Opcodes that read or write memory.
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE})

#: Opcodes with two register/immediate sources and one destination.
_BINARY_INT = {
    Opcode.ADD: _op.add,
    Opcode.SUB: _op.sub,
    Opcode.MUL: _op.mul,
    Opcode.AND: lambda a, b: int(a) & int(b),
    Opcode.OR: lambda a, b: int(a) | int(b),
    Opcode.XOR: lambda a, b: int(a) ^ int(b),
    # Shift amounts are masked to six bits, as shifter hardware does —
    # and as speculative re-execution with a mispredicted (possibly
    # negative) operand requires to avoid crashing the simulator.
    Opcode.SHL: lambda a, b: int(a) << (int(b) & 63),
    Opcode.SHR: lambda a, b: int(a) >> (int(b) & 63),
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
    Opcode.FADD: _op.add,
    Opcode.FSUB: _op.sub,
    Opcode.FMUL: _op.mul,
}

_UNARY = {
    Opcode.MOV: lambda a: a,
    Opcode.NEG: lambda a: -a,
    Opcode.NOT: lambda a: ~int(a),
    Opcode.ABS: abs,
    Opcode.FNEG: lambda a: -a,
    Opcode.FABS: abs,
    Opcode.FSQRT: lambda a: abs(a) ** 0.5,
}


def _int_div(a, b):
    """C-style truncating division; division by zero yields zero.

    Real hardware traps; our synthetic workloads never divide by zero on
    purpose, but value *speculation* can re-execute an operation with a
    predicted (wrong) operand, and that re-execution must not crash the
    simulator.  Returning zero mirrors the "defer the exception until the
    value is verified" semantics of speculative execution in HPL-PD.
    """
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a, b):
    if b == 0:
        return 0
    return a - b * _int_div(a, b)


def _float_div(a, b):
    if b == 0:
        return 0.0
    return a / b


_SPECIAL_BINARY = {
    Opcode.DIV: _int_div,
    Opcode.MOD: _int_mod,
    Opcode.FDIV: _float_div,
}


def evaluator(opcode: Opcode) -> Callable:
    """Return the pure-value evaluator for an ALU/compare opcode.

    Raises :class:`KeyError` for opcodes without a value semantics
    (memory, control, prediction forms) — those are interpreted by the
    execution engines directly.
    """
    if opcode in _BINARY_INT:
        return _BINARY_INT[opcode]
    if opcode in _SPECIAL_BINARY:
        return _SPECIAL_BINARY[opcode]
    return _UNARY[opcode]


def arity(opcode: Opcode) -> int:
    """Number of value sources an ALU/compare opcode consumes."""
    if opcode in _BINARY_INT or opcode in _SPECIAL_BINARY:
        return 2
    if opcode in _UNARY:
        return 1
    raise ValueError(f"{opcode} has no fixed ALU arity")


def is_alu(opcode: Opcode) -> bool:
    """True if the opcode computes a register value from register values."""
    return opcode in _BINARY_INT or opcode in _SPECIAL_BINARY or opcode in _UNARY


_FLOAT_OPCODES = frozenset(
    {
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FNEG,
        Opcode.FABS,
        Opcode.FSQRT,
    }
)


def _classify_fu(opcode: Opcode) -> FUClass:
    if opcode in _FLOAT_OPCODES:
        return FUClass.FALU
    if opcode in MEMORY_OPCODES or opcode is Opcode.CHKPRED:
        return FUClass.MEM
    if opcode in BRANCH_OPCODES:
        return FUClass.BRANCH
    return FUClass.IALU


#: opcode -> unit class, precomputed once — the list scheduler asks per
#: heap pop, which makes this one of the hottest lookups in a sweep.
_FU_CLASS: dict = {op: _classify_fu(op) for op in Opcode}


def fu_class(opcode: Opcode) -> FUClass:
    """Functional-unit class an opcode executes on.

    ``LdPred`` executes on an integer unit (it behaves like a move whose
    source is the value predictor) and the check-prediction form executes
    on a memory unit with compare semantics, exactly as the paper argues
    in section 3 to avoid adding functional units.
    """
    return _FU_CLASS[opcode]
