"""Operands and operations of the VLIW IR.

An :class:`Operation` is a single HPL-PD-style operation (one slot of a
VLIW instruction).  Operands are virtual registers (:class:`Reg`) or
immediates (:class:`Imm`).  Memory operations address memory as
``base_register + offset``; branches name their target blocks by label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union

from repro.ir.opcodes import (
    BRANCH_OPCODES,
    Opcode,
    arity,
    is_alu,
)


@dataclass(frozen=True, slots=True)
class Reg:
    """A virtual register, identified by name (e.g. ``r4`` or ``f2``)."""

    name: str

    def __reduce__(self):
        # Pickle by constructor, not the generated per-object __setstate__
        # (docs/RUNNER.md, "Payload codec").
        return (Reg, (self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate (literal) operand."""

    value: Union[int, float]

    def __reduce__(self):
        return (Imm, (self.value,))

    def __str__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]


@dataclass(eq=False, slots=True)
class Operation:
    """One IR operation.

    Attributes:
        opcode: the operation code.
        dest: destination register, or ``None`` for stores/branches.
        srcs: source operands in positional order.  For ``LOAD`` the single
            source is the base address register; for ``STORE`` the sources
            are ``(value, base)``; for ``BRCOND`` the single source is the
            condition register.
        offset: byte offset added to the base register of a memory op.
        targets: branch target labels — ``(then, else)`` for ``BRCOND``,
            ``(target,)`` for ``BR``, empty otherwise.
        op_id: unique within the program (builders and the parser number
            its operations 1..N in emission order); the key of dependence
            graphs, schedules, value profiles and the speculation pass.
    """

    opcode: Opcode
    dest: Optional[Reg] = None
    srcs: Tuple[Operand, ...] = ()
    offset: int = 0
    targets: Tuple[str, ...] = ()
    op_id: int = field(kw_only=True)

    def __post_init__(self) -> None:
        self._validate()

    def __reduce__(self):
        # Pickle by a restore function, not the slot-state default
        # (docs/RUNNER.md, "Payload codec").
        return (
            _restore_operation,
            (self.opcode, self.dest, self.srcs, self.offset, self.targets,
             self.op_id),
        )

    def _validate(self) -> None:
        op = self.opcode
        if is_alu(op):
            if self.dest is None:
                raise ValueError(f"{op.value} requires a destination register")
            if len(self.srcs) != arity(op):
                raise ValueError(
                    f"{op.value} takes {arity(op)} sources, got {len(self.srcs)}"
                )
        elif op is Opcode.LOAD:
            if self.dest is None or len(self.srcs) != 1:
                raise ValueError("load requires a destination and a base register")
        elif op is Opcode.STORE:
            if self.dest is not None or len(self.srcs) != 2:
                raise ValueError("store takes (value, base) sources and no dest")
        elif op is Opcode.BR:
            if len(self.targets) != 1:
                raise ValueError("br requires exactly one target label")
        elif op is Opcode.BRCOND:
            if len(self.srcs) != 1 or len(self.targets) != 2:
                raise ValueError("brcond requires a condition and two targets")
        elif op is Opcode.HALT:
            if self.srcs or self.dest is not None:
                raise ValueError("halt takes no operands")
        elif op is Opcode.LDPRED:
            # LdPred reads the value predictor, not registers.
            if self.dest is None or self.srcs:
                raise ValueError("ldpred takes a destination register only")
        elif op is Opcode.CHKPRED:
            # The check-prediction form of a load: re-executes the load and
            # compares against the LdPred predicted value.
            if self.dest is None or len(self.srcs) != 1:
                raise ValueError("chkpred requires a destination and a base register")

    # -- dataflow queries ------------------------------------------------

    def uses(self) -> Iterator[Reg]:
        """Registers read by this operation (in positional order)."""
        for src in self.srcs:
            if isinstance(src, Reg):
                yield src

    def defs(self) -> Iterator[Reg]:
        """Registers written by this operation."""
        if self.dest is not None:
            yield self.dest

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCH_OPCODES

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def has_side_effect(self) -> bool:
        """True for operations that must not be value-speculated.

        Stores change memory and branches change control flow; neither can
        be undone by the Compensation Code Engine, so the speculation pass
        always keeps them in non-speculative form.
        """
        return self.is_store or self.is_branch

    # -- cosmetics -------------------------------------------------------

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.dest is not None:
            parts.append(str(self.dest))
        parts.extend(str(s) for s in self.srcs)
        if self.opcode in (Opcode.LOAD, Opcode.STORE):
            parts.append(f"[{self.offset}]")
        parts.extend(self.targets)
        return f"op{self.op_id}: " + " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self}>"

    def __hash__(self) -> int:
        return hash(self.op_id)


def _restore_operation(opcode, dest, srcs, offset, targets, op_id) -> Operation:
    """Rebuild a pickled :class:`Operation`.

    The fields were validated when the original was built, so the
    restore sets them without running the constructor's checks again.
    """
    op = object.__new__(Operation)
    op.opcode = opcode
    op.dest = dest
    op.srcs = srcs
    op.offset = offset
    op.targets = targets
    op.op_id = op_id
    return op
