"""The value-trace format: one architectural run, compactly.

A :class:`ValueTrace` records everything the downstream consumers of an
architectural run actually use — the dynamic block sequence and the
result values of *traced* operations (loads and long-latency ALU ops,
the only opcodes value profiling and the simulated value predictor
read) — plus the run's final architectural state.  The column decode of
:mod:`repro.batchsim.arrays` is how every consumer reads it.

Format invariants (see ``docs/INTERNALS.md`` for the full spec):

* **Block ids** — ``labels`` assigns each block label a small integer in
  first-execution order; ``block_seq`` is the dynamic run as a sequence
  of those ids.
* **Value ordering** — ``values`` is a single flat stream.  Each dynamic
  block instance consumes one value per *traced* static operation of
  that block, in static (program) order; instances are concatenated in
  ``block_seq`` order.  Predicted loads are a subset of traced ops, so
  one trace serves every compilation without knowing its speculation
  decisions at capture time.
* **Identity** — ``program_digest`` hashes the program *structure*
  (labels, opcode/operand/target sequences, initial state) but not
  operation ids: the architectural run never reads them (values are
  matched to ops by position), so a trace applies to any
  structurally identical program, however it is numbered.  The
  encoding hashed is binary and type-tagged: ``3``, ``3.0`` and
  ``True`` differ, as do ``0.0`` and ``-0.0``.
* **Versioning** — ``schema_version`` names the layout a trace was
  captured with.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple, Union

from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm
from repro.profiling.value_profile import LONG_LATENCY_OPCODES

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.operation import Reg
    from repro.ir.program import Program
    from repro.profiling.memory import Number

#: Bump when the trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Opcodes whose results are recorded in the value stream.  This is the
#: union of everything the value profiler can track and everything the
#: speculation pass can predict (loads always; long-latency ALU under
#: ``predict_alu``) — so one trace serves every downstream consumer.
TRACED_OPCODES: FrozenSet[Opcode] = frozenset({Opcode.LOAD}) | LONG_LATENCY_OPCODES


class TraceMismatch(RuntimeError):
    """A trace does not correspond to the program it is read against."""


def _operand_key(operand: Union[Reg, Imm]):
    """A register as its name, an immediate as a 1-tuple of its value."""
    if isinstance(operand, Imm):
        return (operand.value,)
    return operand.name


#: id(program) -> (program, digest).  Identity memo: the entry pins the
#: program, so the id cannot be recycled while it lives.  Programs are
#: immutable once built (the pass managers always rebuild), so the
#: digest of a given object never changes.  Cleared alongside the other
#: process-wide memos by ``repro.batchsim.reset_shared_state``.
_DIGESTS: Dict[int, Tuple[Program, str]] = {}


def reset_digest_memo() -> None:
    _DIGESTS.clear()


def _structure(program: Program) -> tuple:
    """The program as nested tuples and lists of strings and numbers,
    op ids left out and the initial state sorted by key."""
    memory = program.initial_memory
    addresses = sorted(memory)
    return (
        program.name,
        program.main_name,
        [
            (
                function.name,
                function.entry_label,
                [
                    (
                        block.label,
                        [
                            (
                                op.opcode.value,
                                None if op.dest is None else op.dest.name,
                                tuple([_operand_key(s) for s in op.srcs]),
                                op.offset,
                                tuple(op.targets),
                            )
                            for op in block.operations
                        ],
                    )
                    for block in function.blocks
                ],
            )
            for function in program
        ],
        sorted(program.initial_registers.items()),
        addresses,
        [memory[address] for address in addresses],
    )


def program_digest(program: Program) -> str:
    """Structural content hash of a program (memoised per object).

    Covers everything that determines the architectural run — function
    and block structure, opcodes, operands, offsets, branch targets, and
    the initial register/memory image — but deliberately *not* operation
    ids, which the architectural run never reads: programs that differ
    only in numbering share one trace.

    The hash is SHA-256 over a memo-free pickle (protocol 4, ``fast``
    mode) of :func:`_structure`.  Pickle tags each number with its type
    and packs floats as IEEE-754 bytes, so ``3``, ``3.0`` and ``True``
    encode differently, and so do ``0.0`` and ``-0.0``.  Without the
    memo a repeated string is written out each time instead of as a
    back-reference, so the bytes depend only on the values, not on which
    objects happen to be shared (a built program and its decoded copy
    encode alike).
    """
    entry = _DIGESTS.get(id(program))
    if entry is not None and entry[0] is program:
        return entry[1]
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(_structure(program))
    digest = hashlib.sha256(buffer.getbuffer()).hexdigest()
    _DIGESTS[id(program)] = (program, digest)
    return digest


def block_signature(block) -> Tuple[str, ...]:
    """The opcode sequence of a block — the per-block validation key."""
    return tuple(op.opcode.value for op in block.operations)


@dataclass
class ValueTrace:
    """One captured architectural run."""

    program_name: str
    program_digest: str
    #: Block labels in first-execution order; index = block id.
    labels: Tuple[str, ...]
    #: Per-label opcode sequences, parallel to ``labels`` (validation).
    block_signatures: Tuple[Tuple[str, ...], ...]
    #: The dynamic run as label indices into ``labels``.
    block_seq: List[int]
    #: Flat traced-op value stream (see module docstring for ordering).
    values: List[Number]
    dynamic_operations: int = 0
    dynamic_blocks: int = 0
    loads_executed: int = 0
    stores_executed: int = 0
    halted: bool = True
    final_registers: Dict[str, Number] = field(default_factory=dict)
    final_memory: Dict[int, Number] = field(default_factory=dict)
    schema_version: int = TRACE_SCHEMA_VERSION

    @property
    def n_values(self) -> int:
        return len(self.values)
