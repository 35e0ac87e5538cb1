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
  structurally identical program, however it is numbered.
* **Versioning** — ``schema_version`` names the layout a trace was
  captured with.
"""

from __future__ import annotations

import hashlib
import json
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
    if isinstance(operand, Imm):
        return ["imm", operand.value]
    return ["reg", operand.name]


#: id(program) -> (program, digest).  Identity memo: the entry pins the
#: program, so the id cannot be recycled while it lives.  Programs are
#: immutable once built (the pass managers always rebuild), so the
#: digest of a given object never changes.  Cleared alongside the other
#: process-wide memos by ``repro.batchsim.reset_shared_state``.
_DIGESTS: Dict[int, Tuple[Program, str]] = {}


def reset_digest_memo() -> None:
    _DIGESTS.clear()


def program_digest(program: Program) -> str:
    """Structural content hash of a program (memoised per object).

    Covers everything that determines the architectural run — function
    and block structure, opcodes, operands, offsets, branch targets, and
    the initial register/memory image — but deliberately *not* operation
    ids, which the architectural run never reads: programs that differ
    only in numbering share one trace.
    """
    entry = _DIGESTS.get(id(program))
    if entry is not None and entry[0] is program:
        return entry[1]
    doc = {
        "name": program.name,
        "main": program.main_name,
        "functions": [
            {
                "name": function.name,
                "entry": function.entry_label,
                "blocks": [
                    {
                        "label": block.label,
                        "ops": [
                            [
                                op.opcode.value,
                                op.dest.name if op.dest is not None else None,
                                [_operand_key(s) for s in op.srcs],
                                op.offset,
                                list(op.targets),
                            ]
                            for op in block.operations
                        ],
                    }
                    for block in function.blocks
                ],
            }
            for function in program
        ],
        "registers": sorted(program.initial_registers.items()),
        "memory": sorted(program.initial_memory.items()),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
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
