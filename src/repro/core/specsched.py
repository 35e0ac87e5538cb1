"""Scheduling of speculation-transformed blocks.

The transformed dependence graph goes through the *same* list scheduler
as ordinary code; this module adds the two pieces of static information
the run-time engines need beyond issue cycles:

* per-VLIW-instruction **wait masks** — the union of Synchronization-
  register bits the non-speculative operations of that instruction wait
  on (the paper encodes these with the instruction word);
* per-speculated-op **operand sources** for the Compensation Code Buffer
  — whether each operand value arrives shipped-along, from an ``LdPred``
  prediction, or from an earlier speculated operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.ir.operation import Imm
from repro.core.ccb import OperandSource, SourceKind
from repro.core.isa_ext import OpForm

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.operation import Operation, Reg
    from repro.machine.description import MachineDescription
    from repro.sched.schedule import Schedule
    from repro.core.isa_ext import SpeculativeBlock


@dataclass
class SpeculativeSchedule:
    """A scheduled speculative block plus its run-time annotations."""

    spec: SpeculativeBlock
    schedule: Schedule
    original_length: int
    wait_bits_by_cycle: Dict[int, FrozenSet[int]]
    cc_sources: Dict[int, Tuple[OperandSource, ...]]

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def length(self) -> int:
        """Best-case (all predictions correct) schedule length."""
        return self.schedule.length

    @property
    def improvement(self) -> int:
        """Cycles saved over the unspeculated schedule in the best case."""
        return self.original_length - self.length

    def __repr__(self) -> str:
        return (
            f"<SpeculativeSchedule {self.label}: {self.original_length} -> "
            f"{self.length} cycles, {self.spec.num_predictions} predictions>"
        )


def compute_cc_sources(
    spec: SpeculativeBlock,
) -> Dict[int, Tuple[OperandSource, ...]]:
    """Operand sources for each speculated op, from static def-use chains."""
    sources: Dict[int, Tuple[OperandSource, ...]] = {}
    last_def: Dict[Reg, Operation] = {}
    for op in spec.operations:
        form = spec.info[op.op_id].form
        if form is OpForm.SPECULATIVE:
            row = []
            for operand in op.srcs:
                if isinstance(operand, Imm):
                    row.append(OperandSource(SourceKind.SHIPPED))
                    continue
                producer = last_def.get(operand)
                if producer is None:
                    row.append(OperandSource(SourceKind.SHIPPED))
                    continue
                producer_form = spec.info[producer.op_id].form
                if producer_form is OpForm.LDPRED:
                    row.append(
                        OperandSource(SourceKind.PREDICTED, producer.op_id)
                    )
                elif producer_form is OpForm.CHECK:
                    # A consumer placed after the check in program order
                    # still consumed the *prediction* at run time; the
                    # value record lives under the LdPred's id and
                    # resolves at check completion.
                    row.append(
                        OperandSource(
                            SourceKind.PREDICTED,
                            spec.info[producer.op_id].verifies,
                        )
                    )
                elif producer_form is OpForm.SPECULATIVE:
                    row.append(
                        OperandSource(SourceKind.SPECULATED, producer.op_id)
                    )
                else:
                    row.append(OperandSource(SourceKind.SHIPPED))
            sources[op.op_id] = tuple(row)
        for reg in op.defs():
            last_def[reg] = op
    return sources


def schedule_speculative(
    spec: SpeculativeBlock,
    machine: MachineDescription,
    original_length: Optional[int] = None,
    priority: str = "height",
    analysis=None,
) -> SpeculativeSchedule:
    """List-schedule a transformed block and attach run-time annotations.

    ``analysis`` optionally supplies a precomputed critical-path
    analysis of ``spec.graph`` (see ``ListScheduler.schedule_graph``).
    """
    from repro.sched.list_scheduler import ListScheduler

    scheduler = ListScheduler(machine, priority=priority)
    if original_length is None:
        original_length = scheduler.schedule_block(spec.original).length
    schedule = scheduler.schedule_graph(spec.label, spec.graph, analysis=analysis)

    wait_bits: Dict[int, set] = {}
    for placed in schedule.operations:
        info = spec.info[placed.operation.op_id]
        # Non-speculative ops wait for verified operands; checks with
        # tainted address chains wait for verified addresses.
        if info.form in (OpForm.NONSPEC, OpForm.CHECK) and info.wait_bits:
            wait_bits.setdefault(placed.cycle, set()).update(info.wait_bits)

    return SpeculativeSchedule(
        spec=spec,
        schedule=schedule,
        original_length=original_length,
        wait_bits_by_cycle={c: frozenset(b) for c, b in wait_bits.items()},
        cc_sources=compute_cc_sources(spec),
    )
