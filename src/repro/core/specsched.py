"""Scheduling of speculation-transformed blocks.

The transformed dependence graph goes through the *same* list scheduler
as ordinary code; this module repairs the schedule's Compensation Code
Buffer entry order where it could deadlock (:func:`ccb_order_conflicts`)
and adds the two pieces of static information the run-time engines need
beyond issue cycles:

* per-VLIW-instruction **wait masks** — the union of Synchronization-
  register bits the non-speculative operations of that instruction wait
  on (the paper encodes these with the instruction word);
* per-speculated-op **operand sources** for the Compensation Code Buffer
  — whether each operand value arrives shipped-along, from an ``LdPred``
  prediction, or from an earlier speculated operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.ddg.graph import DepEdge, DepKind, DependenceGraph
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
    #: Pairs ``(x, y)`` the scheduler ordered so that ``y`` enters the
    #: CCB after ``x`` (see :func:`ccb_order_conflicts`); empty when the
    #: plain list schedule could not deadlock.
    ccb_order_edges: Tuple[Tuple[int, int], ...] = ()

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


def ccb_order_conflicts(
    spec: SpeculativeBlock, schedule: Schedule
) -> List[Tuple[int, int]]:
    """Pairs ``(x, y)`` of speculated ops whose CCB order can deadlock.

    The Compensation Code Buffer is a FIFO that the VLIW Engine fills in
    issue order (op-id order within an instruction).  An instruction at
    cycle ``c`` waiting on the bit of a speculated op ``x`` needs, when
    an origin of ``x`` is mispredicted, every entry up to ``x`` processed
    first; an entry ``y`` ahead of ``x`` is processed only once all of
    its origin predictions are checked, i.e. by checks issued before
    ``c``.  A ``y`` with an origin checked at ``c`` or later stalls the
    engine for good.  The transform orders every check before the
    waiting ops *after* it in program order, so such an origin follows
    the waiting op, and so does ``y``: issuing ``y`` after ``x`` is the
    forward repair.
    """
    if len(spec.ldpred_ids) < 2:
        return []  # ``x``'s own origins are checked before the wait
    cycle_of = {placed.operation.op_id: placed.cycle for placed in schedule.operations}
    entries = sorted(
        (cycle_of[op_id], op_id)
        for op_id, info in spec.info.items()
        if info.form is OpForm.SPECULATIVE
    )
    if not entries:
        return []
    check_of = spec.check_of
    # Per CCB position: the owner of each entry's bit, and the cycle by
    # which all of the entry's origins are checked.
    rank_of_bit = {}
    verified_by = []
    for rank, (_, op_id) in enumerate(entries):
        info = spec.info[op_id]
        rank_of_bit[info.sync_bit] = rank
        verified_by.append(max(cycle_of[check_of[o]] for o in info.origins))
    conflicts = []
    for op_id, info in spec.info.items():
        if not info.wait_bits or info.form not in (OpForm.NONSPEC, OpForm.CHECK):
            continue
        cycle = cycle_of[op_id]
        for bit in info.wait_bits:
            rank = rank_of_bit.get(bit)
            if rank is None:
                continue  # an LdPred bit: its check already precedes
            x = entries[rank][1]
            for ahead in range(rank):
                if verified_by[ahead] >= cycle:
                    conflicts.append((x, entries[ahead][1]))
    return conflicts


def _with_ccb_order_edges(
    graph: DependenceGraph, conflicts: List[Tuple[int, int]]
) -> DependenceGraph:
    """A copy of ``graph`` that issues each conflict's ``y`` after its ``x``.

    The edges are SYNC edges of weight 0 when op-id order already puts
    ``x`` first within an instruction, else 1.  ``graph`` is left as it
    is: it may be a shared transform product.
    """
    operations = graph.operations
    preds = {op.op_id: list(graph.pred_edges(op.op_id)) for op in operations}
    succs = {op.op_id: list(graph.succ_edges(op.op_id)) for op in operations}
    for x, y in dict.fromkeys(conflicts):
        edge = DepEdge(x, y, DepKind.SYNC, 0 if x < y else 1)
        succs[x].append(edge)
        preds[y].append(edge)
    return DependenceGraph.from_edge_lists(operations, preds, succs)


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
    from repro.ddg.critical_path import analyze
    from repro.sched.list_scheduler import ListScheduler

    scheduler = ListScheduler(machine, priority=priority)
    if original_length is None:
        original_length = scheduler.schedule_block(spec.original).length
    if analysis is None:
        analysis = analyze(spec.graph, machine)
    schedule = scheduler.schedule_graph(spec.label, spec.graph, analysis=analysis)
    # Repair CCB entry order until no instruction can stall behind an
    # unverifiable entry.  Every repair edge runs forward in program
    # order, so the graph stays acyclic, and a satisfied edge keeps its
    # pair ordered, so the loop ends within one round per pair.  The
    # reschedules keep the transform graph's priorities.
    graph = spec.graph
    ordered: Dict[Tuple[int, int], None] = {}
    conflicts = ccb_order_conflicts(spec, schedule)
    while conflicts:
        graph = _with_ccb_order_edges(graph, conflicts)
        ordered.update(dict.fromkeys(conflicts))
        schedule = scheduler.schedule_graph(spec.label, graph, analysis=analysis)
        conflicts = ccb_order_conflicts(spec, schedule)

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
        ccb_order_edges=tuple(ordered),
    )
