"""Scheduling of speculation-transformed blocks.

The transformed dependence graph goes through the *same* list scheduler
as ordinary code; this module repairs the schedule's Compensation Code
Buffer entry order where it could deadlock (:func:`ccb_order_conflicts`),
proves the result safe without simulating it (:func:`check_schedule`)
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
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple,
)

from repro.ddg.graph import DepEdge, DepKind, DependenceGraph
from repro.ir.operation import Imm
from repro.core.ccb import CCBFull, OperandSource, SourceKind, cce_runs_before_issue
from repro.core.isa_ext import OpForm
from repro.core.ovb import OVBFull

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
    analysis=None,
    schedule: Optional[Schedule] = None,
) -> SpeculativeSchedule:
    """List-schedule a transformed block and attach run-time annotations.

    ``analysis`` optionally supplies a precomputed critical-path
    analysis of ``spec.graph`` (see ``ListScheduler.schedule_graph``),
    and ``schedule`` the plain list schedule of ``spec.graph`` that
    analysis gives, which the repair then starts from.
    """
    from repro.ddg.critical_path import analyze
    from repro.sched.list_scheduler import ListScheduler

    scheduler = ListScheduler(machine)
    if original_length is None:
        original_length = scheduler.schedule_block(spec.original).length
    if analysis is None:
        analysis = analyze(spec.graph, machine)
    if schedule is None:
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
    return annotate(spec, schedule, original_length, tuple(ordered))


def annotate(
    spec: SpeculativeBlock,
    schedule: Schedule,
    original_length: int,
    ccb_order_edges: Tuple[Tuple[int, int], ...] = (),
) -> SpeculativeSchedule:
    """``schedule`` with the wait masks and CCB operand sources the
    engines read.  Nothing is checked: :func:`check_schedule` tells
    whether the result is safe to run."""
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
        ccb_order_edges=ccb_order_edges,
    )


# ---------------------------------------------------------------------------
# static safety (paper section 2.1)


class ScheduleCheck(NamedTuple):
    """What :func:`check_schedule` found in one speculative schedule."""

    #: The first broken safety condition in issue order, ``None`` when
    #: the schedule runs to completion under every outcome pattern.
    violation: Optional[str]
    #: Peak CCB occupancy, counted as each instruction's speculated ops
    #: enter: the entries that may not leave the FIFO yet (an entry may
    #: once its origins, and those of every entry ahead, are checked).
    ccb_occupancy: int


def _guarded_inputs(spec: SpeculativeBlock) -> Dict[int, FrozenSet[int]]:
    """Per op that must see verified operands (every form but LdPred and
    speculative), the producers whose Synchronization bits guard them.

    A register holds an unverified value from a speculated op, or from
    an ``LdPred``, until a non-speculative op redefines it.  The check
    that follows each ``LdPred`` rewrites its register with the value
    under the ``LdPred``'s bit, so the ``LdPred`` guards that value and
    its own definition is skipped: the check reads its address operands
    as the original load did.
    """
    guarded: Dict[int, FrozenSet[int]] = {}
    holder: Dict[Reg, int] = {}
    for op in spec.operations:
        info = spec.info[op.op_id]
        form = info.form
        if form is OpForm.LDPRED:
            continue
        if form is not OpForm.SPECULATIVE:
            producers = frozenset(holder[r] for r in op.uses() if r in holder)
            if producers:
                guarded[op.op_id] = producers
        for reg in op.defs():
            if form is OpForm.CHECK:
                holder[reg] = info.verifies
            elif form is OpForm.SPECULATIVE:
                holder[reg] = op.op_id
            else:
                holder.pop(reg, None)
    return guarded


def check_schedule(spec_schedule: SpeculativeSchedule) -> ScheduleCheck:
    """Prove ``spec_schedule`` safe without simulating it.

    Walks the VLIW instructions in issue order and tests the paper's
    section 2.1 conditions at each:

    * every non-speculative op and every check waits on the
      Synchronization bits of all its speculated inputs
      (:func:`_guarded_inputs`);
    * no bit is reassigned while its earlier owner is unverified (its
      clear could still come) or an op that waits on that owner has yet
      to issue;
    * every bit an instruction waits on is clear by then when *every*
      prediction fails: an ``LdPred`` bit once its check has issued, a
      speculated op's bit once the Compensation Code Engine has
      re-executed it, i.e. once the origins of its CCB entry and of
      every entry ahead of it in the FIFO are checked (an entry ahead
      that is not is a :func:`ccb_order_conflicts` pair);
    * the CCB and OVB occupancy fit the machine's ``ccb_capacity`` and
      ``ovb_capacity``.

    All-wrong is the worst outcome pattern: the CC engine processes an
    entry once its origins are checked, right or wrong, and a right
    prediction only lets a check clear bits earlier.  Occupancy does not
    depend on outcomes at all: a CCB slot frees once the entry's origins
    are checked, and OVB records are never removed.  So a schedule this
    accepts runs every pattern without :class:`SimulationDeadlock`, and
    one it rejects for a stuck bit deadlocks the all-wrong pattern: the
    tests hold the checker to simulating every pattern with
    :mod:`repro.core.machine_sim`.  The first two conditions the timing
    engines cannot see; they only ever reject.

    Raises :class:`CCBFull` or :class:`OVBFull`, with the engines'
    message, when a buffer overflows before any violation: where and as
    simulating the all-wrong pattern would.
    """
    spec = spec_schedule.spec
    info = spec.info
    machine = spec_schedule.schedule.machine
    ccb_capacity = machine.ccb_capacity
    ovb_capacity = machine.ovb_capacity
    instructions = spec_schedule.schedule.instructions()
    guarded = _guarded_inputs(spec)
    last_wait: Dict[int, int] = {}  # producer -> last cycle an op waits on it
    for instr in instructions:
        for slot in instr.slots:
            for producer in guarded.get(slot.operation.op_id, ()):
                last_wait[producer] = instr.cycle

    violation: Optional[str] = None
    checked: Set[int] = set()  # LdPreds whose check has issued
    pending: Set[int] = set()  # bits set and not cleared (all-wrong)
    holder: Dict[int, int] = {}  # bit -> the producer that set it last
    fifo: List[int] = []  # CCB entries in insertion order
    ready = 0  # FIFO prefix whose origins are all checked
    processed = 0  # FIFO prefix the CC engine has re-executed
    ccb_peak = ovb_records = 0
    for instr in instructions:
        cycle = instr.cycle
        wait = spec_schedule.wait_bits_by_cycle.get(cycle, frozenset())
        entering = [
            slot.operation.op_id
            for slot in instr.slots
            if info[slot.operation.op_id].form is OpForm.SPECULATIVE
        ]
        while ready < len(fifo) and info[fifo[ready]].origins <= checked:
            ready += 1
        if cce_runs_before_issue(bool(wait), bool(entering), ccb_capacity):
            for op_id in fifo[processed:ready]:
                pending.discard(info[op_id].sync_bit)
            processed = ready
        if violation is None:
            violation = _unguarded(instr, wait, guarded, info) or _stuck(
                cycle, wait, pending, holder, checked, fifo, ready, info
            )
        if entering:
            occupancy = len(fifo) + len(entering) - ready
            ccb_peak = max(ccb_peak, occupancy)
            if violation is None and ccb_capacity is not None:
                if occupancy > ccb_capacity:
                    raise CCBFull.never_admits(spec.label, ccb_capacity, entering[0])
        for slot in instr.slots:
            op_id = slot.operation.op_id
            op_info = info[op_id]
            if op_info.form is OpForm.CHECK:
                checked.add(op_info.verifies)
                pending.discard(info[op_info.verifies].sync_bit)
            elif op_info.sync_bit is not None:
                bit = op_info.sync_bit
                previous = holder.get(bit)
                if violation is None and previous is not None:
                    violation = _reassigned(
                        cycle, op_id, bit, previous, bit in pending, last_wait
                    )
                holder[bit] = op_id
                pending.add(bit)
                ovb_records += 1
                if violation is None and ovb_capacity is not None:
                    if ovb_records > ovb_capacity:
                        raise OVBFull.exceeded(ovb_capacity, op_id)
                if op_info.form is OpForm.SPECULATIVE:
                    fifo.append(op_id)
    while ready < len(fifo) and info[fifo[ready]].origins <= checked:
        ready += 1
    if violation is None and ready < len(fifo):
        violation = f"CCB entry op{fifo[ready]} has an origin no check verifies"
    return ScheduleCheck(violation, ccb_peak)


def _unguarded(instr, wait, guarded, info) -> Optional[str]:
    """An op of ``instr`` whose wait mask misses a guarding bit."""
    for slot in instr.slots:
        op_id = slot.operation.op_id
        missing = {info[p].sync_bit for p in guarded.get(op_id, ())} - wait
        if missing:
            return (
                f"cycle {instr.cycle}: op{op_id} does not wait on bits "
                f"{sorted(missing)} of its speculated inputs"
            )
    return None


def _reassigned(cycle, op_id, bit, previous, unverified, last_wait) -> Optional[str]:
    """Why op ``op_id`` may not take over ``previous``'s bit, if it may not."""
    if unverified:
        why = f"op{previous} is unverified"
    elif last_wait.get(previous, -1) > cycle:
        why = f"an op waiting on op{previous} has yet to issue"
    else:
        return None
    return f"cycle {cycle}: op{op_id} reassigns bit {bit} while {why}"


def _stuck(cycle, wait, pending, holder, checked, fifo, ready, info) -> Optional[str]:
    """A bit the instruction at ``cycle`` would wait on forever when
    every prediction fails; ``fifo[ready]`` is the first CCB entry with
    an unchecked origin."""
    for bit in sorted(wait & pending):
        producer = holder[bit]
        unchecked = info[producer].origins - checked
        if unchecked:
            return (
                f"cycle {cycle}: waits on bit {bit} of op{producer} before "
                f"the checks of LdPred ops {sorted(unchecked)} issue"
            )
        return (
            f"cycle {cycle}: waits on bit {bit} of op{producer} behind CCB "
            f"entry op{fifo[ready]}, whose origins are not all checked"
        )
    return None
