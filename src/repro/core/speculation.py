"""The value-speculation compiler pass (paper sections 2.1 and 3).

Given a basic block, a machine description and a value profile, the pass

1. selects loads to predict — loads on the block's longest critical path
   whose profiled prediction rate meets the threshold (65% in the paper),
   accepted greedily while the speculative schedule keeps improving;
2. rewrites the block: each predicted load becomes a ``LdPred`` (which
   reads the value predictor) plus a check-prediction op (which
   re-executes the load and compares); consumers of predicted values are
   classified speculative or non-speculative;
3. assigns Synchronization-register bits to every predicted value and
   wait bits to every non-speculative operation;
4. rewires the dependence graph so the standard list scheduler produces
   the speculative schedule.

Classification policy (the compiler freedom the paper leaves open, cf.
its example where operations 10 and 11 stay non-speculative):

* stores and branches are never speculated (their effects cannot be
  undone by the Compensation Code Engine);
* loads with tainted operands are not speculated (a speculative load from
  a mispredicted address could fault; it waits for verification instead);
* operations defining registers that are live out of the block are kept
  non-speculative by default, so the architectural state handed to
  successor blocks is always verified (``speculate_liveout`` relaxes
  this);
* everything else that consumes a predicted value is speculated.

One constraint the paper leaves implicit is made explicit here: every
check-prediction op must be scheduled strictly before any instruction
that can stall on Synchronization bits.  Otherwise an in-order VLIW
engine stalled on a bit whose clearing transitively requires a
*not-yet-issued* check would deadlock (the Compensation Code Buffer is a
FIFO, so an unresolved earlier entry blocks recovery of later ones).
The pass encodes this as weight-1 SYNC edges from every check to every
waiting non-speculative op.

The LdPred and check of predicted op *k* are ops ``B + 2k`` and
``B + 2k + 1``, with ``B`` one past the program's highest id (a lone
block's by default), so LdPred ids are unique across blocks and every
compile of a program numbers alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core import compile_cache

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.block import BasicBlock
    from repro.ir.operation import Operation, Reg
    from repro.machine.description import MachineDescription
    from repro.profiling.value_profile import ValueProfile
    from repro.core.isa_ext import SpeculativeBlock


#: Dependence graphs and critical-path analyses depend on the machine
#: only through its latency table, so the memos live in
#: :mod:`repro.core.compile_cache` keyed on the latency fingerprint and
#: are shared across resource (issue width / FU count) variants.
_shared_ddg = compile_cache.shared_ddg
_shared_analysis = compile_cache.shared_analysis


def _shared_transform(
    block: BasicBlock,
    machine: MachineDescription,
    predicted_loads: Sequence[Operation],
    live_out: FrozenSet[Reg],
    config: "SpeculationConfig",
    id_base: Optional[int],
) -> SpeculativeBlock:
    """Memoised :func:`transform_block`.

    The rewrite depends on the *ordered* prediction set (Sync bits are
    allocated in that order), the id base, the live-out set and the two
    config knobs the transform reads (``sync_width``, ``speculate_liveout``) —
    thresholds and profile filters affect only *selection*, so sweeps
    over them share every trial transform.  Of the machine it reads only
    the latency table (LdPred/check latencies enter the rewired edge
    weights) and ``sync_width``, so resource variants share transforms
    too; the resource-dependent *schedules* of a shared transform are
    keyed on the machine's timing key.
    """
    key = (
        "xform",
        id_base,
        compile_cache.latency_fingerprint(machine),
        machine.sync_width,
        tuple(op.op_id for op in predicted_loads),
        live_out,
        config.sync_width,
        config.speculate_liveout,
    )
    return compile_cache.cached(
        block,
        key,
        lambda: transform_block(
            block, machine, predicted_loads, live_out, config, id_base
        ),
    )


@dataclass(frozen=True)
class SpeculationConfig:
    """Tunables of the speculation pass.

    Attributes:
        threshold: minimum profiled prediction rate for a load to be a
            candidate (the paper uses 0.65).
        max_predictions: cap on predicted loads per block.
        sync_width: Synchronization-register width in bits; speculated
            ops beyond the width are demoted to non-speculative.
        min_profile_executions: loads profiled fewer times than this are
            not predicted (their rate estimate is meaningless).
        speculate_liveout: allow speculating ops whose results are live
            out of the block.
        predict_alu: also consider long-latency ALU results (mul/div/...)
            as prediction candidates — the paper's general formulation
            ("an operation ... may have its destination operand
            predicted").  Requires a profile gathered with
            ``profile_program(..., profile_alu=True)``.
    """

    threshold: float = 0.65
    max_predictions: int = 4
    sync_width: int = 64
    min_profile_executions: int = 4
    speculate_liveout: bool = False
    predict_alu: bool = False


def _predictable(op: Operation) -> bool:
    """Can this operation's destination value be predicted?

    Loads always; otherwise any pure value-producing ALU op (the paper's
    general formulation).  Stores and branches have no destination value.
    """
    from repro.ir.opcodes import is_alu

    return op.is_load or (is_alu(op.opcode) and op.dest is not None)


class _TransformKit:
    """Static facts of one block's original dependence graph, read by
    every trial transform of the block (memoised per latency table).

    The shared dependence graph itself (its flow cones), and per op id:
    the flow predecessor ids, the original pred and succ edge lists
    (tuples, shared by every trial graph in which the op gains no edge)
    and its ``PLAIN`` annotation (frozen, so shared by every trial that
    leaves the op plain); plus program positions, the op-by-id map, the
    membership set of the block's operation objects and the ops that are
    never speculated.
    """

    __slots__ = (
        "graph", "position", "op_by_id", "members", "flow_preds",
        "preds", "succs", "plain", "unspeculable",
    )

    def __init__(self, block: BasicBlock, graph) -> None:
        from repro.core.isa_ext import OpForm, SpecOpInfo

        ops = block.operations
        self.graph = graph
        self.plain = {op.op_id: SpecOpInfo(form=OpForm.PLAIN) for op in ops}
        # Stores and branches are never speculated, nor loads (a tainted
        # address could fault): tainted, they wait for verification.
        self.unspeculable = frozenset(
            op.op_id for op in ops if op.has_side_effect or op.is_load
        )
        self.position = {op.op_id: i for i, op in enumerate(ops)}
        self.op_by_id = {op.op_id: op for op in ops}
        self.members = frozenset(id(op) for op in ops)
        self.preds = {op.op_id: tuple(graph.pred_edges(op.op_id)) for op in ops}
        self.succs = {op.op_id: tuple(graph.succ_edges(op.op_id)) for op in ops}
        self.flow_preds = {
            op.op_id: tuple(graph.flow_predecessors(op.op_id)) for op in ops
        }


def _transform_kit(block: BasicBlock, machine: MachineDescription) -> _TransformKit:
    return compile_cache.cached(
        block,
        ("xkit", compile_cache.latency_fingerprint(machine)),
        lambda: _TransformKit(block, _shared_ddg(block, machine)),
    )


def transform_block(
    block: BasicBlock,
    machine: MachineDescription,
    predicted_loads: Sequence[Operation],
    live_out: FrozenSet[Reg] = frozenset(),
    config: Optional[SpeculationConfig] = None,
    id_base: Optional[int] = None,
) -> SpeculativeBlock:
    """Rewrite ``block`` predicting exactly ``predicted_loads``.

    The predicted operations must be ``block``'s own objects (not equal
    ids from another build) and be loads or pure value-producing ALU
    ops; ``id_base`` is ``B`` of the module docstring.  Selection policy
    lives in :func:`speculate_block`; this function is the mechanical
    rewrite and is exposed separately so tests and the worked paper
    example can force specific prediction sets.

    A trial costs what it changes: only the flow cone of the predicted
    ops can be tainted (every other op stays ``PLAIN``), and edges
    between two original ops carry over verbatim; only edges touching a
    LdPred or check are built, deduplicated to the strongest weight per
    ``(src, dst, kind)``.  The per-node edge *order* differs from an
    ``add_edge`` rebuild, which nothing reads: the scheduler and the
    critical-path analysis take maxima and counts over edges.
    """
    from bisect import bisect_right

    from repro.ddg.graph import DepEdge, DepKind, DependenceGraph
    from repro.ir.opcodes import Opcode
    from repro.ir.operation import Operation
    from repro.core.isa_ext import OpForm, SpecOpInfo, SpeculativeBlock
    from repro.core.sync_register import SyncBitAllocator, SyncRegisterOverflow

    config = config or SpeculationConfig()
    if id_base is None:
        id_base = max((op.op_id for op in block.operations), default=0) + 1
    kit = _transform_kit(block, machine)
    for op in predicted_loads:
        if id(op) not in kit.members:
            raise ValueError(f"{op} is not an operation of block {block.label!r}")
        if not _predictable(op):
            raise ValueError(
                f"only loads and pure value-producing ops can be predicted, got {op}"
            )
    position = kit.position

    # -- create LdPred and check ops -------------------------------------
    # The check form re-executes the predicted operation and compares:
    # for a load that is the dedicated CHKPRED (memory unit + compare,
    # paper section 3); for an ALU op it is simply the operation itself,
    # re-issued on its own functional unit with compare semantics.
    ldpred_for: Dict[int, Operation] = {}
    check_for: Dict[int, Operation] = {}
    for op in predicted_loads:
        ldpred_id = id_base + 2 * op.op_id
        ldpred_for[op.op_id] = Operation(opcode=Opcode.LDPRED, dest=op.dest, op_id=ldpred_id)
        check_for[op.op_id] = Operation(
            opcode=Opcode.CHKPRED if op.is_load else op.opcode,
            dest=op.dest,
            srcs=op.srcs,
            offset=op.offset,
            op_id=ldpred_id + 1,
        )
    load_of_ldpred = {
        ldpred.op_id: load_id for load_id, ldpred in ldpred_for.items()
    }

    # -- classify the flow cone of the predictions ------------------------
    # The pass cannot use more sync bits than the machine physically has,
    # whatever the pass config asks for (registry machines declare 64,
    # matching the config default, so paper schedules are unchanged).
    allocator = SyncBitAllocator(
        width=min(config.sync_width, machine.sync_width)
    )
    info: Dict[int, SpecOpInfo] = {}
    for load in predicted_loads:
        ldpred = ldpred_for[load.op_id]
        bit = allocator.allocate(ldpred.op_id)
        info[ldpred.op_id] = SpecOpInfo(
            form=OpForm.LDPRED, origins=frozenset({ldpred.op_id}), sync_bit=bit
        )

    # Taint flows only along flow edges, from a prediction or from a
    # speculated op (itself tainted), so ops outside the flow cone of the
    # predicted ops stay PLAIN.  The cone is classified in program order,
    # which is also the order Sync bits are allocated in.
    flow_preds = kit.flow_preds
    cone = kit.graph.flow_reachable_from(list(ldpred_for))
    cone.update(ldpred_for)
    # Keyed by *original* op id (a predicted op's entry is its check's).
    classified: Dict[int, SpecOpInfo] = {}
    op_by_id = kit.op_by_id
    unspeculable = kit.unspeculable
    pinned_live_out = frozenset() if config.speculate_liveout else live_out
    for op_id in sorted(cone, key=position.__getitem__):
        # The origins reaching the op through its operand producers, and
        # the bits of the most recent predicted producers of the operands.
        taint: Set[int] = set()
        bits: Set[int] = set()
        for pred_id in flow_preds[op_id]:
            if pred_id in ldpred_for:
                ldpred_id = ldpred_for[pred_id].op_id
                taint.add(ldpred_id)
                bits.add(info[ldpred_id].sync_bit)
            else:
                pred_info = classified.get(pred_id)
                if pred_info is not None and pred_info.form is OpForm.SPECULATIVE:
                    taint.update(pred_info.origins)
                    bits.add(pred_info.sync_bit)
        if op_id in ldpred_for:
            # The check form inherits the load's operand (address)
            # dependences.  A tainted address means the *check* must wait
            # for verification — this is what permits predicting chained
            # loads (vortex-style multi-level indirection), where the
            # address of one predicted load derives from the value of
            # another.  The LdPred itself needs nothing: the predicted
            # value is independent of the address computation, so
            # consumers of the prediction are tainted only by this
            # load's own LdPred, never by the address chain.
            classified[op_id] = SpecOpInfo(
                form=OpForm.CHECK,
                origins=frozenset(taint),
                wait_bits=frozenset(bits),
                verifies=ldpred_for[op_id].op_id,
            )
            continue
        if not taint:
            continue  # PLAIN after all
        if op_id not in unspeculable and op_by_id[op_id].dest not in pinned_live_out:
            try:
                bit = allocator.allocate(op_id)
            except SyncRegisterOverflow:
                pass  # graceful demotion
            else:
                classified[op_id] = SpecOpInfo(
                    form=OpForm.SPECULATIVE, origins=frozenset(taint), sync_bit=bit
                )
                continue
        classified[op_id] = SpecOpInfo(
            form=OpForm.NONSPEC, origins=frozenset(taint), wait_bits=frozenset(bits)
        )

    # -- transformed operation list and carried-over edges -------------------
    # Each LdPred sits immediately before its check (at the original
    # load's position).  This keeps the operation list topologically
    # ordered even when the load's destination register has earlier
    # definitions or uses (whose anti/output edges also constrain the
    # LdPred); the scheduler is constrained only by edges, so the early
    # issue of LdPred is unaffected.  Edges between two original ops
    # carry over as they are: an op sharing no edge with a predicted op
    # keeps the kit's edge tuples, the others drop their predicted-op edges.
    operations: List[Operation] = []
    plain = kit.plain
    for op in block.operations:
        op_id = op.op_id
        if op_id in ldpred_for:
            ldpred, check = ldpred_for[op_id], check_for[op_id]
            operations.append(ldpred)
            operations.append(check)
            info[check.op_id] = classified[op_id]
        else:
            operations.append(op)
            info[op_id] = classified.get(op_id) or plain[op_id]
    preds: Dict[int, Sequence[DepEdge]] = dict(kit.preds)
    succs: Dict[int, Sequence[DepEdge]] = dict(kit.succs)
    touched: Set[int] = set()
    for load_id in ldpred_for:
        touched.update(e.src for e in preds.pop(load_id))
        touched.update(e.dst for e in succs.pop(load_id))
    for op_id in touched - ldpred_for.keys():
        preds[op_id] = [e for e in preds[op_id] if e.src not in ldpred_for]
        succs[op_id] = [e for e in succs[op_id] if e.dst not in ldpred_for]
    for ldpred_id in load_of_ldpred:
        preds[ldpred_id] = []
        succs[ldpred_id] = []
        preds[ldpred_id + 1] = []
        succs[ldpred_id + 1] = []

    # -- rewire the edges touching a LdPred or check -------------------------
    # Keyed (src, dst, kind) -> weight: only the strongest constraint
    # between a pair for a kind is kept, as DependenceGraph.add_edge does.
    # No such edge can duplicate a carried-over one (those join two
    # original ops).  A LdPred's check is the next id (module docstring),
    # so ``origin + 1`` is the check verifying LdPred ``origin``.
    added: Dict[tuple, int] = {}

    def add(src: int, dst: int, kind: DepKind, weight: int) -> None:
        key = (src, dst, kind)
        if added.get(key, -1) < weight:
            added[key] = weight

    def node(op_id: int) -> int:
        """Id of the transformed node standing for original op ``op_id``."""
        return check_for[op_id].op_id if op_id in check_for else op_id

    check_latency = {
        load_id: machine.latency(check.opcode) for load_id, check in check_for.items()
    }
    flow, sync = DepKind.FLOW, DepKind.SYNC
    reg_orders = (DepKind.ANTI, DepKind.OUTPUT)
    terminator = block.terminator
    for load in predicted_loads:
        ldpred_id = ldpred_for[load.op_id].op_id
        check_id = ldpred_id + 1
        # LdPred writes the destination before the check (re)writes it.
        add(ldpred_id, check_id, DepKind.OUTPUT, 1)
        if terminator is not None:
            add(ldpred_id, node(terminator.op_id), DepKind.CONTROL, 0)
        for edge in kit.preds[load.op_id]:
            src = node(edge.src)
            # The check inherits all of the load's constraints.  When the
            # producer is itself a predicted load, node() maps it to its
            # check, so the address comes from the *verified* value.
            weight = edge.weight
            if edge.kind is flow and edge.src in check_for:
                weight = check_latency[edge.src]
            add(src, check_id, edge.kind, weight)
            # Writes of the destination register also constrain LdPred.
            if edge.kind in reg_orders:
                add(src, ldpred_id, edge.kind, edge.weight)
        # A check with tainted address operands must also wait for the
        # verification of every origin prediction (best-case timing: the
        # origin checks' completions).
        for origin in info[check_id].origins:
            origin_load = load_of_ldpred[origin]
            if origin + 1 != check_id:
                add(origin + 1, check_id, sync, check_latency[origin_load])
        # Consumers of the prediction: speculated ones read the LdPred,
        # the rest the verified value of the check.
        for edge in kit.succs[load.op_id]:
            dst = edge.dst
            if dst in check_for:
                continue  # drawn above, as the successor's own constraint
            if edge.kind is flow:
                if info[dst].form is OpForm.SPECULATIVE:
                    add(ldpred_id, dst, flow, machine.latency(Opcode.LDPRED))
                else:
                    add(check_id, dst, flow, check_latency[load.op_id])
            else:
                add(check_id, dst, edge.kind, edge.weight)
                if edge.kind in reg_orders:
                    add(ldpred_id, dst, edge.kind, edge.weight)

    # Non-speculative ops wait for verification: in the all-correct case
    # their wait bits clear when the relevant checks complete.
    waiting_nonspec: List[int] = []
    for op_id, op_info in classified.items():
        if op_id in check_for or op_info.form is not OpForm.NONSPEC:
            continue
        for origin in op_info.origins:
            add(origin + 1, op_id, sync, check_latency[load_of_ldpred[origin]])
        if op_info.wait_bits:
            waiting_nonspec.append(op_id)

    # Deadlock avoidance (see module docstring): every check issues
    # strictly before any instruction that can stall on sync bits.
    # Checks with tainted addresses are themselves stall-capable; they
    # are chained among each other in program order (acyclic, since an
    # address can only derive from an earlier load's value), and receive
    # ordering edges from all non-waiting checks.
    #
    # Ordering edges must only run *forward* in program order — a
    # backward edge could close a cycle through the value chain feeding a
    # later check's address.  What they leave open, a speculated consumer
    # of a later prediction entering the CCB ahead of an op a waiting
    # instruction needs, is repaired by schedule_speculative.
    # Both waiting lists are position-sorted (``classified`` is in
    # program order), so each check's targets are a suffix of each.
    waiting_checks = [
        check_for[op_id].op_id
        for op_id, op_info in classified.items()
        if op_id in check_for and op_info.wait_bits
    ]
    nonspec_positions = [position[op_id] for op_id in waiting_nonspec]
    check_positions = [position[load_of_ldpred[c - 1]] for c in waiting_checks]
    for load in predicted_loads:
        check_id = check_for[load.op_id].op_id
        here = position[load.op_id]
        for op_id in waiting_nonspec[bisect_right(nonspec_positions, here):]:
            add(check_id, op_id, sync, 1)
        if not info[check_id].wait_bits:
            for waiting in waiting_checks[bisect_right(check_positions, here):]:
                add(check_id, waiting, sync, 1)
    for earlier, later in zip(waiting_checks, waiting_checks[1:]):
        add(earlier, later, sync, 1)

    # Untouched ops share the kit's edge tuples; an op gaining an edge
    # gets a list of its own.
    for (src, dst, kind), weight in added.items():
        edge = DepEdge(src, dst, kind, weight)
        for table, op_id in ((succs, src), (preds, dst)):
            edges = table[op_id]
            if isinstance(edges, tuple):
                edges = table[op_id] = list(edges)
            edges.append(edge)

    return SpeculativeBlock(
        label=block.label,
        original=block,
        operations=operations,
        info=info,
        graph=DependenceGraph.from_edge_lists(operations, preds, succs),
        ldpred_ids=[ldpred_for[l.op_id].op_id for l in predicted_loads],
        check_of={
            ldpred_for[l.op_id].op_id: check_for[l.op_id].op_id for l in predicted_loads
        },
        predicted_load_of={
            ldpred_for[l.op_id].op_id: l.op_id for l in predicted_loads
        },
    )


def candidate_loads(
    block: BasicBlock,
    machine: MachineDescription,
    profile: ValueProfile,
    config: SpeculationConfig,
    current: Optional[SpeculativeBlock] = None,
) -> List[Operation]:
    """Predictable operations on the *current* longest critical path.

    Loads always qualify; with ``config.predict_alu`` long-latency ALU
    results qualify too (provided the profile tracked them).  With
    ``current`` (the block transformed by the predictions chosen so far)
    the critical path is that of the transformed block, so successive
    selections chase the newly exposed path, and ops made non-speculable
    by the current choices are filtered out.
    """
    from repro.core.isa_ext import OpForm

    if current is not None:
        graph, forms = current.graph, current.info
    else:
        graph, forms = _shared_ddg(block, machine), None
    analysis = _shared_analysis(block, graph, machine)

    def qualifies(op: Operation) -> bool:
        if op.is_load:
            return True
        return (
            config.predict_alu
            and _predictable(op)
            and machine.latency(op.opcode) >= 3
        )

    out: List[Operation] = []
    for op_id in analysis.critical_ops:
        op = graph.operation(op_id)
        if not qualifies(op):
            continue
        if forms is not None and forms[op.op_id].form not in (
            OpForm.PLAIN,
            OpForm.NONSPEC,
        ):
            continue  # already rewritten into a prediction form
        if forms is not None and forms[op.op_id].form is OpForm.NONSPEC and not op.is_load:
            # A tainted ALU op re-executes on the CCE anyway; predicting
            # it on top of its origins rarely helps and complicates the
            # check chain — restrict chained prediction to loads.
            continue
        if profile.executions(op.op_id) < config.min_profile_executions:
            continue
        if profile.rate(op.op_id) < config.threshold:
            continue
        out.append(op)
    out.sort(key=lambda op: analysis.height[op.op_id], reverse=True)
    return out


def _eligible_ops(
    block: BasicBlock,
    machine: MachineDescription,
    profile: ValueProfile,
    config: SpeculationConfig,
) -> List[int]:
    """Op ids that pass the profile/qualification filters of
    :func:`candidate_loads`, over the whole block.

    The threshold and ``min_profile_executions`` enter greedy selection
    *only* through this set (candidate rounds filter against the same
    predicates), so it is a sufficient cache key component: two configs
    with equal eligible sets produce identical selections.
    """
    out: List[int] = []
    for op in block.operations:
        qualifies = op.is_load or (
            config.predict_alu
            and _predictable(op)
            and machine.latency(op.opcode) >= 3
        )
        if not qualifies:
            continue
        if profile.executions(op.op_id) < config.min_profile_executions:
            continue
        if profile.rate(op.op_id) < config.threshold:
            continue
        out.append(op.op_id)
    return out


def speculate_block(
    block: BasicBlock,
    machine: MachineDescription,
    profile: ValueProfile,
    live_out: FrozenSet[Reg] = frozenset(),
    config: Optional[SpeculationConfig] = None,
    id_base: Optional[int] = None,
) -> Optional[SpeculativeBlock]:
    """Select predictions for ``block`` and return the transformed block.

    Returns ``None`` when no profitable prediction exists (no predictable
    load on the critical path, or predicting never shortens the
    schedule).  Selection is greedy: keep adding the most critical
    predictable load while the resource-constrained schedule length
    strictly improves — which is also what makes wider machines speculate
    more (they have the slots to absorb the LdPred/check overhead).

    Selection is memoised process-wide, keyed on everything it actually
    depends on: the machine's timing key (so predictor variants share
    it), the profile-eligible op set (the only way threshold/profile
    enter), the id base (module docstring), live-out set and the pass
    config — so threshold sweeps that agree on eligibility share one
    greedy run, and its trial transforms/schedules, outright.
    """
    config = config or SpeculationConfig()
    tkey = compile_cache.timing_key(machine)
    eligible = frozenset(_eligible_ops(block, machine, profile, config))
    rest = (
        id_base,
        live_out,
        config.max_predictions,
        config.sync_width,
        config.speculate_liveout,
        config.predict_alu,
    )
    key = ("spec", tkey, tuple(sorted(eligible))) + rest

    def compute():
        # Superset reuse: greedy evaluates candidates independently and
        # keeps round winners, so for eligible sets S = greedy(E) and
        # S ⊆ E' ⊆ E, greedy(E') runs the identical rounds — every
        # round's winner is in E', and the removed candidates were
        # losers whose absence changes no argmax and no termination
        # test.  Threshold sweeps hit this constantly: a higher
        # threshold shrinks eligibility but usually keeps the selection.
        index = compile_cache.cached(block, ("specidx", tkey) + rest, list)
        for known_eligible, selection, result in index:
            if selection <= eligible <= known_eligible:
                return result
        result = _speculate_block_impl(block, machine, profile, live_out, config, id_base)
        if result is None:
            selection = frozenset()
        else:
            selection = frozenset(
                result.predicted_load_of[l] for l in result.ldpred_ids
            )
        index.append((eligible, selection, result))
        return result

    return compile_cache.cached(block, key, compute)


def _speculate_block_impl(
    block: BasicBlock,
    machine: MachineDescription,
    profile: ValueProfile,
    live_out: FrozenSet[Reg],
    config: SpeculationConfig,
    id_base: Optional[int],
) -> Optional[SpeculativeBlock]:
    from repro.core import specsched

    original_length = compile_cache.original_schedule(block, machine).length
    current_length = original_length

    chosen: List[Operation] = []
    best: Optional[SpeculativeBlock] = None
    while len(chosen) < config.max_predictions:
        candidates = candidate_loads(block, machine, profile, config, current=best)
        # Evaluate every candidate of this round and keep the one giving
        # the shortest schedule (first-improving greedy is noticeably
        # worse on chained-load blocks, where predicting the *last* load
        # of an indirection chain wins but the *first* has the greatest
        # dependence height).
        round_best: Optional[tuple[int, List[Operation], SpeculativeBlock]] = None
        for cand in candidates:
            trial_set = chosen + [cand]
            trial = _shared_transform(block, machine, trial_set, live_out, config, id_base)
            # Dependence-height lower bound: resource constraints only
            # ever lengthen a list schedule, so a transform whose
            # critical path is already no shorter than the incumbent
            # cannot yield an improving schedule — skip the (much more
            # expensive) resource-constrained scheduling outright.  The
            # filters below would reject exactly the same candidates,
            # so selection is unchanged.
            target = current_length if round_best is None else round_best[0]
            if _shared_analysis(block, trial.graph, machine).length >= target:
                continue
            plain = compile_cache.plain_schedule(trial, machine)
            if plain.length >= target:
                continue
            # A set whose plain list schedule the scheduler would have
            # to reorder for the FIFO CCB (see the deadlock discussion
            # above) is rejected, as it was when such schedules
            # deadlocked, before the repair runs: accepting the
            # reordered schedules changes which sets are chosen, and
            # with them the published figures.  Any length the repair
            # reached would be rejected with the set, so the plain
            # length filters as well.
            if specsched.ccb_order_conflicts(trial, plain):
                continue
            spec_schedule = compile_cache.speculative_schedule(
                trial, machine, original_length
            )
            # The static safety proof stays as a guard; it raises when a
            # bounded CCB or OVB cannot hold the schedule's entries.
            if specsched.check_schedule(spec_schedule).violation is not None:
                continue
            round_best = (spec_schedule.length, trial_set, trial)
        if round_best is None:
            break
        current_length, chosen, best = round_best
    return best
