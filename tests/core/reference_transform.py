"""The speculation transform as it was before the trial kit: the test
reference the production :func:`repro.core.speculation.transform_block`
must match.

It rebuilds the whole rewired dependence graph through
``DependenceGraph.add_edge``, classifies every operation of the block
through ``flow_predecessors`` lists, and emits the deadlock-ordering SYNC
edges by rescanning checks × waiting ops.  The production transform
reads a per-block kit, classifies only the flow cone of the predicted
ops, copies untouched edges verbatim and emits the ordering edges from
position-sorted lists; ``tests/core/test_transform_parity.py`` asserts
that both give the same operations, annotations and per-node edge sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core import compile_cache
from repro.core.speculation import SpeculationConfig, _predictable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.block import BasicBlock
    from repro.ir.operation import Operation, Reg
    from repro.machine.description import MachineDescription
    from repro.core.isa_ext import SpeculativeBlock


def reference_transform(
    block: BasicBlock,
    machine: MachineDescription,
    predicted_loads: Sequence[Operation],
    live_out: FrozenSet[Reg] = frozenset(),
    config: Optional[SpeculationConfig] = None,
    id_base: Optional[int] = None,
) -> SpeculativeBlock:
    """Rewrite ``block`` predicting exactly ``predicted_loads``; same
    contract as :func:`repro.core.speculation.transform_block` (``id_base``
    is ``B`` of that module's docstring)."""
    from repro.ddg.graph import DepKind, DependenceGraph
    from repro.ir.opcodes import Opcode
    from repro.ir.operation import Operation
    from repro.core.isa_ext import OpForm, SpecOpInfo, SpeculativeBlock
    from repro.core.sync_register import SyncBitAllocator, SyncRegisterOverflow

    config = config or SpeculationConfig()
    if id_base is None:
        id_base = max((op.op_id for op in block.operations), default=0) + 1
    original_graph = compile_cache.shared_ddg(block, machine)
    members = {id(op) for op in block.operations}
    for op in predicted_loads:
        if id(op) not in members:
            raise ValueError(f"{op} is not an operation of block {block.label!r}")
        if not _predictable(op):
            raise ValueError(
                f"only loads and pure value-producing ops can be predicted, got {op}"
            )

    predicted_ids = {op.op_id for op in predicted_loads}
    op_by_id = {op.op_id: op for op in block.operations}

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
    predicted_by_check = {
        check_for[l.op_id].op_id: l.op_id for l in predicted_loads
    }
    load_of_ldpred = {
        ldpred.op_id: load_id for load_id, ldpred in ldpred_for.items()
    }

    # -- classify every original operation --------------------------------
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

    def producer_taint(op: Operation) -> FrozenSet[int]:
        """Origins reaching ``op`` through its operand producers."""
        taint: Set[int] = set()
        for pred_id in original_graph.flow_predecessors(op.op_id):
            if pred_id in predicted_ids:
                taint.add(ldpred_for[pred_id].op_id)
            else:
                pred_info = info.get(pred_id)
                if pred_info is not None and pred_info.form is OpForm.SPECULATIVE:
                    taint.update(pred_info.origins)
        return frozenset(taint)

    def immediate_wait_bits(op: Operation) -> FrozenSet[int]:
        """Bits of the most recent predicted producers of the operands."""
        bits: Set[int] = set()
        for pred_id in original_graph.flow_predecessors(op.op_id):
            if pred_id in predicted_ids:
                bits.add(info[ldpred_for[pred_id].op_id].sync_bit)
            else:
                pred_info = info.get(pred_id)
                if (
                    pred_info is not None
                    and pred_info.form is OpForm.SPECULATIVE
                    and pred_info.sync_bit is not None
                ):
                    bits.add(pred_info.sync_bit)
        return frozenset(bits)

    for op in block.operations:
        if op.op_id in predicted_ids:
            # The check form inherits the load's operand (address)
            # dependences.  A tainted address means the *check* must wait
            # for verification — this is what permits predicting chained
            # loads (vortex-style multi-level indirection), where the
            # address of one predicted load derives from the value of
            # another.  The LdPred itself needs nothing: the predicted
            # value is independent of the address computation, so
            # consumers of the prediction are tainted only by this
            # load's own LdPred, never by the address chain.
            taint = producer_taint(op)
            info[check_for[op.op_id].op_id] = SpecOpInfo(
                form=OpForm.CHECK,
                origins=taint,
                wait_bits=immediate_wait_bits(op),
                verifies=ldpred_for[op.op_id].op_id,
            )
            continue
        taint = producer_taint(op)
        if not taint:
            info[op.op_id] = SpecOpInfo(form=OpForm.PLAIN)
            continue
        must_be_nonspec = (
            op.has_side_effect
            or op.is_load
            or (op.dest is not None and op.dest in live_out and not config.speculate_liveout)
        )
        if not must_be_nonspec:
            try:
                bit = allocator.allocate(op.op_id)
            except SyncRegisterOverflow:
                must_be_nonspec = True  # graceful demotion
            else:
                info[op.op_id] = SpecOpInfo(
                    form=OpForm.SPECULATIVE, origins=taint, sync_bit=bit
                )
                continue
        info[op.op_id] = SpecOpInfo(
            form=OpForm.NONSPEC, origins=taint, wait_bits=immediate_wait_bits(op)
        )

    # -- transformed operation list ----------------------------------------
    # Each LdPred sits immediately before its check (at the original
    # load's position).  This keeps the operation list topologically
    # ordered even when the load's destination register has earlier
    # definitions or uses (whose anti/output edges also constrain the
    # LdPred); the scheduler is constrained only by edges, so the early
    # issue of LdPred is unaffected.
    operations: List[Operation] = []
    for op in block.operations:
        if op.op_id in predicted_ids:
            operations.append(ldpred_for[op.op_id])
            operations.append(check_for[op.op_id])
        else:
            operations.append(op)

    # -- rewire the dependence graph -----------------------------------------
    graph = DependenceGraph(operations)
    terminator = block.terminator
    ldpred_latency = machine.latency(Opcode.LDPRED)

    def check_latency(check_op: Operation) -> int:
        return machine.latency(check_op.opcode)

    def node(op_id: int) -> Operation:
        """Transformed node standing for original op ``op_id``."""
        return check_for[op_id] if op_id in predicted_ids else op_by_id[op_id]

    for load in predicted_loads:
        ldpred = ldpred_for[load.op_id]
        check = check_for[load.op_id]
        # LdPred writes the destination before the check (re)writes it.
        graph.add_edge(ldpred, check, DepKind.OUTPUT, 1)
        if terminator is not None:
            graph.add_edge(ldpred, node(terminator.op_id), DepKind.CONTROL, 0)
        for edge in original_graph.predecessors(load.op_id):
            src = node(edge.src)
            # The check inherits all of the load's constraints.  When the
            # producer is itself a predicted load, node() maps it to its
            # check, so the address comes from the *verified* value.
            weight = edge.weight
            if edge.kind is DepKind.FLOW and edge.src in predicted_ids:
                weight = check_latency(check_for[edge.src])
            graph.add_edge(src, check, edge.kind, weight)
            # Writes of the destination register also constrain LdPred.
            if edge.kind in (DepKind.ANTI, DepKind.OUTPUT):
                graph.add_edge(src, ldpred, edge.kind, edge.weight)
        # A check with tainted address operands must also wait for the
        # verification of every origin prediction (best-case timing: the
        # origin checks' completions).
        for origin in info[check.op_id].origins:
            origin_check = check_for[load_of_ldpred[origin]]
            if origin_check.op_id != check.op_id:
                graph.add_edge(
                    origin_check, check, DepKind.SYNC, check_latency(origin_check)
                )

    for op in block.operations:
        if op.op_id in predicted_ids:
            continue
        dst = node(op.op_id)
        op_info = info[op.op_id]
        for edge in original_graph.predecessors(op.op_id):
            if edge.src in predicted_ids:
                ldpred = ldpred_for[edge.src]
                check = check_for[edge.src]
                if edge.kind is DepKind.FLOW:
                    if op_info.form is OpForm.SPECULATIVE:
                        graph.add_edge(ldpred, dst, DepKind.FLOW, ldpred_latency)
                    else:
                        graph.add_edge(
                            check, dst, DepKind.FLOW, check_latency(check)
                        )
                else:
                    graph.add_edge(check, dst, edge.kind, edge.weight)
                    if edge.kind in (DepKind.ANTI, DepKind.OUTPUT):
                        graph.add_edge(ldpred, dst, edge.kind, edge.weight)
            else:
                graph.add_edge(node(edge.src), dst, edge.kind, edge.weight)
        # Non-speculative ops wait for verification: in the all-correct
        # case their wait bits clear when the relevant checks complete.
        if op_info.form is OpForm.NONSPEC:
            for origin in op_info.origins:
                check = check_for[load_of_ldpred[origin]]
                graph.add_edge(check, dst, DepKind.SYNC, check_latency(check))

    # Deadlock avoidance (see module docstring): every check issues
    # strictly before any instruction that can stall on sync bits.
    # Checks with tainted addresses are themselves stall-capable; they
    # are chained among each other in program order (acyclic, since an
    # address can only derive from an earlier load's value), and receive
    # ordering edges from all non-waiting checks.
    position = {op.op_id: i for i, op in enumerate(block.operations)}
    waiting_nonspec = [
        op for op in block.operations
        if op.op_id not in predicted_ids
        and info[op.op_id].form is OpForm.NONSPEC
        and info[op.op_id].wait_bits
    ]
    checks = [check_for[l.op_id] for l in predicted_loads]
    waiting_checks = sorted(
        (c for c in checks if info[c.op_id].wait_bits),
        key=lambda c: position[predicted_by_check[c.op_id]],
    )

    def check_position(check_op) -> int:
        return position[predicted_by_check[check_op.op_id]]

    # Ordering edges must only run *forward* in program order — a
    # backward edge could close a cycle through the value chain feeding a
    # later check's address.  Forward-only ordering covers the common
    # case; prediction sets whose schedules could still deadlock are
    # rejected by the exhaustive outcome validation in speculate_block.
    for check in checks:
        for op in waiting_nonspec:
            if position[op.op_id] > check_position(check):
                graph.add_edge(check, op, DepKind.SYNC, 1)
        if not info[check.op_id].wait_bits:
            for waiting in waiting_checks:
                if (
                    waiting.op_id != check.op_id
                    and check_position(waiting) > check_position(check)
                ):
                    graph.add_edge(check, waiting, DepKind.SYNC, 1)
    for earlier, later in zip(waiting_checks, waiting_checks[1:]):
        graph.add_edge(earlier, later, DepKind.SYNC, 1)

    return SpeculativeBlock(
        label=block.label,
        original=block,
        operations=operations,
        info=info,
        graph=graph,
        ldpred_ids=[ldpred_for[l.op_id].op_id for l in predicted_loads],
        check_of={
            ldpred_for[l.op_id].op_id: check_for[l.op_id].op_id for l in predicted_loads
        },
        predicted_load_of={
            ldpred_for[l.op_id].op_id: l.op_id for l in predicted_loads
        },
    )
