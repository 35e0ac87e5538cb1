"""Resource-constrained list scheduling of basic blocks.

The scheduler is the cycle-driven list scheduler of VLIW compilers: keep a
ready list ordered by dependence height (the greatest remaining height
first, the earlier operation on a tie); each cycle,
issue ready operations into free functional units up to the issue width;
an operation becomes ready when every dependence predecessor has issued
and its edge distance has elapsed.

This single scheduler serves both the original code (paper Figure 2) and
the speculation-transformed code (Figure 3) — the transformation changes
the dependence graph, not the scheduling algorithm.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import PathAnalysis, analyze
from repro.ddg.graph import DependenceGraph
from repro.ir.block import BasicBlock
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable
from repro.sched.schedule import Schedule


class ListScheduler:
    """Schedules one dependence graph onto one machine."""

    def __init__(self, machine: MachineDescription):
        self.machine = machine

    def schedule_graph(
        self,
        label: str,
        graph: DependenceGraph,
        analysis: Optional["PathAnalysis"] = None,
    ) -> Schedule:
        """Produce a schedule for a pre-built dependence graph.

        ``analysis`` lets callers pass a precomputed (possibly shared)
        critical-path analysis of ``graph`` on this machine's latencies;
        when omitted it is computed here.
        """
        machine = self.machine
        if analysis is None:
            analysis = analyze(graph, machine)
        height = analysis.height

        schedule = Schedule(label, machine)
        if not len(graph):
            return schedule

        # Per-op facts hoisted out of the issue loop (the loop body runs
        # once per heap pop, which is the hottest path of a sweep).
        operation_of: dict[int, object] = {}
        remaining_preds: dict[int, int] = {}
        # earliest data-ready cycle given already-issued predecessors
        ready_at: dict[int, int] = {}
        fu_of: dict[int, object] = {}
        latency_of: dict[int, int] = {}

        # Min-heap of (-height, op_id) for ops whose preds have all
        # issued, so the greatest height pops first and the earlier op
        # wins a tie; an entry may still have ready_at in the future.
        # Keys are unique, so the pop order is a pure function of the
        # key set and heapify yields the same schedule heappush-by-push
        # would.
        heap: list[tuple[int, int]] = []
        for op in graph.operations:
            op_id = op.op_id
            operation_of[op_id] = op
            preds = len(graph.pred_edges(op_id))
            remaining_preds[op_id] = preds
            ready_at[op_id] = 0
            fu_of[op_id] = machine.fu_class(op.opcode)
            latency_of[op_id] = machine.latency(op.opcode)
            if preds == 0:
                heap.append((-height[op_id], op_id))
        heapq.heapify(heap)

        table = ReservationTable(machine.pool, machine.issue_width)
        try_issue = table.try_issue
        successors = graph.succ_edges
        place = schedule.place
        heappush, heappop = heapq.heappush, heapq.heappop
        unscheduled = len(graph)
        cycle = 0
        guard = 0
        while unscheduled:
            guard += 1
            if guard > 1_000_000:
                raise RuntimeError(f"scheduler failed to converge on block {label!r}")

            # Issue passes repeat within the cycle because a zero-weight
            # (anti/control) edge can make an operation ready in the very
            # cycle its predecessor issues.
            while True:
                deferred: list[tuple[int, int]] = []
                issued_this_pass = False
                while heap:
                    entry = heappop(heap)
                    op_id = entry[1]
                    if ready_at[op_id] > cycle or not try_issue(cycle, fu_of[op_id]):
                        deferred.append(entry)
                        continue
                    place(operation_of[op_id], cycle, latency_of[op_id])
                    issued_this_pass = True
                    unscheduled -= 1
                    for edge in successors(op_id):
                        dst = edge.dst
                        ready = cycle + edge.weight
                        if ready > ready_at[dst]:
                            ready_at[dst] = ready
                        left = remaining_preds[dst] - 1
                        remaining_preds[dst] = left
                        if left == 0:
                            deferred.append((-height[dst], dst))
                for item in deferred:
                    heappush(heap, item)
                if not issued_this_pass:
                    break
            cycle += 1

        return schedule

    def schedule_block(self, block: BasicBlock) -> Schedule:
        """Build the block's dependence graph and schedule it."""
        graph = build_ddg(block, self.machine)
        return self.schedule_graph(block.label, graph)


def schedule_block(block: BasicBlock, machine: MachineDescription) -> Schedule:
    """Convenience wrapper: schedule one block on one machine."""
    return ListScheduler(machine).schedule_block(block)
