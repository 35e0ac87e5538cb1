"""Critical-path analysis of dependence graphs.

Provides the two quantities the compiler passes need:

* **earliest start times** (forward longest path) — the dependence-only
  lower bound on each operation's issue cycle, and from it the block's
  dependence-height (the schedule-length lower bound);
* **heights** (backward longest path) — the classic list-scheduling
  priority, and the means of extracting the *longest critical path*
  through the block, on which the paper selects loads for prediction
  ("code was scheduled by predicting loads on the longest critical path
  for each block").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.ddg.graph import DependenceGraph
from repro.machine.description import MachineDescription


@dataclass(frozen=True)
class PathAnalysis:
    """Longest-path facts about one dependence graph."""

    earliest_start: Dict[int, int]
    height: Dict[int, int]
    length: int
    critical_ops: List[int]


def analyze(graph: DependenceGraph, machine: MachineDescription) -> PathAnalysis:
    """Compute earliest starts, heights and the longest critical path."""
    order = graph.topological_order()

    earliest: Dict[int, int] = {}
    for op in order:
        est = 0
        for edge in graph.pred_edges(op.op_id):
            cand = earliest[edge.src] + edge.weight
            if cand > est:
                est = cand
        earliest[op.op_id] = est

    height: Dict[int, int] = {}
    for op in reversed(order):
        h = machine.latency(op.opcode)
        for edge in graph.succ_edges(op.op_id):
            cand = edge.weight + height[edge.dst]
            if cand > h:
                h = cand
        height[op.op_id] = h

    length = 0
    for op in order:
        length = max(length, earliest[op.op_id] + height[op.op_id])

    critical = [op.op_id for op in order if earliest[op.op_id] + height[op.op_id] == length]

    return PathAnalysis(
        earliest_start=earliest,
        height=height,
        length=length,
        critical_ops=critical,
    )
