"""Data-dependence graphs over the operations of one basic block.

Nodes are :class:`~repro.ir.operation.Operation` objects (identified by
``op_id``); edges carry a :class:`DepKind` and a scheduling weight in
cycles.  Flow (true) dependence edges weigh the producer's latency; anti
edges weigh zero (a VLIW reads registers before writing them in the same
cycle); output and memory-ordering edges weigh one cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.operation import Operation


class DepKind(enum.Enum):
    """Kinds of dependence edges."""

    FLOW = "flow"        # read-after-write through a register
    ANTI = "anti"        # write-after-read through a register
    OUTPUT = "output"    # write-after-write through a register
    MEM = "mem"          # conservative memory ordering (store involved)
    CONTROL = "control"  # everything must issue no later than the branch
    SYNC = "sync"        # verification ordering introduced by speculation:
                         # a non-speculative op may not issue before the
                         # check operations its Synchronization-register
                         # wait bits depend on

    __hash__ = object.__hash__  # identity, as for repro.ir.opcodes.FUClass


@dataclass(frozen=True, slots=True)
class DepEdge:
    """A dependence from ``src`` to ``dst`` with a minimum issue distance."""

    src: int
    dst: int
    kind: DepKind
    weight: int

    def __reduce__(self):
        # Pickle by constructor, not the generated per-object __setstate__
        # (docs/RUNNER.md, "Payload codec").
        return (DepEdge, (self.src, self.dst, self.kind, self.weight))

    def __str__(self) -> str:
        return f"op{self.src} -[{self.kind.value}/{self.weight}]-> op{self.dst}"


class DependenceGraph:
    """A DAG of dependences among a block's operations."""

    def __init__(self, operations: List[Operation]):
        self._ops: Dict[int, Operation] = {op.op_id: op for op in operations}
        self._order: List[int] = [op.op_id for op in operations]
        self._succs: Dict[int, Sequence[DepEdge]] = {i: [] for i in self._order}
        self._preds: Dict[int, Sequence[DepEdge]] = {i: [] for i in self._order}

    @classmethod
    def from_edge_lists(
        cls,
        operations: List[Operation],
        preds: Dict[int, Sequence[DepEdge]],
        succs: Dict[int, Sequence[DepEdge]],
    ) -> "DependenceGraph":
        """A read-only graph adopting prebuilt per-node edge sequences
        (not copied).

        Every operation needs an entry in both maps, every edge must sit
        in its source's successor sequence and its destination's
        predecessor sequence, and no two edges may share
        ``(src, dst, kind)`` — the invariant :meth:`add_edge` keeps.  A
        sequence may be a tuple shared with other graphs, so such a graph
        takes no :meth:`add_edge`.  The speculation transform builds its
        trial graphs this way, sharing the edge tuples of untouched ops
        instead of re-adding each edge.
        """
        graph = cls.__new__(cls)
        graph._ops = {op.op_id: op for op in operations}
        graph._order = [op.op_id for op in operations]
        graph._succs = succs
        graph._preds = preds
        return graph

    # -- construction -------------------------------------------------------

    def add_edge(self, src: Operation, dst: Operation, kind: DepKind, weight: int) -> None:
        if src.op_id == dst.op_id:
            raise ValueError("self-dependence is not allowed")
        # Identity, not id: another build of the same block numbers its
        # operations alike.
        if self._ops.get(src.op_id) is not src or self._ops.get(dst.op_id) is not dst:
            raise KeyError("both endpoints must be operations of this block")
        # Keep only the strongest constraint between a pair for a kind —
        # duplicates with lower weight add nothing to the scheduler.
        for edge in self._succs[src.op_id]:
            if edge.dst == dst.op_id and edge.kind is kind:
                if edge.weight >= weight:
                    return
                self._succs[src.op_id].remove(edge)
                self._preds[dst.op_id] = [
                    e for e in self._preds[dst.op_id]
                    if not (e.src == src.op_id and e.kind is kind)
                ]
                break
        edge = DepEdge(src.op_id, dst.op_id, kind, weight)
        self._succs[src.op_id].append(edge)
        self._preds[dst.op_id].append(edge)

    # -- queries ----------------------------------------------------------

    @property
    def operations(self) -> List[Operation]:
        return [self._ops[i] for i in self._order]

    def operation(self, op_id: int) -> Operation:
        return self._ops[op_id]

    def successors(self, op_id: int) -> List[DepEdge]:
        return list(self._succs[op_id])

    def predecessors(self, op_id: int) -> List[DepEdge]:
        return list(self._preds[op_id])

    def succ_edges(self, op_id: int) -> Sequence[DepEdge]:
        """The successor edge sequence itself, *not* a copy — read-only.

        The list scheduler and critical-path analysis walk every edge of
        every block of every sweep point; the defensive copies of
        :meth:`successors` are measurable there.  Callers must not
        mutate the returned list.
        """
        return self._succs[op_id]

    def pred_edges(self, op_id: int) -> Sequence[DepEdge]:
        """Read-only view of the predecessor edge sequence (see
        :meth:`succ_edges`)."""
        return self._preds[op_id]

    def edges(self) -> Iterator[DepEdge]:
        for op_id in self._order:
            yield from self._succs[op_id]

    def flow_predecessors(self, op_id: int) -> List[int]:
        """Producers this operation truly consumes values from."""
        return [e.src for e in self._preds[op_id] if e.kind is DepKind.FLOW]

    def flow_successors(self, op_id: int) -> List[int]:
        return [e.dst for e in self._succs[op_id] if e.kind is DepKind.FLOW]

    def roots(self) -> List[Operation]:
        """Operations with no predecessors (ready at cycle zero)."""
        return [self._ops[i] for i in self._order if not self._preds[i]]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops

    # -- transitive closure over flow edges ------------------------------

    def flow_reachable_from(self, sources: List[int]) -> set[int]:
        """Operation ids transitively flow-dependent on any of ``sources``.

        The speculation transform uses this to find every operation whose
        value is (directly or indirectly) derived from a predicted op.
        """
        seen: set[int] = set()
        stack = list(sources)
        while stack:
            op_id = stack.pop()
            for succ in self.flow_successors(op_id):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def topological_order(self) -> List[Operation]:
        """Operations in a dependence-respecting order.

        Program order is already topological because edges only ever point
        from earlier to later operations in the block.
        """
        return self.operations
