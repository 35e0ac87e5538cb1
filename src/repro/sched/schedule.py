"""Schedule data structures: scheduled operations and VLIW instructions.

A :class:`Schedule` is the output of the list scheduler for one basic
block: each operation is assigned an issue cycle, and operations sharing a
cycle form one VLIW instruction (a *MultiOp* in Trimaran terms).  The
schedule length — the paper's central block metric — is the cycle in which
the last result becomes available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ir.operation import Operation
    from repro.machine.description import MachineDescription


@dataclass(frozen=True, slots=True)
class ScheduledOp:
    """One operation placed at an issue cycle."""

    operation: Operation
    cycle: int
    latency: int

    def __reduce__(self):
        # Pickle by constructor, not the generated per-object __setstate__
        # (docs/RUNNER.md, "Payload codec").
        return (ScheduledOp, (self.operation, self.cycle, self.latency))

    @property
    def completion(self) -> int:
        """First cycle at which the result is available to consumers."""
        return self.cycle + self.latency

    def __str__(self) -> str:
        return f"@{self.cycle}(+{self.latency}) {self.operation}"


@dataclass(frozen=True, slots=True)
class VLIWInstruction:
    """All operations issued in one cycle (one long instruction word)."""

    cycle: int
    slots: tuple[ScheduledOp, ...]

    def __reduce__(self):
        return (VLIWInstruction, (self.cycle, self.slots))

    def __iter__(self) -> Iterator[ScheduledOp]:
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __str__(self) -> str:
        ops = "; ".join(str(s.operation) for s in self.slots)
        return f"cycle {self.cycle}: [{ops}]"


class Schedule:
    """The static schedule of one basic block.

    ``length``, ``operations`` and ``instructions()`` are computed on
    first read and kept until the next :meth:`place`; they return
    immutable results.  The kept results are never pickled (a pickled
    schedule is its label, machine and placements); only
    :meth:`rebound` copies share them.
    """

    #: Query results kept since the last place(); ``None`` until read.
    _length: Optional[int] = None
    _operations: Optional[Tuple[ScheduledOp, ...]] = None
    _instructions: Optional[Tuple[VLIWInstruction, ...]] = None

    def __init__(self, label: str, machine: MachineDescription):
        self.label = label
        self.machine = machine
        self._by_op: Dict[int, ScheduledOp] = {}

    def __getstate__(self) -> Dict:
        return {"label": self.label, "machine": self.machine, "_by_op": self._by_op}

    def rebound(self, machine: MachineDescription) -> "Schedule":
        """A copy pinned to ``machine`` that shares this schedule's
        placements and the query results read so far, none of which
        read the machine."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy.machine = machine
        return copy

    def place(self, operation: Operation, cycle: int, latency: Optional[int] = None) -> ScheduledOp:
        if operation.op_id in self._by_op:
            raise ValueError(f"operation {operation.op_id} scheduled twice")
        if cycle < 0:
            raise ValueError("issue cycle must be non-negative")
        lat = self.machine.latency(operation.opcode) if latency is None else latency
        placed = ScheduledOp(operation, cycle, lat)
        self._by_op[operation.op_id] = placed
        self._length = self._operations = self._instructions = None
        return placed

    # -- queries ------------------------------------------------------------

    def issue_cycle(self, op_id: int) -> int:
        return self._by_op[op_id].cycle

    def completion_cycle(self, op_id: int) -> int:
        return self._by_op[op_id].completion

    def scheduled(self, op_id: int) -> ScheduledOp:
        return self._by_op[op_id]

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._by_op

    def __len__(self) -> int:
        return len(self._by_op)

    @property
    def operations(self) -> Tuple[ScheduledOp, ...]:
        """Placed operations by (issue cycle, op id)."""
        if self._operations is None:
            self._operations = tuple(
                sorted(self._by_op.values(), key=lambda s: (s.cycle, s.operation.op_id))
            )
        return self._operations

    @property
    def length(self) -> int:
        """Schedule length in cycles: when the last result is available.

        An empty schedule has length zero.
        """
        if self._length is None:
            self._length = max((s.completion for s in self._by_op.values()), default=0)
        return self._length

    @property
    def issue_cycles_used(self) -> int:
        """Number of distinct cycles in which at least one op issues."""
        return len({s.cycle for s in self._by_op.values()})

    def instructions(self) -> Tuple[VLIWInstruction, ...]:
        """Group scheduled ops into VLIW instructions by issue cycle."""
        if self._instructions is None:
            by_cycle: Dict[int, List[ScheduledOp]] = {}
            for placed in self._by_op.values():
                by_cycle.setdefault(placed.cycle, []).append(placed)
            self._instructions = tuple(
                VLIWInstruction(cycle, tuple(sorted(ops, key=lambda s: s.operation.op_id)))
                for cycle, ops in sorted(by_cycle.items())
            )
        return self._instructions

    def __str__(self) -> str:
        lines = [f"schedule {self.label} (length {self.length})"]
        lines.extend(f"  {instr}" for instr in self.instructions())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Schedule {self.label}: {len(self)} ops, length {self.length}>"
