"""The Compensation Code Buffer (paper section 2.3).

A FIFO of decoded speculated operations, inserted by the VLIW Engine in
issue order.  Each entry carries its operand *sources*: for each source
operand, where the Compensation Code Engine must take the value from —
shipped-along correct value, an ``LdPred`` prediction (verified/corrected
by the check), or the value of an earlier speculated operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.ir.operation import Operation


class SourceKind(enum.Enum):
    """Where a CCB entry's operand value comes from."""

    SHIPPED = "shipped"      # correct value sent along with the decoded op
    PREDICTED = "predicted"  # an LdPred value, resolved by its check
    SPECULATED = "speculated"  # the value of an earlier speculated op


@dataclass(frozen=True)
class OperandSource:
    kind: SourceKind
    producer_id: Optional[int] = None  # ldpred id or speculated op id

    def __str__(self) -> str:
        if self.kind is SourceKind.SHIPPED:
            return "shipped"
        return f"{self.kind.value}(op{self.producer_id})"


@dataclass(frozen=True)
class CCBEntry:
    """One decoded speculated operation awaiting verification."""

    operation: Operation
    insert_time: int
    origins: FrozenSet[int]
    sources: Tuple[OperandSource, ...]
    sync_bit: int

    @property
    def op_id(self) -> int:
        return self.operation.op_id


class CompensationCodeBuffer:
    """FIFO buffer with a processing cursor.

    ``capacity`` bounds the number of unprocessed entries; inserting into
    a full buffer raises, which the VLIW engine surfaces as a structural
    stall (the headline experiments use an effectively unbounded buffer,
    matching the paper's simulation; the ablation benchmarks shrink it).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("CCB capacity must be positive or None")
        self.capacity = capacity
        self._entries: List[CCBEntry] = []
        self._cursor = 0

    def insert(self, entry: CCBEntry) -> None:
        if self.capacity is not None and self.pending > self.capacity - 1:
            raise CCBFull(
                f"CCB capacity {self.capacity} exceeded at t={entry.insert_time}"
            )
        if self._entries and entry.insert_time < self._entries[-1].insert_time:
            raise ValueError("CCB entries must be inserted in issue order")
        self._entries.append(entry)

    @property
    def pending(self) -> int:
        """Entries inserted but not yet processed."""
        return len(self._entries) - self._cursor

    @property
    def head(self) -> Optional[CCBEntry]:
        if self._cursor < len(self._entries):
            return self._entries[self._cursor]
        return None

    def pop(self) -> CCBEntry:
        entry = self.head
        if entry is None:
            raise IndexError("CCB is empty")
        self._cursor += 1
        return entry

    @property
    def total_inserted(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return self.pending


def cce_runs_before_issue(waits: bool, enters: bool, capacity: Optional[int]) -> bool:
    """Whether the Compensation Code Engine processes the entries it can
    before an instruction issues: when the instruction waits on
    Synchronization bits (re-execution may clear them) and, with a
    bounded CCB, when speculated ops enter (processing frees slots).
    Nowhere else, so an unbounded CCB holds processable entries until
    the next wait.  The VLIW engine runs the CCE by this rule and the
    static checker (:func:`repro.core.specsched.check_schedule`) counts
    occupancy by it.
    """
    return waits or (enters and capacity is not None)


class CCBFull(RuntimeError):
    """The Compensation Code Buffer ran out of entries."""

    @classmethod
    def never_admits(cls, label: str, capacity: int, op_id: int) -> "CCBFull":
        """A structural overflow: no amount of waiting frees a slot for
        op ``op_id`` (raised by the VLIW engine and the static checker)."""
        return cls(
            f"block {label!r}: CCB capacity {capacity} can never "
            f"admit op {op_id} (nothing left to free); bound "
            "speculation or enlarge ccb_capacity"
        )
