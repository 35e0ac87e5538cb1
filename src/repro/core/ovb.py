"""The Operand Value Buffer (paper section 2.3, Tables 1 and 2).

The OVB stores, for every value involved in speculation, the operand
*kind* (how the value was computed) and its *state* in the verification
protocol:

====================  =====================================================
kind                  meaning
====================  =====================================================
``PREDICTED``         produced by ``LdPred`` (state starts ``PN``,
                      prediction-not-verified)
``SPECULATED``        produced by a value-speculated operation (state
                      starts ``RN``, recompute-not-known)
``CORRECT``           involves no prediction at all (state ``C``)
====================  =====================================================

State transitions (paper's Figure 7 walkthrough):

* ``PN -> C`` when the check finds the prediction correct;
* ``PN -> R`` when it does not — the check itself computed the correct
  value, so for a predicted value "the update is for both the value and
  state";
* ``RN -> C`` when every origin prediction of the speculated value is
  verified correct;
* ``RN -> R`` when any origin is wrong — the correct value only exists
  once the Compensation Code Engine re-executes the operation.

Every record carries timestamps so the timing simulator can ask *when* a
correct value became available.  Each state a record enters is appended
to the run's event log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional


class OperandKind(enum.Enum):
    """How a value was computed (paper Table 1)."""

    CORRECT = "correct"
    PREDICTED = "predicted"     # by LdPred
    SPECULATED = "speculated"   # by a value-speculated operation


class OperandState(enum.Enum):
    """Verification state of a value (paper's PN/RN/C/R)."""

    PN = "prediction-not-verified"
    RN = "recompute-not-known"
    C = "correct"
    R = "needs-recompute"


@dataclass
class ValueRecord:
    """One OVB entry: the value produced by one operation."""

    producer_id: int
    kind: OperandKind
    state: OperandState
    available_at: int
    origins: FrozenSet[int] = frozenset()
    resolved_at: Optional[int] = None
    correct_value_at: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.state in (OperandState.C, OperandState.R)


class OVBFull(RuntimeError):
    """Raised when an insert exceeds a bounded OVB's capacity.

    A real machine would stall VLIW issue instead; the simulator treats
    overflow as a configuration error so design-space sweeps bounding the
    buffer (``MachineSpec.ovb_capacity``) surface undersized buffers
    loudly rather than silently mis-timing blocks.
    """

    @classmethod
    def exceeded(cls, capacity: int, producer_id: int) -> "OVBFull":
        """The record of ``producer_id`` does not fit (raised by the OVB
        and the static checker)."""
        return cls(
            f"OVB capacity {capacity} exceeded inserting op "
            f"{producer_id}; bound speculation or enlarge ovb_capacity"
        )


class OperandValueBuffer:
    """Keyed store of :class:`ValueRecord`.

    Unbounded by default, as in the paper's simulation.  With
    ``capacity`` set (from ``MachineSpec.ovb_capacity``) inserts beyond
    the bound raise :class:`OVBFull`.  Records are never removed within
    a block, so the buffer's size is also its peak occupancy (the
    ``ovb.size`` gauge read from the log).
    """

    def __init__(
        self, capacity: Optional[int] = None, log: Optional[List[tuple]] = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("OVB capacity must be positive or None")
        self._records: Dict[int, ValueRecord] = {}
        self.updates = 0
        self.capacity = capacity
        self._emit = (log if log is not None else []).append

    def _admit(self, producer_id: int, time: int) -> None:
        if (
            self.capacity is not None
            and producer_id not in self._records
            and len(self._records) >= self.capacity
        ):
            self._emit(("buffer_stall", time, "ovb", producer_id, 0))
            raise OVBFull.exceeded(self.capacity, producer_id)

    # -- insertion (VLIW engine side) ------------------------------------

    def record_predicted(self, ldpred_id: int, available_at: int) -> ValueRecord:
        self._admit(ldpred_id, available_at)
        record = ValueRecord(
            producer_id=ldpred_id,
            kind=OperandKind.PREDICTED,
            state=OperandState.PN,
            available_at=available_at,
            origins=frozenset({ldpred_id}),
        )
        self._records[ldpred_id] = record
        self._emit(("ovb_transition", available_at, ldpred_id, "PN"))
        return record

    def record_speculated(
        self, op_id: int, available_at: int, origins: FrozenSet[int]
    ) -> ValueRecord:
        self._admit(op_id, available_at)
        record = ValueRecord(
            producer_id=op_id,
            kind=OperandKind.SPECULATED,
            state=OperandState.RN,
            available_at=available_at,
            origins=origins,
        )
        self._records[op_id] = record
        self._emit(("ovb_transition", available_at, op_id, "RN"))
        return record

    # -- verification updates ----------------------------------------------

    def apply_check(self, ldpred_id: int, time: int, correct: bool) -> ValueRecord:
        """The check op verified an ``LdPred`` prediction at ``time``.

        Correct or not, the check computed the true value, so the record
        is value-resolved either way.
        """
        record = self._require(ldpred_id, OperandKind.PREDICTED)
        if record.resolved:
            raise RuntimeError(f"prediction {ldpred_id} verified twice")
        record.state = OperandState.C if correct else OperandState.R
        record.resolved_at = time
        record.correct_value_at = record.available_at if correct else time
        self.updates += 1
        self._emit(("ovb_transition", time, ldpred_id, record.state.name))
        return record

    def resolve_speculated_correct(self, op_id: int, time: int) -> ValueRecord:
        """All origin predictions proved correct: the speculative value
        already in the buffer is the correct one."""
        record = self._require(op_id, OperandKind.SPECULATED)
        record.state = OperandState.C
        record.resolved_at = time
        record.correct_value_at = max(record.available_at, time)
        self.updates += 1
        self._emit(("ovb_transition", time, op_id, "C"))
        return record

    def mark_needs_recompute(self, op_id: int, time: int) -> ValueRecord:
        """Some origin was mispredicted: flag for CC-engine re-execution."""
        record = self._require(op_id, OperandKind.SPECULATED)
        record.state = OperandState.R
        record.resolved_at = time
        self.updates += 1
        self._emit(("ovb_transition", time, op_id, "R"))
        return record

    def record_recomputed(self, op_id: int, completion: int) -> ValueRecord:
        """The CC engine re-executed the op; correct value at ``completion``."""
        record = self._require(op_id, OperandKind.SPECULATED)
        if record.state is not OperandState.R:
            raise RuntimeError(
                f"op {op_id} recomputed while in state {record.state.name}"
            )
        record.correct_value_at = completion
        self.updates += 1
        return record

    # -- queries ----------------------------------------------------------

    def get(self, producer_id: int) -> Optional[ValueRecord]:
        return self._records.get(producer_id)

    def record(self, producer_id: int) -> ValueRecord:
        try:
            return self._records[producer_id]
        except KeyError:
            raise KeyError(f"OVB has no record for op {producer_id}") from None

    def _require(self, producer_id: int, kind: OperandKind) -> ValueRecord:
        record = self.record(producer_id)
        if record.kind is not kind:
            raise RuntimeError(
                f"op {producer_id} is {record.kind.value}, expected {kind.value}"
            )
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, producer_id: int) -> bool:
        return producer_id in self._records
