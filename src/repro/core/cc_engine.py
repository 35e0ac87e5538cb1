"""The Compensation Code Engine (paper section 2.3).

A simple in-order, single-issue pipeline that consumes the Compensation
Code Buffer front to back.  For each entry it waits until every
prediction related to the entry's operands is verified, then either

* **flushes** the entry (one pipeline slot) when every operand proved
  correct — the VLIW Engine already produced the right value; or
* **re-executes** the operation with correct operand values, writes the
  result back (to the OVB for later compensation ops and to the VLIW
  register file), and clears the operation's Synchronization bit.

The engine is a *timing* model: values themselves are tracked by the
architectural interpreter; here only availability times matter.  Each
flush and re-execution is appended to the run's event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.machine.description import MachineDescription
from repro.core.ccb import CCBEntry, CompensationCodeBuffer, OperandSource, SourceKind
from repro.core.ovb import OperandState, OperandValueBuffer
from repro.core.sync_register import SyncRegisterState


@dataclass
class CCEngineStats:
    """Counters of one block simulation's Compensation Code Engine."""

    flushed: int = 0
    executed: int = 0
    last_exec_completion: int = 0
    #: Cycle each processed entry's CCB slot freed (monotone ascending,
    #: one entry per flush/execute); the VLIW engine reads this to model
    #: issue stalls against a bounded CCB.
    free_times: List[int] = field(default_factory=list)


class CompensationEngine:
    """In-order processor of the Compensation Code Buffer."""

    def __init__(
        self,
        machine: MachineDescription,
        ovb: OperandValueBuffer,
        sync: SyncRegisterState,
        buffer: Optional[CompensationCodeBuffer] = None,
        log: Optional[List[tuple]] = None,
    ):
        self.machine = machine
        self.ovb = ovb
        self.sync = sync
        self.buffer = buffer if buffer is not None else CompensationCodeBuffer()
        self.stats = CCEngineStats()
        self._free_time = 0
        self._emit = (log if log is not None else []).append

    # -- VLIW-engine interface ------------------------------------------------

    def insert(self, entry: CCBEntry) -> None:
        """Buffer a decoded speculated operation (sent at VLIW issue)."""
        self.buffer.insert(entry)

    def process_available(self) -> None:
        """Advance the pipeline as far as verification outcomes allow.

        The CCB is a FIFO: an entry whose origin predictions are not all
        verified yet blocks everything behind it.
        """
        while True:
            entry = self.buffer.head
            if entry is None:
                return
            origin_records = [self.ovb.record(o) for o in entry.origins]
            if any(not r.resolved for r in origin_records):
                return  # head must wait for more check outcomes
            self._process(entry, origin_records)
            self.buffer.pop()

    # -- internals --------------------------------------------------------

    def _process(self, entry: CCBEntry, origin_records) -> None:
        decide_time = max(r.resolved_at for r in origin_records)
        record = self.ovb.record(entry.op_id)

        if all(r.state is OperandState.C for r in origin_records):
            # Correctly speculated: flush (still costs a pipeline slot,
            # which is why recovery in Figure 3(c) starts only after the
            # correctly-speculated ops drain).
            start = max(self._free_time, entry.insert_time + 1, decide_time)
            self._free_time = start + 1
            self.stats.flushed += 1
            if record.state is not OperandState.C:
                self.ovb.resolve_speculated_correct(entry.op_id, decide_time)
            # The check op already cleared the bit at decide_time; the
            # call is idempotent and keeps the earliest clear time.
            self.sync.clear_bit(entry.sync_bit, decide_time, source="flush")
            self.stats.free_times.append(start + 1)
            self._emit(("flush", start, entry.op_id, start + 1))
            return

        # Some origin was mispredicted: re-execute with correct operands.
        if record.state is not OperandState.R:
            self.ovb.mark_needs_recompute(entry.op_id, decide_time)
        operand_ready = entry.insert_time
        for source in entry.sources:
            operand_ready = max(operand_ready, self._source_ready(entry, source))
        start = max(
            self._free_time, entry.insert_time + 1, decide_time, operand_ready
        )
        latency = self.machine.latency(entry.operation.opcode)
        completion = start + latency
        self._free_time = start + 1  # pipelined single issue
        self.stats.executed += 1
        self.stats.last_exec_completion = max(
            self.stats.last_exec_completion, completion
        )
        self.ovb.record_recomputed(entry.op_id, completion)
        self.sync.clear_bit(entry.sync_bit, completion, source="execute")
        self.stats.free_times.append(start + 1)
        self._emit(("execute", start, entry.op_id, completion))

    def _source_ready(self, entry: CCBEntry, source: OperandSource) -> int:
        if source.kind is SourceKind.SHIPPED:
            return entry.insert_time
        record = self.ovb.record(source.producer_id)
        if source.kind is SourceKind.PREDICTED:
            # The check computed the correct value whether or not the
            # prediction was right.
            if record.correct_value_at is None:
                raise SimulationDeadlock(
                    f"op{entry.op_id}: predicted operand op{source.producer_id} "
                    "unresolved at execution time"
                )
            return record.correct_value_at
        # SPECULATED: an earlier CCB entry.  If it was correct its value
        # shipped with this op; if recomputed, wait for the CC result.
        if record.state is OperandState.C:
            return record.available_at
        if record.correct_value_at is None:
            raise SimulationDeadlock(
                f"op{entry.op_id}: speculated operand op{source.producer_id} "
                "not recomputed yet (FIFO order violated?)"
            )
        return record.correct_value_at

    def drain(self) -> None:
        """Process everything left; all checks must have completed."""
        self.process_available()
        if self.buffer.head is not None:
            blocked = self.buffer.head
            raise SimulationDeadlock(
                f"CCB head op{blocked.op_id} blocked after VLIW completion; "
                f"origins {sorted(blocked.origins)} unresolved"
            )


class SimulationDeadlock(RuntimeError):
    """The two engines reached a state with no forward progress."""
