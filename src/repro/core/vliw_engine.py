"""Timing model of the primary VLIW Engine (paper section 2.2).

The engine issues statically scheduled VLIW instructions in order.  An
instruction whose non-speculative operations carry a wait mask stalls
until every masked Synchronization bit is clear; the stall shifts every
later instruction by the same amount (the machine is lock-step in-order).
While the engine is stalled, in-flight check operations still complete
and the Compensation Code Engine keeps running — that parallelism is the
paper's whole point.

Per-operation behaviour at issue:

* ``LdPred`` — sets its Synchronization bit and deposits the predicted
  value in the OVB (shipped to the Compensation Code Engine).
* check-prediction — on completion, verifies the prediction against the
  outcome map: clears the ``LdPred`` bit either way (the check computed
  the correct value); on success additionally clears the bits of
  speculated ops whose origin predictions have now all proved correct.
* speculative — sets its bit, deposits its value in the OVB and ships the
  decoded op into the Compensation Code Buffer.
* plain / non-speculative — ordinary execution (non-speculative issue
  gating happened at the instruction level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.machine.description import MachineDescription
from repro.obs.cycles import (
    SYNC_CLEAR_CAUSES,
    SYNC_SOURCE_RANK,
    CycleLedger,
    NULL_CYCLES,
    instruction_binding,
)
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.trace import (
    BitClearEvent,
    BufferStallEvent,
    CheckEvent,
    LdPredEvent,
    SpeculateEvent,
    StallEvent,
    TraceSink,
)
from repro.core.cc_engine import CompensationEngine, SimulationDeadlock
from repro.core.ccb import CCBEntry, CCBFull
from repro.core.isa_ext import OpForm
from repro.core.ovb import OperandState, OperandValueBuffer
from repro.core.specsched import SpeculativeSchedule
from repro.core.sync_register import SyncRegisterState


@dataclass
class VLIWRunStats:
    """Counters from one block instance on the VLIW Engine."""

    completion: int = 0
    stall_cycles: int = 0
    instructions_issued: int = 0
    predictions: int = 0
    mispredictions: int = 0
    issue_times: Dict[int, int] = field(default_factory=dict)


class VLIWEngineSim:
    """Runs one speculative schedule against one prediction-outcome map."""

    def __init__(
        self,
        spec_schedule: SpeculativeSchedule,
        outcomes: Mapping[int, bool],
        ovb: OperandValueBuffer,
        sync: SyncRegisterState,
        cc: CompensationEngine,
        trace: Optional[TraceSink] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        cycles: CycleLedger = NULL_CYCLES,
    ):
        self.spec_schedule = spec_schedule
        self.machine: MachineDescription = spec_schedule.schedule.machine
        self.outcomes = dict(outcomes)
        self.ovb = ovb
        self.sync = sync
        self.cc = cc
        self._trace = trace
        self._metrics = metrics
        self._cycles = cycles

        missing = set(spec_schedule.spec.ldpred_ids) - set(self.outcomes)
        if missing:
            raise ValueError(f"missing prediction outcomes for LdPred ops {sorted(missing)}")

        # Speculated ops grouped by origin, for check-side bit clearing.
        self._spec_by_origin: Dict[int, List[int]] = {}
        for op in spec_schedule.spec.operations:
            info = spec_schedule.spec.info[op.op_id]
            if info.form is OpForm.SPECULATIVE:
                for origin in info.origins:
                    self._spec_by_origin.setdefault(origin, []).append(op.op_id)

    def run(self) -> VLIWRunStats:
        stats = VLIWRunStats()
        spec = self.spec_schedule.spec
        shift = 0
        ledger = self._cycles
        ccb_capacity = self.cc.buffer.capacity

        # Cycle-accounting state (touched only when the ledger is live).
        # Static gaps mirror obs.cycles.attribute_schedule; the dynamic
        # completion tail is bound by the longest in-flight op at its
        # *shifted* completion.
        prev_static = -1
        static_best = (-1, -1, "dep_stall")  # (completion, rank, cause)
        last_issue = -1
        tail_best = (-1, -1, "dep_stall")

        for instr in self.spec_schedule.schedule.instructions():
            tentative = instr.cycle + shift
            wait = self.spec_schedule.wait_bits_by_cycle.get(instr.cycle, frozenset())
            issue = tentative
            if wait:
                # Give the Compensation Code Engine a chance to clear
                # bits for recomputed values before we read them.
                self.cc.process_available()
                clear = self.sync.wait_until_clear(wait)
                if clear is None:
                    raise SimulationDeadlock(
                        f"block {spec.label!r}: instruction at cycle "
                        f"{instr.cycle} stalls forever on bits {sorted(wait)}"
                    )
                issue = max(tentative, clear)
            sync_stall = issue - tentative
            if sync_stall:
                self._metrics.inc("vliw.stalls")
                self._metrics.inc("vliw.stall_cycles", sync_stall)
                if self._trace is not None:
                    self._trace.emit(
                        StallEvent(
                            cycle=issue, bits=tuple(sorted(wait)), stall=sync_stall
                        )
                    )
            ccb_stall = 0
            if ccb_capacity is not None:
                issue = self._admit_ccb(instr, issue, ccb_capacity)
                ccb_stall = issue - tentative - sync_stall
            stall = sync_stall + ccb_stall
            stats.stall_cycles += stall
            shift += stall
            stats.instructions_issued += 1
            self._metrics.inc("vliw.instructions")

            if ledger.enabled:
                issue_cause, latency, rank, cause = instruction_binding(instr)
                static_gap = instr.cycle - prev_static - 1
                if static_gap > 0:
                    in_flight = static_best[0] > prev_static + 1
                    ledger.charge(
                        static_best[2] if in_flight else "dep_stall",
                        static_gap,
                        at=issue,
                    )
                if sync_stall:
                    ledger.charge(
                        self._sync_stall_cause(wait), sync_stall, at=issue
                    )
                if ccb_stall:
                    ledger.charge("ccb_pressure", ccb_stall, at=issue)
                ledger.charge(issue_cause, 1, at=issue)
                prev_static = instr.cycle
                last_issue = issue
                # Every slot of an instruction is shifted alike, so its
                # binding op is the same statically and dynamically.
                static_best = max(static_best, (instr.cycle + latency, rank, cause))
                tail_best = max(tail_best, (issue + latency, rank, cause))

            for slot in instr.slots:
                self._issue_op(slot.operation, issue, slot.latency, stats)
                stats.completion = max(stats.completion, issue + slot.latency)
                stats.issue_times[slot.operation.op_id] = issue

        if ledger.enabled and stats.instructions_issued:
            # Completion tail: cycles after the last issue while the
            # longest in-flight operation drains.
            ledger.charge(
                tail_best[2],
                stats.completion - last_issue - 1,
                at=stats.completion,
            )
        return stats

    def _sync_stall_cause(self, wait) -> str:
        """Cause of a sync-bit stall: who cleared the *binding* bit.

        The binding bit is the one with the latest clear time (ties
        broken by clear source, ``execute`` > ``flush`` > ``check``):
        execute-cleared bits mean the stall waited on CC-engine
        re-execution (``reexec``), flush-cleared on recovery drain
        (``flush_recovery``), check-cleared on plain verification
        latency (``sync_stall``).
        """
        best = (-1, -1)
        cause = "sync_stall"
        for bit in wait:
            time = self.sync.clear_time(bit)
            if time is None:
                continue
            source = self.sync.clear_source(bit)
            key = (time, SYNC_SOURCE_RANK.get(source, 0))
            if key > best:
                best = key
                cause = SYNC_CLEAR_CAUSES.get(source, "sync_stall")
        return cause

    def _admit_ccb(self, instr, issue: int, capacity: int) -> int:
        """Delay ``issue`` until a bounded CCB can take this instruction's
        speculative ops; raise :class:`CCBFull` if no amount of waiting
        can ever make room (structural overflow).

        The timing model: an entry's slot frees when the Compensation
        Code Engine processes it (``stats.free_times``, monotone), so
        inserting the ``k``-th entry past capacity must wait for the
        ``k``-th free.
        """
        spec = self.spec_schedule.spec
        spec_ops = [
            slot.operation.op_id
            for slot in instr.slots
            if spec.info[slot.operation.op_id].form is OpForm.SPECULATIVE
        ]
        if not spec_ops:
            return issue
        self.cc.process_available()
        freed_needed = self.cc.buffer.total_inserted + len(spec_ops) - capacity
        if freed_needed <= 0:
            return issue
        free_times = self.cc.stats.free_times
        if freed_needed > len(free_times):
            if self._trace is not None:
                self._trace.emit(
                    BufferStallEvent(
                        cycle=issue, buffer="ccb", op_id=spec_ops[0], stall=0
                    )
                )
            raise CCBFull(
                f"block {spec.label!r}: CCB capacity {capacity} can never "
                f"admit op {spec_ops[0]} (nothing left to free); bound "
                "speculation or enlarge ccb_capacity"
            )
        ready = free_times[freed_needed - 1]
        if ready <= issue:
            return issue
        stall = ready - issue
        self._metrics.inc("vliw.ccb_stalls")
        self._metrics.inc("vliw.ccb_stall_cycles", stall)
        if self._trace is not None:
            self._trace.emit(
                BufferStallEvent(
                    cycle=ready, buffer="ccb", op_id=spec_ops[0], stall=stall
                )
            )
        return ready

    # -- per-operation behaviour ----------------------------------------------

    def _issue_op(self, op, issue: int, latency: int, stats: VLIWRunStats) -> None:
        spec = self.spec_schedule.spec
        info = spec.info[op.op_id]
        completion = issue + latency

        if info.form is OpForm.LDPRED:
            self.sync.set_bit(info.sync_bit, issue)
            self.ovb.record_predicted(op.op_id, available_at=completion)
            stats.predictions += 1
            self._metrics.inc("vliw.predictions")
            if self._trace is not None:
                self._trace.emit(
                    LdPredEvent(cycle=issue, op_id=op.op_id, sync_bit=info.sync_bit)
                )
        elif info.form is OpForm.CHECK:
            self._complete_check(op, info.verifies, completion, stats)
        elif info.form is OpForm.SPECULATIVE:
            self.sync.set_bit(info.sync_bit, issue)
            self.ovb.record_speculated(
                op.op_id, available_at=completion, origins=info.origins
            )
            self.cc.insert(
                CCBEntry(
                    operation=op,
                    insert_time=issue,
                    origins=info.origins,
                    sources=self.spec_schedule.cc_sources[op.op_id],
                    sync_bit=info.sync_bit,
                )
            )
            self._metrics.inc("vliw.speculated")
            if self._trace is not None:
                self._trace.emit(
                    SpeculateEvent(cycle=issue, op_id=op.op_id, sync_bit=info.sync_bit)
                )
        # PLAIN and NONSPEC ops need no special action at issue: wait-bit
        # gating already happened at the instruction level.

    def _complete_check(self, op, ldpred_id: int, completion: int, stats: VLIWRunStats) -> None:
        spec = self.spec_schedule.spec
        correct = self.outcomes[ldpred_id]
        ldpred_bit = spec.info[ldpred_id].sync_bit
        # The LdPred bit clears either way: the check computed the true
        # value and (on mismatch) updated the register file with it.
        self.sync.clear_bit(ldpred_bit, completion, source="check")
        self.ovb.apply_check(ldpred_id, completion, correct)
        if self._trace is not None:
            self._trace.emit(
                CheckEvent(
                    cycle=completion,
                    op_id=op.op_id,
                    ldpred_id=ldpred_id,
                    correct=correct,
                )
            )
        if not correct:
            stats.mispredictions += 1
            self._metrics.inc("vliw.mispredictions")
            return
        # On success the check clears the bits of dependent speculated
        # ops whose *every* origin is now verified correct.
        for spec_id in self._spec_by_origin.get(ldpred_id, ()):
            record = self.ovb.get(spec_id)
            if record is None or record.resolved:
                continue  # not issued yet, or already settled
            origin_records = [self.ovb.get(o) for o in record.origins]
            if any(r is None or not r.resolved for r in origin_records):
                continue
            if all(r.state is OperandState.C for r in origin_records):
                settle = max(r.resolved_at for r in origin_records)
                self.ovb.resolve_speculated_correct(spec_id, settle)
                self.sync.clear_bit(
                    spec.info[spec_id].sync_bit, settle, source="check"
                )
                if self._trace is not None:
                    self._trace.emit(
                        BitClearEvent(
                            cycle=settle,
                            op_id=spec_id,
                            sync_bit=spec.info[spec_id].sync_bit,
                        )
                    )
