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

Everything the engine does is appended to the run's event log: one
``issue`` entry per operation, the typed-event entries above, and one
``charge`` entry per chunk of cycles attributed to a cause (see
:mod:`repro.obs.cycles`), so the charges sum to the block's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.machine.description import MachineDescription
from repro.obs.cycles import (
    SYNC_CLEAR_CAUSES,
    SYNC_SOURCE_RANK,
    instruction_binding,
)
from repro.core.cc_engine import CompensationEngine, SimulationDeadlock
from repro.core.ccb import CCBEntry, CCBFull, cce_runs_before_issue
from repro.core.isa_ext import OpForm
from repro.core.ovb import OperandState, OperandValueBuffer
from repro.core.specsched import SpeculativeSchedule
from repro.core.sync_register import SyncRegisterState


@dataclass
class VLIWRunStats:
    """Counters from one block instance on the VLIW Engine."""

    completion: int = 0
    stall_cycles: int = 0
    predictions: int = 0
    mispredictions: int = 0


class VLIWEngineSim:
    """Runs one speculative schedule against one prediction-outcome map."""

    def __init__(
        self,
        spec_schedule: SpeculativeSchedule,
        outcomes: Mapping[int, bool],
        ovb: OperandValueBuffer,
        sync: SyncRegisterState,
        cc: CompensationEngine,
        log: List[tuple],
    ):
        self.spec_schedule = spec_schedule
        self.machine: MachineDescription = spec_schedule.schedule.machine
        self.outcomes = dict(outcomes)
        self.ovb = ovb
        self.sync = sync
        self.cc = cc
        self._emit = log.append

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
        emit = self._emit
        issue_op = self._issue_op
        wait_bits = self.spec_schedule.wait_bits_by_cycle
        no_wait = frozenset()
        ccb_capacity = self.cc.buffer.capacity

        # Cycle-accounting state.  Static gaps mirror
        # obs.cycles.attribute_schedule; the dynamic completion tail is
        # bound by the longest in-flight op at its *shifted* completion.
        prev_static = -1
        static_best = (-1, -1, "dep_stall")  # (completion, rank, cause)
        last_issue = -1
        tail_best = (-1, -1, "dep_stall")

        for instr in self.spec_schedule.schedule.instructions():
            tentative = instr.cycle + shift
            wait = wait_bits.get(instr.cycle, no_wait)
            entering = self._entering(instr) if ccb_capacity is not None else ()
            if cce_runs_before_issue(bool(wait), bool(entering), ccb_capacity):
                self.cc.process_available()
            issue = tentative
            if wait:
                clear = self.sync.wait_until_clear(wait)
                if clear is None:
                    raise SimulationDeadlock(
                        f"block {spec.label!r}: instruction at cycle "
                        f"{instr.cycle} stalls forever on bits {sorted(wait)}"
                    )
                issue = max(tentative, clear)
            sync_stall = issue - tentative
            if sync_stall:
                emit(("stall", issue, tuple(sorted(wait)), sync_stall))
            ccb_stall = 0
            if entering:
                issue = self._admit_ccb(entering, issue, ccb_capacity)
                ccb_stall = issue - tentative - sync_stall
            stall = sync_stall + ccb_stall
            stats.stall_cycles += stall
            shift += stall
            issue_cause, latency, rank, cause = instruction_binding(instr)
            static_gap = instr.cycle - prev_static - 1
            if static_gap > 0:
                in_flight = static_best[0] > prev_static + 1
                emit(
                    (
                        "charge",
                        issue,
                        static_best[2] if in_flight else "dep_stall",
                        static_gap,
                    )
                )
            if sync_stall:
                emit(("charge", issue, self._sync_stall_cause(wait), sync_stall))
            if ccb_stall:
                emit(("charge", issue, "ccb_pressure", ccb_stall))
            emit(("charge", issue, issue_cause, 1))
            prev_static = instr.cycle
            last_issue = issue
            # Every slot of an instruction is shifted alike, so its
            # binding op is the same statically and dynamically.
            bound = (instr.cycle + latency, rank, cause)
            if bound > static_best:
                static_best = bound
            bound = (issue + latency, rank, cause)
            if bound > tail_best:
                tail_best = bound

            for slot in instr.slots:
                emit(("issue", issue, slot.operation.op_id))
                issue_op(slot.operation, issue, slot.latency, stats)
                if issue + slot.latency > stats.completion:
                    stats.completion = issue + slot.latency

        # Completion tail: cycles after the last issue while the longest
        # in-flight operation drains.
        tail = stats.completion - last_issue - 1
        if tail > 0:
            emit(("charge", stats.completion, tail_best[2], tail))
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

    def _entering(self, instr) -> List[int]:
        """The speculated ops ``instr`` inserts into the CCB."""
        info = self.spec_schedule.spec.info
        return [
            slot.operation.op_id
            for slot in instr.slots
            if info[slot.operation.op_id].form is OpForm.SPECULATIVE
        ]

    def _admit_ccb(self, spec_ops: List[int], issue: int, capacity: int) -> int:
        """Delay ``issue`` until a bounded CCB can take the speculated
        ops ``spec_ops`` of one instruction; raise :class:`CCBFull` if no
        amount of waiting can ever make room (structural overflow).

        The timing model: an entry's slot frees when the Compensation
        Code Engine processes it (``stats.free_times``, monotone), so
        inserting the ``k``-th entry past capacity must wait for the
        ``k``-th free.  The CCE has processed what it can just before
        (:func:`cce_runs_before_issue`).
        """
        spec = self.spec_schedule.spec
        freed_needed = self.cc.buffer.total_inserted + len(spec_ops) - capacity
        if freed_needed <= 0:
            return issue
        free_times = self.cc.stats.free_times
        if freed_needed > len(free_times):
            self._emit(("buffer_stall", issue, "ccb", spec_ops[0], 0))
            raise CCBFull.never_admits(spec.label, capacity, spec_ops[0])
        ready = free_times[freed_needed - 1]
        if ready <= issue:
            return issue
        self._emit(("buffer_stall", ready, "ccb", spec_ops[0], ready - issue))
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
            self._emit(("ldpred", issue, op.op_id, info.sync_bit))
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
            self._emit(("speculate", issue, op.op_id, info.sync_bit))
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
        self._emit(("check", completion, op.op_id, ldpred_id, correct))
        if not correct:
            stats.mispredictions += 1
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
                bit = spec.info[spec_id].sync_bit
                self.sync.clear_bit(bit, settle, source="check")
                self._emit(("bit_clear", settle, spec_id, bit))
