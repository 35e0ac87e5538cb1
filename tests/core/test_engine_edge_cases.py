"""Edge-case tests for the two execution engines."""

import pytest

from repro.core.cc_engine import (
    CompensationEngine,
    SimulationDeadlock,
)
from repro.core.ccb import CCBEntry, OperandSource, SourceKind
from repro.core.machine_sim import simulate_block
from repro.core.ovb import OperandValueBuffer
from repro.core.specsched import schedule_speculative
from repro.core.speculation import transform_block
from repro.core.sync_register import SyncRegisterState
from repro.ir.builder import FunctionBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg
from repro.machine.configs import PLAYDOH_4W
from repro.obs.trace import BlockLog
from repro.sched.list_scheduler import schedule_block


def make_entry(op_id_origins, bit=5, insert_time=3):
    op = Operation(opcode=Opcode.MOV, dest=Reg("x"), srcs=(Reg("y"),), op_id=1)
    return CCBEntry(
        operation=op,
        insert_time=insert_time,
        origins=frozenset(op_id_origins),
        sources=(OperandSource(SourceKind.SHIPPED),),
        sync_bit=bit,
    )


class TestCompensationEngineDirect:
    def setup_method(self):
        self.log = BlockLog()
        self.ovb = OperandValueBuffer(log=self.log)
        self.sync = SyncRegisterState(width=16, log=self.log)
        self.engine = CompensationEngine(
            PLAYDOH_4W, self.ovb, self.sync, log=self.log
        )

    def test_head_blocks_until_origin_resolved(self):
        self.ovb.record_predicted(100, available_at=1)
        entry = make_entry({100})
        self.sync.set_bit(entry.sync_bit, 3)
        self.ovb.record_speculated(entry.op_id, available_at=4, origins=entry.origins)
        self.engine.insert(entry)
        self.engine.process_available()
        assert self.engine.buffer.pending == 1  # still blocked
        self.ovb.apply_check(100, time=6, correct=True)
        self.engine.process_available()
        assert self.engine.buffer.pending == 0
        assert self.engine.stats.flushed == 1

    def test_flush_occupies_one_slot(self):
        self.ovb.record_predicted(100, available_at=1)
        self.ovb.apply_check(100, time=6, correct=True)
        first = make_entry({100}, bit=5, insert_time=3)
        second = make_entry({100}, bit=6, insert_time=3)
        for e in (first, second):
            self.sync.set_bit(e.sync_bit, 3)
            self.ovb.record_speculated(e.op_id, available_at=4, origins=e.origins)
            self.engine.insert(e)
        self.engine.process_available()
        events = self.log.cc_events()
        assert [kind for _, kind, _, _ in events] == ["flush", "flush"]
        # back-to-back slots: second flush one cycle after the first
        assert events[1][0] == events[0][0] + 1

    def test_drain_raises_on_unresolved_head(self):
        self.ovb.record_predicted(100, available_at=1)  # never checked
        entry = make_entry({100})
        self.sync.set_bit(entry.sync_bit, 3)
        self.ovb.record_speculated(entry.op_id, available_at=4, origins=entry.origins)
        self.engine.insert(entry)
        with pytest.raises(SimulationDeadlock, match="blocked after VLIW completion"):
            self.engine.drain()

    def test_execute_waits_for_corrected_operand(self):
        self.ovb.record_predicted(100, available_at=1)
        op = Operation(opcode=Opcode.MOV, dest=Reg("x"), srcs=(Reg("y"),), op_id=1)
        entry = CCBEntry(
            operation=op,
            insert_time=2,
            origins=frozenset({100}),
            sources=(OperandSource(SourceKind.PREDICTED, 100),),
            sync_bit=7,
        )
        self.sync.set_bit(7, 2)
        self.ovb.record_speculated(op.op_id, available_at=3, origins=entry.origins)
        self.engine.insert(entry)
        self.ovb.apply_check(100, time=9, correct=False)
        self.engine.process_available()
        (start, kind, op_id, completion) = self.log.cc_events()[0]
        assert kind == "execute"
        assert start >= 9  # corrected operand only exists at check time
        assert self.sync.clear_time(7) == completion


class TestVLIWEngineValidation:
    def test_rejects_incomplete_outcomes(self, m4):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("p", 100)
        load = fb.load("a", "p")
        fb.add("b", "a", 1)
        fb.store("b", "p", offset=5)
        fb.halt()
        block = fb.build().block("entry")
        spec = transform_block(block, m4, [load])
        sched = schedule_speculative(
            spec, m4, original_length=schedule_block(block, m4).length
        )
        with pytest.raises(ValueError, match="missing prediction outcomes"):
            simulate_block(sched, {})

    def test_extra_outcomes_tolerated(self, m4):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("p", 100)
        load = fb.load("a", "p")
        fb.add("b", "a", 1)
        fb.store("b", "p", offset=5)
        fb.halt()
        block = fb.build().block("entry")
        spec = transform_block(block, m4, [load])
        sched = schedule_speculative(
            spec, m4, original_length=schedule_block(block, m4).length
        )
        outcomes = {spec.ldpred_ids[0]: True, 999_999: False}
        run = simulate_block(sched, outcomes)
        assert run.predictions == 1
