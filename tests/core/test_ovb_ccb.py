"""Unit tests for the Operand Value Buffer and Compensation Code Buffer."""

import itertools

import pytest

from repro.core.ccb import (
    CCBEntry,
    CCBFull,
    CompensationCodeBuffer,
    OperandSource,
    SourceKind,
)
from repro.core.machine_sim import simulate_all_outcomes
from repro.core.ovb import OperandKind, OperandState, OperandValueBuffer
from repro.core.specsched import check_schedule, schedule_speculative
from repro.core.speculation import transform_block
from repro.ir.builder import FunctionBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg


#: Entry op ids, kept clear of the default origin id 1.
_ids = itertools.count(2)


def entry(op_id_holder=[], insert_time=0, origins=frozenset({1}), bit=0):
    op = Operation(
        opcode=Opcode.MOV, dest=Reg("a"), srcs=(Reg("b"),), op_id=next(_ids)
    )
    return CCBEntry(
        operation=op,
        insert_time=insert_time,
        origins=origins,
        sources=(OperandSource(SourceKind.SHIPPED),),
        sync_bit=bit,
    )


class TestOVBStateMachine:
    def test_predicted_value_lifecycle_correct(self):
        ovb = OperandValueBuffer()
        record = ovb.record_predicted(10, available_at=2)
        assert record.kind is OperandKind.PREDICTED
        assert record.state is OperandState.PN
        assert not record.resolved
        ovb.apply_check(10, time=6, correct=True)
        assert record.state is OperandState.C
        assert record.resolved_at == 6
        assert record.correct_value_at == 2  # value was right all along

    def test_predicted_value_lifecycle_incorrect(self):
        ovb = OperandValueBuffer()
        record = ovb.record_predicted(10, available_at=2)
        ovb.apply_check(10, time=6, correct=False)
        assert record.state is OperandState.R
        # the check computed the true value: available at check time
        assert record.correct_value_at == 6

    def test_double_check_rejected(self):
        ovb = OperandValueBuffer()
        ovb.record_predicted(10, available_at=0)
        ovb.apply_check(10, time=3, correct=True)
        with pytest.raises(RuntimeError, match="twice"):
            ovb.apply_check(10, time=4, correct=True)

    def test_speculated_value_correct_path(self):
        ovb = OperandValueBuffer()
        record = ovb.record_speculated(20, available_at=4, origins=frozenset({10}))
        assert record.state is OperandState.RN
        ovb.resolve_speculated_correct(20, time=6)
        assert record.state is OperandState.C
        assert record.correct_value_at == 6

    def test_speculated_value_recompute_path(self):
        ovb = OperandValueBuffer()
        record = ovb.record_speculated(20, available_at=4, origins=frozenset({10}))
        ovb.mark_needs_recompute(20, time=6)
        assert record.state is OperandState.R
        assert record.correct_value_at is None
        ovb.record_recomputed(20, completion=9)
        assert record.correct_value_at == 9

    def test_recompute_requires_r_state(self):
        ovb = OperandValueBuffer()
        ovb.record_speculated(20, available_at=4, origins=frozenset({10}))
        with pytest.raises(RuntimeError):
            ovb.record_recomputed(20, completion=9)

    def test_kind_mismatch_detected(self):
        ovb = OperandValueBuffer()
        ovb.record_predicted(10, available_at=0)
        with pytest.raises(RuntimeError, match="expected speculated"):
            ovb.mark_needs_recompute(10, time=1)

    def test_missing_record(self):
        ovb = OperandValueBuffer()
        with pytest.raises(KeyError):
            ovb.record(99)
        assert ovb.get(99) is None

    def test_counters(self):
        ovb = OperandValueBuffer()
        ovb.record_predicted(1, 0)
        ovb.record_speculated(2, 0, frozenset({1}))
        ovb.apply_check(1, 3, True)
        assert ovb.updates == 1
        assert len(ovb) == 2
        assert 1 in ovb and 3 not in ovb


class TestCCB:
    def test_fifo_order(self):
        buf = CompensationCodeBuffer()
        e1 = entry(insert_time=0)
        e2 = entry(insert_time=1)
        buf.insert(e1)
        buf.insert(e2)
        assert buf.head is e1
        assert buf.pop() is e1
        assert buf.head is e2
        assert buf.pending == 1
        assert len(buf) == 1
        # Popped entries still count: a bounded CCB's admission reads it.
        assert buf.total_inserted == 2

    def test_insert_out_of_order_rejected(self):
        buf = CompensationCodeBuffer()
        buf.insert(entry(insert_time=5))
        with pytest.raises(ValueError, match="issue order"):
            buf.insert(entry(insert_time=4))

    def test_capacity(self):
        buf = CompensationCodeBuffer(capacity=2)
        buf.insert(entry(insert_time=0))
        buf.insert(entry(insert_time=1))
        with pytest.raises(CCBFull):
            buf.insert(entry(insert_time=2))

    def test_pop_frees_capacity(self):
        buf = CompensationCodeBuffer(capacity=1)
        buf.insert(entry(insert_time=0))
        buf.pop()
        buf.insert(entry(insert_time=1))  # ok now

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            CompensationCodeBuffer().pop()

    def test_occupancy_bound_is_the_sample_peak(self, m4):
        """The static checker's CCB bound is the most entries any outcome
        pattern holds at once, on the smallest CCB that admits the
        schedule: the peak of the runs' ``cce.ccb_occupancy`` samples."""
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("p", 100)
        first = fb.load("a", "p")
        fb.add("b", "a", 1)
        fb.mul("c", "b", "b")
        second = fb.load("e", "p", offset=4)
        fb.add("f", "e", 1)
        fb.add("g", "c", "f")
        fb.store("g", "p", offset=8)
        fb.halt()
        spec = transform_block(fb.build().block("entry"), m4, [first, second])
        bound = check_schedule(schedule_speculative(spec, m4)).ccb_occupancy
        assert bound >= 2
        fits = m4.spec().override(ccb_capacity=bound).build()
        runs = simulate_all_outcomes(schedule_speculative(spec, fits))
        assert len(runs) == 4
        assert max(max(run.tally.ccb_occupancy) for run in runs.values()) == bound
        short = m4.spec().override(ccb_capacity=bound - 1).build()
        with pytest.raises(CCBFull):
            check_schedule(schedule_speculative(spec, short))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CompensationCodeBuffer(capacity=0)

    def test_operand_source_str(self):
        assert str(OperandSource(SourceKind.SHIPPED)) == "shipped"
        assert "op7" in str(OperandSource(SourceKind.PREDICTED, 7))
