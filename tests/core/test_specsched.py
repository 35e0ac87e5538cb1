"""Tests for speculative scheduling: wait masks, CCB sources, CCB order."""

import pytest

from repro.core.ccb import SourceKind
from repro.core.isa_ext import OpForm
from repro.core.machine_sim import simulate_all_outcomes
from repro.core.specsched import (
    ccb_order_conflicts,
    compute_cc_sources,
    schedule_speculative,
)
from repro.core.speculation import transform_block
from repro.ir.builder import FunctionBuilder
from repro.ir.opcodes import Opcode
from repro.sched.list_scheduler import ListScheduler, schedule_block


@pytest.fixture
def two_chain_spec(m4):
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("p", 100)
    l1 = fb.load("a", "p")
    fb.add("b", "a", 1)       # spec, reads predicted a
    fb.mul("c", "b", "b")     # spec, reads speculated b
    fb.add("d", "c", "p")     # spec, reads speculated c + plain p
    fb.store("d", "p", offset=10)  # nonspec
    fb.halt()
    block = fb.build().block("entry")
    spec = transform_block(block, m4, [l1])
    return spec, m4, schedule_block(block, m4).length


class TestCCSources:
    def test_source_kinds(self, two_chain_spec):
        spec, m4, _ = two_chain_spec
        sources = compute_cc_sources(spec)
        ops_by_opcode = {
            op.opcode: op for op in spec.operations
            if spec.info[op.op_id].form is OpForm.SPECULATIVE
        }
        add_b = next(
            op for op in spec.operations
            if op.opcode is Opcode.ADD and op.dest.name == "b"
        )
        mul_c = next(op for op in spec.operations if op.opcode is Opcode.MUL)
        add_d = next(
            op for op in spec.operations
            if op.opcode is Opcode.ADD and op.dest.name == "d"
        )
        # b reads the LdPred value plus an immediate.
        kinds_b = [s.kind for s in sources[add_b.op_id]]
        assert kinds_b == [SourceKind.PREDICTED, SourceKind.SHIPPED]
        # c reads b twice (speculated).
        kinds_c = [s.kind for s in sources[mul_c.op_id]]
        assert kinds_c == [SourceKind.SPECULATED, SourceKind.SPECULATED]
        # d reads speculated c and the plain register p (shipped).
        kinds_d = [s.kind for s in sources[add_d.op_id]]
        assert kinds_d == [SourceKind.SPECULATED, SourceKind.SHIPPED]

    def test_producer_ids_correct(self, two_chain_spec):
        spec, _, _ = two_chain_spec
        sources = compute_cc_sources(spec)
        mul_c = next(op for op in spec.operations if op.opcode is Opcode.MUL)
        add_b = next(
            op for op in spec.operations
            if op.opcode is Opcode.ADD and op.dest.name == "b"
        )
        for source in sources[mul_c.op_id]:
            assert source.producer_id == add_b.op_id

    def test_only_speculative_ops_have_sources(self, two_chain_spec):
        spec, _, _ = two_chain_spec
        sources = compute_cc_sources(spec)
        spec_ids = {
            op.op_id for op in spec.operations
            if spec.info[op.op_id].form is OpForm.SPECULATIVE
        }
        assert set(sources) == spec_ids


class TestWaitMasks:
    def test_store_instruction_carries_wait_bits(self, two_chain_spec):
        spec, m4, orig = two_chain_spec
        sched = schedule_speculative(spec, m4, original_length=orig)
        store = next(op for op in spec.operations if op.is_store)
        cycle = sched.schedule.issue_cycle(store.op_id)
        assert sched.wait_bits_by_cycle.get(cycle) == spec.info[store.op_id].wait_bits

    def test_unwaiting_cycles_absent(self, two_chain_spec):
        spec, m4, orig = two_chain_spec
        sched = schedule_speculative(spec, m4, original_length=orig)
        ldpred_cycle = sched.schedule.issue_cycle(spec.ldpred_ids[0])
        store = next(op for op in spec.operations if op.is_store)
        if ldpred_cycle != sched.schedule.issue_cycle(store.op_id):
            assert ldpred_cycle not in sched.wait_bits_by_cycle

    def test_improvement_property(self, two_chain_spec):
        spec, m4, orig = two_chain_spec
        sched = schedule_speculative(spec, m4, original_length=orig)
        assert sched.improvement == orig - sched.length
        assert sched.label == "entry"

    def test_original_length_computed_when_omitted(self, two_chain_spec):
        spec, m4, orig = two_chain_spec
        sched = schedule_speculative(spec, m4)
        assert sched.original_length == orig

    def test_waiting_check_contributes_wait_bits(self, m4):
        # Chained prediction: the second load's check waits for the first.
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("p", 100)
        l1 = fb.load("a", "p")
        fb.add("q", "a", 4)
        l2 = fb.load("x", "q")
        fb.add("y", "x", 1)
        fb.mul("z", "y", 3)
        fb.store("z", "p", offset=9)
        fb.halt()
        block = fb.build().block("entry")
        spec = transform_block(block, m4, [l1, l2])
        check2 = spec.check_of[spec.ldpred_ids[1]]
        assert spec.info[check2].form is OpForm.CHECK
        assert spec.info[check2].wait_bits
        sched = schedule_speculative(spec, m4)
        cycle = sched.schedule.issue_cycle(check2)
        assert spec.info[check2].wait_bits <= sched.wait_bits_by_cycle[cycle]


class TestCCBOrder:
    @pytest.fixture
    def crossed_spec(self, m4):
        # The consumer of the second prediction hoists above the consumer
        # of the first, so it enters the CCB first; the store waits on
        # the first consumer, but the second check issues after it.
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("r0", 100)
        fb.add("r0", "r0", "r0")
        l1 = fb.load("r2", "r0")
        first = fb.add("r2", "r2", "r0")
        fb.store("r0", "r2", offset=7)
        l2 = fb.load("r1", "r0")
        second = fb.add("r3", "r0", "r1")
        fb.halt()
        block = fb.build().block("entry")
        return transform_block(block, m4, [l1, l2]), first.op_id, second.op_id

    def test_plain_list_schedule_has_the_conflict(self, crossed_spec, m4):
        spec, first, second = crossed_spec
        plain = ListScheduler(m4).schedule_graph(spec.label, spec.graph)
        assert plain.issue_cycle(second) < plain.issue_cycle(first)
        assert ccb_order_conflicts(spec, plain) == [(first, second)]

    def test_schedule_orders_the_ccb_and_never_deadlocks(self, crossed_spec, m4):
        spec, first, second = crossed_spec
        sched = schedule_speculative(spec, m4)
        assert sched.ccb_order_edges == ((first, second),)
        assert ccb_order_conflicts(spec, sched.schedule) == []
        assert sched.schedule.issue_cycle(first) <= sched.schedule.issue_cycle(second)
        runs = simulate_all_outcomes(sched)
        assert len(runs) == 4
        # The repair edge lives on a copy: the transform's graph is shared.
        assert all(e.dst != second for e in spec.graph.succ_edges(first))

    def test_unconflicted_schedule_records_no_edges(self, two_chain_spec):
        spec, m4, orig = two_chain_spec
        sched = schedule_speculative(spec, m4, original_length=orig)
        assert sched.ccb_order_edges == ()
