"""Unit tests for the schedule data structures."""

import copy
import itertools
import pickle

import pytest

from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg
from repro.machine.configs import PLAYDOH_4W
from repro.sched.schedule import Schedule


_ids = itertools.count(1)


def mov(dst="a", src="b"):
    return Operation(
        opcode=Opcode.MOV, dest=Reg(dst), srcs=(Reg(src),), op_id=next(_ids)
    )


def load(dst="a", base="p"):
    return Operation(
        opcode=Opcode.LOAD, dest=Reg(dst), srcs=(Reg(base),), op_id=next(_ids)
    )


class TestSchedule:
    def test_place_and_lookup(self):
        s = Schedule("b", PLAYDOH_4W)
        op = mov()
        placed = s.place(op, 2)
        assert placed.cycle == 2
        assert placed.latency == 1
        assert placed.completion == 3
        assert s.issue_cycle(op.op_id) == 2
        assert s.completion_cycle(op.op_id) == 3
        assert op.op_id in s

    def test_latency_from_machine(self):
        s = Schedule("b", PLAYDOH_4W)
        placed = s.place(load(), 0)
        assert placed.latency == 3

    def test_latency_override(self):
        s = Schedule("b", PLAYDOH_4W)
        placed = s.place(load(), 0, latency=7)
        assert placed.completion == 7

    def test_double_place_rejected(self):
        s = Schedule("b", PLAYDOH_4W)
        op = mov()
        s.place(op, 0)
        with pytest.raises(ValueError, match="twice"):
            s.place(op, 1)

    def test_negative_cycle_rejected(self):
        s = Schedule("b", PLAYDOH_4W)
        with pytest.raises(ValueError):
            s.place(mov(), -1)

    def test_length_is_last_completion(self):
        s = Schedule("b", PLAYDOH_4W)
        s.place(load("a"), 0)        # completes at 3
        s.place(mov("c", "d"), 1)    # completes at 2
        assert s.length == 3

    def test_empty_schedule(self):
        s = Schedule("b", PLAYDOH_4W)
        assert s.length == 0
        assert len(s) == 0
        assert s.instructions() == ()

    def test_instructions_grouped_by_cycle(self):
        s = Schedule("b", PLAYDOH_4W)
        a = mov("a", "x")
        b = mov("b", "y")
        c = mov("c", "z")
        s.place(a, 0)
        s.place(b, 0)
        s.place(c, 2)
        instrs = s.instructions()
        assert [i.cycle for i in instrs] == [0, 2]
        assert len(instrs[0]) == 2
        assert len(instrs[1]) == 1

    def test_issue_cycles_used(self):
        s = Schedule("b", PLAYDOH_4W)
        s.place(mov("a", "x"), 0)
        s.place(mov("b", "y"), 0)
        s.place(mov("c", "z"), 5)
        assert s.issue_cycles_used == 2

    def test_operations_sorted(self):
        s = Schedule("b", PLAYDOH_4W)
        late = mov("a", "x")
        early = mov("b", "y")
        s.place(late, 3)
        s.place(early, 1)
        assert [p.cycle for p in s.operations] == [1, 3]

    def test_str(self):
        s = Schedule("blk", PLAYDOH_4W)
        s.place(mov(), 0)
        text = str(s)
        assert "blk" in text and "cycle 0" in text


class TestComputedOnceQueries:
    def test_queries_are_immutable_and_kept(self):
        s = Schedule("b", PLAYDOH_4W)
        s.place(load("a"), 0)
        s.place(mov("c", "d"), 1)
        assert isinstance(s.operations, tuple) and s.operations is s.operations
        assert isinstance(s.instructions(), tuple)
        assert s.instructions() is s.instructions()

    def test_place_invalidates(self):
        s = Schedule("b", PLAYDOH_4W)
        s.place(mov("a", "x"), 0)
        assert (s.length, len(s.operations), len(s.instructions())) == (1, 1, 1)
        s.place(load("b"), 4)  # completes at 7
        assert (s.length, len(s.operations), len(s.instructions())) == (7, 2, 2)

    def test_reading_queries_does_not_change_the_pickle(self):
        s = Schedule("b", PLAYDOH_4W)
        s.place(load("a"), 0)
        s.place(mov("c", "d"), 1)
        s.place(mov("e", "f"), 1)
        before = pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL)
        assert s.length == 3 and len(s.instructions()) == 2 and len(s.operations) == 3
        assert pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL) == before
        clone = pickle.loads(before)
        assert clone.length == s.length
        assert [(i.cycle, [p.operation.op_id for p in i]) for i in clone.instructions()] == [
            (i.cycle, [p.operation.op_id for p in i]) for i in s.instructions()
        ]

    def test_copies_do_not_carry_kept_results(self):
        s = Schedule("b", PLAYDOH_4W)
        s.place(mov("a", "x"), 0)
        s.instructions()
        assert "_instructions" not in copy.copy(s).__dict__
