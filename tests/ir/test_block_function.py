"""Unit tests for basic blocks and functions (CFG structure)."""

import itertools

import pytest

from repro.ir.block import BasicBlock
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg


_ids = itertools.count(1)


def mk(opcode, dest=None, srcs=(), **kw):
    return Operation(opcode=opcode, dest=dest, srcs=srcs, op_id=next(_ids), **kw)


class TestBasicBlock:
    def test_branch_must_be_last(self):
        ops = [mk(Opcode.BR, targets=("x",)), mk(Opcode.MOV, Reg("a"), (Reg("b"),))]
        with pytest.raises(ValueError, match="not the last"):
            BasicBlock("bad", ops)

    def test_append_after_terminator_rejected(self):
        blk = BasicBlock("b")
        blk.append(mk(Opcode.HALT))
        with pytest.raises(ValueError, match="terminated"):
            blk.append(mk(Opcode.MOV, Reg("a"), (Reg("b"),)))

    def test_terminator_and_body(self):
        blk = BasicBlock("b")
        mov = blk.append(mk(Opcode.MOV, Reg("a"), (Reg("b"),)))
        br = blk.append(mk(Opcode.BR, targets=("x",)))
        assert blk.terminator is br
        assert blk.body == [mov]

    def test_no_terminator(self):
        blk = BasicBlock("b", [mk(Opcode.MOV, Reg("a"), (Reg("b"),))])
        assert blk.terminator is None
        assert len(blk.body) == 1

    def test_successor_labels(self):
        blk = BasicBlock("b", [mk(Opcode.BRCOND, None, (Reg("c"),), targets=("t", "f"))])
        assert blk.successor_labels() == ("t", "f")

    def test_halt_has_no_successors(self):
        blk = BasicBlock("b", [mk(Opcode.HALT)])
        assert blk.successor_labels() == ()

    def test_regs_used_and_defined(self):
        blk = BasicBlock("b")
        blk.append(mk(Opcode.ADD, Reg("c"), (Reg("a"), Reg("b"))))
        blk.append(mk(Opcode.MOV, Reg("d"), (Reg("c"),)))
        assert blk.regs_used() == {Reg("a"), Reg("b"), Reg("c")}
        assert blk.regs_defined() == {Reg("c"), Reg("d")}

    def test_upward_exposed_uses(self):
        blk = BasicBlock("b")
        blk.append(mk(Opcode.ADD, Reg("c"), (Reg("a"), Reg("b"))))
        blk.append(mk(Opcode.MOV, Reg("d"), (Reg("c"),)))
        # c is defined before its use, so only a and b are exposed.
        assert blk.upward_exposed_uses() == {Reg("a"), Reg("b")}

    def test_loads(self):
        blk = BasicBlock("b")
        load = blk.append(mk(Opcode.LOAD, Reg("d"), (Reg("p"),)))
        blk.append(mk(Opcode.MOV, Reg("e"), (Reg("d"),)))
        assert blk.loads() == [load]

    def test_len_iter_str(self):
        blk = BasicBlock("b", [mk(Opcode.HALT)])
        assert len(blk) == 1
        assert list(blk)[0].opcode is Opcode.HALT
        assert "b:" in str(blk)


class TestFunction:
    def build_diamond(self) -> Function:
        fb = FunctionBuilder("diamond")
        fb.block("entry")
        fb.cmplt("c", "a", 5)
        fb.brcond("c", "then", "else")
        fb.block("then")
        fb.mov("x", 1)
        fb.br("join")
        fb.block("else")
        fb.mov("x", 2)
        fb.br("join")
        fb.block("join")
        fb.halt()
        return fb.build()

    def test_blocks_in_insertion_order(self):
        f = self.build_diamond()
        assert [b.label for b in f.blocks] == ["entry", "then", "else", "join"]

    def test_duplicate_label_rejected(self):
        f = Function("f")
        f.add_block(BasicBlock("a", [mk(Opcode.HALT)]))
        with pytest.raises(ValueError, match="duplicate"):
            f.add_block(BasicBlock("a", [mk(Opcode.HALT)]))

    def test_successors_predecessors(self):
        f = self.build_diamond()
        assert {b.label for b in f.successors("entry")} == {"then", "else"}
        assert {b.label for b in f.predecessors("join")} == {"then", "else"}
        assert f.predecessors("entry") == []

    def test_missing_block_raises(self):
        f = self.build_diamond()
        with pytest.raises(KeyError, match="no block"):
            f.block("nope")

    def test_reachable_labels(self):
        f = Function("f")
        f.add_block(BasicBlock("entry", [mk(Opcode.BR, targets=("mid",))]))
        f.add_block(BasicBlock("mid", [mk(Opcode.HALT)]))
        f.add_block(BasicBlock("island", [mk(Opcode.HALT)]))
        assert f.reachable_labels() == {"entry", "mid"}

    def test_entry_property(self):
        f = self.build_diamond()
        assert f.entry.label == "entry"
        assert len(f) == 4
