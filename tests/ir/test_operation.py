"""Unit tests for operands and operation construction/validation."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm, Operation, Reg


def op(opcode, dest=None, srcs=(), op_id=1, **kw):
    return Operation(opcode=opcode, dest=dest, srcs=srcs, op_id=op_id, **kw)


class TestOperands:
    def test_reg_identity(self):
        assert Reg("r1") == Reg("r1")
        assert Reg("r1") != Reg("r2")
        assert str(Reg("r7")) == "r7"

    def test_imm(self):
        assert Imm(5) == Imm(5)
        assert str(Imm(5)) == "#5"
        assert Imm(1.5).value == 1.5

    def test_regs_hashable(self):
        assert len({Reg("a"), Reg("a"), Reg("b")}) == 2


class TestValidation:
    def test_alu_requires_dest(self):
        with pytest.raises(ValueError, match="destination"):
            op(Opcode.ADD, None, (Reg("a"), Reg("b")))

    def test_alu_arity_checked(self):
        with pytest.raises(ValueError, match="sources"):
            op(Opcode.ADD, Reg("d"), (Reg("a"),))
        with pytest.raises(ValueError, match="sources"):
            op(Opcode.MOV, Reg("d"), (Reg("a"), Reg("b")))

    def test_load_shape(self):
        load = op(Opcode.LOAD, Reg("d"), (Reg("base"),), offset=8)
        assert load.offset == 8
        with pytest.raises(ValueError):
            op(Opcode.LOAD, None, (Reg("base"),))
        with pytest.raises(ValueError):
            op(Opcode.LOAD, Reg("d"), (Reg("a"), Reg("b")))

    def test_store_shape(self):
        store = op(Opcode.STORE, None, (Reg("v"), Reg("base")))
        assert store.dest is None
        with pytest.raises(ValueError):
            op(Opcode.STORE, Reg("d"), (Reg("v"), Reg("base")))
        with pytest.raises(ValueError):
            op(Opcode.STORE, None, (Reg("v"),))

    def test_br_shape(self):
        br = op(Opcode.BR, targets=("out",))
        assert br.targets == ("out",)
        with pytest.raises(ValueError):
            op(Opcode.BR)

    def test_brcond_shape(self):
        brc = op(Opcode.BRCOND, None, (Reg("c"),), targets=("a", "b"))
        assert brc.targets == ("a", "b")
        with pytest.raises(ValueError):
            op(Opcode.BRCOND, None, (Reg("c"),), targets=("a",))
        with pytest.raises(ValueError):
            op(Opcode.BRCOND, None, (), targets=("a", "b"))

    def test_halt_takes_nothing(self):
        op(Opcode.HALT)
        with pytest.raises(ValueError):
            op(Opcode.HALT, Reg("d"))

    def test_ldpred_shape(self):
        ldp = op(Opcode.LDPRED, Reg("d"))
        assert ldp.dest == Reg("d")
        with pytest.raises(ValueError):
            op(Opcode.LDPRED, Reg("d"), (Reg("x"),))
        with pytest.raises(ValueError):
            op(Opcode.LDPRED)

    def test_chkpred_shape(self):
        chk = op(Opcode.CHKPRED, Reg("d"), (Reg("base"),), offset=4)
        assert chk.offset == 4
        with pytest.raises(ValueError):
            op(Opcode.CHKPRED, Reg("d"))


class TestDataflowQueries:
    def test_uses_only_registers(self):
        add = op(Opcode.ADD, Reg("d"), (Reg("a"), Imm(5)))
        assert list(add.uses()) == [Reg("a")]

    def test_defs(self):
        add = op(Opcode.ADD, Reg("d"), (Reg("a"), Reg("b")))
        assert list(add.defs()) == [Reg("d")]
        store = op(Opcode.STORE, None, (Reg("v"), Reg("base")))
        assert list(store.defs()) == []

    def test_store_uses_value_and_base(self):
        store = op(Opcode.STORE, None, (Reg("v"), Reg("base")))
        assert list(store.uses()) == [Reg("v"), Reg("base")]


class TestProperties:
    def test_branch_flags(self):
        assert op(Opcode.BR, targets=("x",)).is_branch
        assert op(Opcode.HALT).is_branch
        assert not op(Opcode.ADD, Reg("d"), (Reg("a"), Reg("b"))).is_branch

    def test_memory_flags(self):
        load = op(Opcode.LOAD, Reg("d"), (Reg("b"),))
        store = op(Opcode.STORE, None, (Reg("v"), Reg("b")))
        assert load.is_load and load.is_memory and not load.is_store
        assert store.is_store and store.is_memory and not store.is_load

    def test_side_effects(self):
        assert op(Opcode.STORE, None, (Reg("v"), Reg("b"))).has_side_effect
        assert op(Opcode.BR, targets=("x",)).has_side_effect
        assert not op(Opcode.LOAD, Reg("d"), (Reg("b"),)).has_side_effect
        assert not op(Opcode.ADD, Reg("d"), (Reg("a"), Reg("b"))).has_side_effect

    def test_unique_ids(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        a = fb.mov("r1", 0)
        b = fb.halt()
        assert (a.op_id, b.op_id) == (1, 2)

    def test_op_id_is_required(self):
        with pytest.raises(TypeError, match="op_id"):
            Operation(opcode=Opcode.HALT)

    def test_hash_by_id(self):
        a = op(Opcode.HALT)
        assert hash(a) == hash(a.op_id)

    def test_str_contains_opcode_and_operands(self):
        add = op(Opcode.ADD, Reg("d"), (Reg("a"), Imm(3)))
        text = str(add)
        assert "add" in text and "d" in text and "#3" in text
