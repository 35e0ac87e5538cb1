"""Unit tests for the fluent builders and the IR verifier."""

import pytest

from repro.ir.builder import FunctionBuilder, ProgramBuilder, as_operand, as_reg
from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm, Operation, Reg
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.verifier import VerificationError, check_function, verify_program


class TestOperandCoercion:
    def test_string_to_reg(self):
        assert as_operand("r1") == Reg("r1")

    def test_number_to_imm(self):
        assert as_operand(5) == Imm(5)
        assert as_operand(1.5) == Imm(1.5)

    def test_passthrough(self):
        assert as_operand(Reg("x")) == Reg("x")
        assert as_operand(Imm(2)) == Imm(2)

    def test_bad_operand(self):
        with pytest.raises(TypeError):
            as_operand(object())

    def test_as_reg(self):
        assert as_reg("a") == Reg("a")
        assert as_reg(Reg("a")) == Reg("a")
        with pytest.raises(TypeError):
            as_reg(5)


class TestFunctionBuilder:
    def test_emit_before_block_rejected(self):
        fb = FunctionBuilder("f")
        with pytest.raises(RuntimeError, match="open a block"):
            fb.mov("a", 1)

    def test_all_integer_emitters(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        emitters = [
            fb.add, fb.sub, fb.mul, fb.div, fb.mod, fb.and_, fb.or_,
            fb.xor, fb.shl, fb.shr, fb.min_, fb.max_,
            fb.cmpeq, fb.cmpne, fb.cmplt, fb.cmple, fb.cmpgt, fb.cmpge,
        ]
        for i, emit in enumerate(emitters):
            op = emit(f"d{i}", "a", i)
            assert op.dest == Reg(f"d{i}")
        fb.halt()
        f = fb.build()
        assert len(f.block("entry")) == len(emitters) + 1

    def test_unary_emitters(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        for emit, opc in [
            (fb.mov, Opcode.MOV),
            (fb.neg, Opcode.NEG),
            (fb.not_, Opcode.NOT),
            (fb.abs_, Opcode.ABS),
        ]:
            assert emit("d", "a").opcode is opc
        fb.halt()
        fb.build()

    def test_float_emitters(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        assert fb.fadd("d", "a", "b").opcode is Opcode.FADD
        assert fb.fsub("d", "a", "b").opcode is Opcode.FSUB
        assert fb.fmul("d", "a", 2.0).opcode is Opcode.FMUL
        assert fb.fdiv("d", "a", "b").opcode is Opcode.FDIV
        assert fb.fsqrt("d", "a").opcode is Opcode.FSQRT
        fb.halt()
        fb.build()

    def test_memory_emitters(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        load = fb.load("d", "p", offset=4)
        store = fb.store("d", "p", offset=8)
        assert load.offset == 4 and load.opcode is Opcode.LOAD
        assert store.offset == 8 and store.opcode is Opcode.STORE
        fb.halt()
        fb.build()

    def test_build_verifies(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.br("nowhere")
        with pytest.raises(VerificationError):
            fb.build()


class TestProgramBuilder:
    def test_memory_and_registers(self):
        pb = ProgramBuilder("p")
        fb = pb.function()
        fb.block("entry")
        fb.halt()
        pb.add(fb.build())
        pb.memory(100, [1, 2, 3]).register("r_arg", 9)
        program = pb.build()
        assert program.initial_memory == {100: 1, 101: 2, 102: 3}
        assert program.initial_registers == {"r_arg": 9}

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError, match="no functions"):
            ProgramBuilder("p").build()


class TestVerifier:
    def halted(self, label="entry"):
        return BasicBlock(label, [Operation(opcode=Opcode.HALT, op_id=1)])

    def test_function_without_blocks(self):
        problems = check_function(Function("f"))
        assert any("no blocks" in p for p in problems)

    def test_missing_entry(self):
        f = Function("f", entry_label="start")
        f.add_block(self.halted("other"))
        problems = check_function(f)
        assert any("entry" in p for p in problems)

    def test_missing_terminator(self):
        f = Function("f")
        blk = BasicBlock("entry")
        blk.append(
            Operation(opcode=Opcode.MOV, dest=Reg("a"), srcs=(Reg("b"),), op_id=1)
        )
        f.add_block(blk)
        problems = check_function(f)
        assert any("terminator" in p for p in problems)

    def test_unknown_branch_target(self):
        f = Function("f")
        f.add_block(
            BasicBlock("entry", [Operation(opcode=Opcode.BR, targets=("gone",), op_id=1)])
        )
        problems = check_function(f)
        assert any("unknown label" in p for p in problems)

    def test_prediction_forms_rejected_in_frontend_code(self):
        f = Function("f")
        blk = BasicBlock("entry")
        blk.append(Operation(opcode=Opcode.LDPRED, dest=Reg("a"), op_id=1))
        blk.append(Operation(opcode=Opcode.HALT, op_id=2))
        f.add_block(blk)
        problems = check_function(f)
        assert any("speculation pass" in p for p in problems)

    def test_verify_program(self):
        from repro.ir.program import Program

        program = Program("p")
        f = Function("main")
        f.add_block(self.halted())
        program.add_function(f)
        assert verify_program(program) is program

    def test_verify_program_missing_main(self):
        from repro.ir.program import Program

        program = Program("p", main="main")
        f = Function("helper")
        f.add_block(self.halted())
        program.add_function(f)
        with pytest.raises(VerificationError):
            verify_program(program)
