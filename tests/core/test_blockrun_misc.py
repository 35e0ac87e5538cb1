"""Small-surface tests: BlockRun presentation, ProgramSimResult helpers,
and the asm formatting of compiler-introduced forms."""

import pytest

from repro.core.metrics import OutcomeClass
from repro.core.program_sim import ProgramSimResult
from repro.ir.asm import format_operation_asm
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg


class TestBlockRunPresentation:
    def test_str(self, paper_example):
        run = paper_example.scenarios["r7 mispredicted"]
        text = str(run)
        assert "1/2 mispredicted" in text
        assert "cycles" in text

    def test_classification_flags(self, paper_example):
        runs = paper_example.scenarios
        assert runs["both correct"].all_correct
        assert not runs["both correct"].all_incorrect
        assert runs["both mispredicted"].all_incorrect
        mixed = runs["r7 mispredicted"]
        assert not mixed.all_correct and not mixed.all_incorrect


class TestProgramSimResultHelpers:
    def test_empty_result_defaults(self):
        result = ProgramSimResult(program_name="p", machine_name="m")
        assert result.speedup_proposed == 1.0
        assert result.speedup_baseline == 1.0
        assert result.speedup_squash == 1.0
        assert result.prediction_accuracy == 0.0
        assert result.time_fraction(OutcomeClass.ALL_CORRECT) == 0.0
        assert result.baseline_compensation_fraction == 0.0


class TestPredictionFormAsm:
    def test_ldpred_formats(self):
        op = Operation(opcode=Opcode.LDPRED, dest=Reg("r4"), op_id=1)
        assert format_operation_asm(op) == "ldpred r4"

    def test_chkpred_formats_like_a_load(self):
        op = Operation(
            opcode=Opcode.CHKPRED, dest=Reg("r4"), srcs=(Reg("r3"),), offset=8,
            op_id=1,
        )
        assert format_operation_asm(op) == "chkpred r4, [r3+8]"

    def test_prediction_forms_do_not_parse(self):
        from repro.ir.asm import AsmSyntaxError, parse_operation

        with pytest.raises(AsmSyntaxError):
            parse_operation("ldpred r4")
        with pytest.raises(AsmSyntaxError):
            parse_operation("chkpred r4, [r3]")
