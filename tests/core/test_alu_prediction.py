"""Tests for predicting ALU results (the paper's general formulation)."""

import pytest

from repro.core.isa_ext import OpForm
from repro.core.machine_sim import (
    simulate_all_outcomes,
    simulate_best_case,
    simulate_worst_case,
)
from repro.core.specsched import schedule_speculative
from repro.core.speculation import SpeculationConfig, speculate_block, transform_block
from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.opcodes import Opcode
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.sched.list_scheduler import schedule_block
from repro.trace.capture import capture_trace


def mul_chain_block():
    """A long-latency mul heads the chain; its inputs are cheap."""
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("a", 6)
    fb.mov("b", 7)
    mul = fb.mul("m", "a", "b")
    fb.add("c", "m", 1)
    fb.add("d", "c", 2)
    fb.add("e", "d", 3)
    fb.store("e", "a", offset=9)
    fb.halt()
    return fb.build().block("entry"), mul


class TestAluTransform:
    def test_check_is_the_op_itself(self, m4):
        block, mul = mul_chain_block()
        spec = transform_block(block, m4, [mul])
        check_id = spec.check_of[spec.ldpred_ids[0]]
        check = next(op for op in spec.operations if op.op_id == check_id)
        assert check.opcode is Opcode.MUL
        assert check.srcs == mul.srcs

    def test_consumers_speculate_off_the_prediction(self, m4):
        block, mul = mul_chain_block()
        spec = transform_block(block, m4, [mul])
        forms = [spec.info[op.op_id].form for op in spec.operations]
        assert forms.count(OpForm.SPECULATIVE) == 3  # the three adds

    def test_schedule_improves(self, m4):
        block, mul = mul_chain_block()
        original = schedule_block(block, m4).length
        spec = transform_block(block, m4, [mul])
        sched = schedule_speculative(spec, m4, original_length=original)
        assert sched.length < original

    def test_all_outcome_invariants(self, m4):
        block, mul = mul_chain_block()
        original = schedule_block(block, m4).length
        spec = transform_block(block, m4, [mul])
        sched = schedule_speculative(spec, m4, original_length=original)
        best = simulate_best_case(sched)
        worst = simulate_worst_case(sched)
        assert best.stall_cycles == 0
        assert best.effective_length == sched.length
        assert worst.executed == 3
        assert worst.effective_length >= best.effective_length


class TestAluSelection:
    def build_program(self):
        """A loop whose mul result is highly predictable (stable inputs)
        and heads the longest chain; no load qualifies."""
        pb = ProgramBuilder("alu")
        fb = pb.function()
        fb.block("entry")
        fb.mov("i", 0)
        fb.mov("k", 13)
        fb.br("loop")
        fb.block("loop")
        fb.load("noise", "i", offset=7000)   # random values: unpredictable
        fb.mul("m", "k", "k")                # constant inputs: predictable
        fb.add("c1", "m", 1)
        fb.mul("c2", "c1", 3)
        fb.add("c3", "c2", "noise")
        fb.store("c3", "i", offset=8000)
        fb.add("i", "i", 1)
        fb.cmplt("cond", "i", 50)
        fb.brcond("cond", "loop", "exit")
        fb.block("exit")
        fb.halt()
        pb.add(fb.build())
        import random

        rng = random.Random(3)
        pb.memory(7000, [rng.randrange(1 << 16) for _ in range(50)])
        return pb.build()

    def test_alu_candidate_selected_only_with_flag(self):
        program = self.build_program()
        trace = capture_trace(program)
        profile = profile_program(program, trace, profile_alu=True)
        block = program.main.block("loop")

        without = speculate_block(
            block, PLAYDOH_4W, profile.values, config=SpeculationConfig()
        )
        with_alu = speculate_block(
            block,
            PLAYDOH_4W,
            profile.values,
            config=SpeculationConfig(predict_alu=True),
        )
        assert without is None  # the only predictable value is the mul
        assert with_alu is not None
        predicted = with_alu.predicted_load_of[with_alu.ldpred_ids[0]]
        mul = next(
            op for op in block.operations
            if op.opcode is Opcode.MUL and op.dest.name == "m"
        )
        assert predicted == mul.op_id

    def test_profile_without_alu_tracking_blocks_selection(self):
        program = self.build_program()
        trace = capture_trace(program)
        profile = profile_program(program, trace)  # loads only
        block = program.main.block("loop")
        spec = speculate_block(
            block,
            PLAYDOH_4W,
            profile.values,
            config=SpeculationConfig(predict_alu=True),
        )
        assert spec is None  # the mul was never profiled

    def test_end_to_end_dynamic_simulation(self):
        from repro.compiler.manager import compile_program
        from repro.core.program_sim import simulate_program

        program = self.build_program()
        trace = capture_trace(program)
        profile = profile_program(program, trace, profile_alu=True)
        compilation = compile_program(
            program,
            PLAYDOH_4W,
            profile,
            config=SpeculationConfig(predict_alu=True),
        )
        assert compilation.speculated_labels == ["loop"]
        result = simulate_program(compilation, trace)
        # the mul's value stream is constant: near-perfect prediction
        assert result.prediction_accuracy > 0.9
        assert result.cycles_proposed < result.cycles_nopred
