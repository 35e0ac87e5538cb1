"""Tests for region enlargement: loop unrolling."""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.verifier import verify_function
from repro.profiling.interpreter import run_program
from repro.regions.unroll import (
    UnrollError,
    check_unrollable,
    unroll_loop,
    unroll_program_loop,
)


def counted_loop_program(trips=40, store_addr=5000):
    pb = ProgramBuilder("t")
    fb = pb.function()
    fb.block("entry")
    fb.mov("i", 0)
    fb.mov("acc", 0)
    fb.br("loop")
    fb.block("loop")
    fb.add("addr", "i", 1000)
    fb.load("v", "addr")
    fb.add("acc", "acc", "v")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", trips)
    fb.brcond("c", "loop", "exit")
    fb.block("exit")
    fb.store("acc", "i", offset=store_addr)
    fb.halt()
    pb.add(fb.build())
    pb.memory(1000, [3 * k + 1 for k in range(trips)])
    return pb.build()


class TestUnrollLoop:
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_equivalence_when_divisible(self, factor):
        program = counted_loop_program(trips=40)
        unrolled = unroll_program_loop(program, "loop", factor)
        base = run_program(program)
        new = run_program(unrolled)
        original_regs = {
            k: v for k, v in new.registers.items() if "__u" not in k
        }
        assert original_regs == base.registers
        assert new.memory.snapshot() == base.memory.snapshot()

    def test_fewer_dynamic_operations(self):
        program = counted_loop_program(trips=40)
        unrolled = unroll_program_loop(program, "loop", 4)
        assert (
            run_program(unrolled).dynamic_operations
            < run_program(program).dynamic_operations
        )

    def test_indivisible_trip_count_diverges(self):
        # 41 trips, factor 2: the elided mid-block exit test makes the
        # unrolled program run one extra half-iteration — the
        # architectural-equivalence check used by the experiments must
        # catch exactly this.
        program = counted_loop_program(trips=41)
        unrolled = unroll_program_loop(program, "loop", 2)
        base = run_program(program)
        new = run_program(unrolled)
        assert new.registers["i"] != base.registers["i"]

    def test_unrolled_block_is_larger(self):
        program = counted_loop_program()
        unrolled = unroll_program_loop(program, "loop", 2)
        original = program.main.block("loop")
        bigger = unrolled.main.block("loop")
        # 2x the body minus one elided compare, plus the branch.
        assert len(bigger) == 2 * len(original.body) - 1 + 1

    def test_renaming_exposes_parallelism(self, m4):
        from repro.sched.list_scheduler import schedule_block

        program = counted_loop_program()
        unrolled = unroll_program_loop(program, "loop", 2)
        single = schedule_block(program.main.block("loop"), m4).length
        double = schedule_block(unrolled.main.block("loop"), m4).length
        # Two renamed iterations overlap: much cheaper than 2x serial.
        assert double < 2 * single

    def test_verifies(self):
        program = counted_loop_program()
        unrolled = unroll_program_loop(program, "loop", 2)
        verify_function(unrolled.main)

    def test_factor_validation(self):
        program = counted_loop_program()
        with pytest.raises(UnrollError, match="factor"):
            unroll_loop(program.main, "loop", 1)

    def test_non_loop_rejected(self):
        program = counted_loop_program()
        with pytest.raises(UnrollError, match="self-loop"):
            unroll_loop(program.main, "exit", 2)

    def test_condition_with_other_uses_rejected(self):
        with pytest.raises(UnrollError, match="feed only the branch"):
            unroll_loop(escaping_condition_program().main, "loop", 2)


def escaping_condition_program():
    pb = ProgramBuilder("t")
    fb = pb.function()
    fb.block("entry")
    fb.mov("i", 0)
    fb.br("loop")
    fb.block("loop")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", 10)
    fb.add("x", "c", 1)  # condition escapes into the dataflow
    fb.brcond("c", "loop", "exit")
    fb.block("exit")
    fb.halt()
    pb.add(fb.build())
    return pb.build()


class TestCheckUnrollable:
    """The structural checks alone: the same verdicts and messages as
    :func:`unroll_loop`, without building anything."""

    @pytest.mark.parametrize(
        "program, label, factor",
        [
            (counted_loop_program(), "loop", 1),
            (counted_loop_program(), "exit", 2),
            (counted_loop_program(), "entry", 4),
            (escaping_condition_program(), "loop", 2),
        ],
        ids=["factor", "not-a-loop", "no-brcond", "escaping-condition"],
    )
    def test_rejects_with_the_unrollers_message(self, program, label, factor):
        with pytest.raises(UnrollError) as checked:
            check_unrollable(program.main, label, factor)
        with pytest.raises(UnrollError) as unrolled:
            unroll_loop(program.main, label, factor)
        assert str(checked.value) == str(unrolled.value)

    def test_accepts_and_returns_the_condition(self):
        program = counted_loop_program()
        ops = [list(block.operations) for block in program.main]
        cond_def = check_unrollable(program.main, "loop", 4)
        assert str(cond_def).endswith("cmplt c i #40")
        assert cond_def in program.main.block("loop").operations
        assert [list(block.operations) for block in program.main] == ops
