"""Integration: optimisation passes feeding the speculation pipeline."""

import pytest

from repro.compiler.manager import compile_program
from repro.core.program_sim import simulate_program
from repro.ir.builder import ProgramBuilder
from repro.machine.configs import PLAYDOH_4W
from repro.opt.passes import optimize_program
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace


def build_sloppy_program():
    """A loop with foldable constants, redundant copies and dead code —
    the kind of front-end output the classical passes exist to clean."""
    pb = ProgramBuilder("sloppy")
    fb = pb.function()
    fb.block("entry")
    fb.mov("i", 0)
    fb.mov("base_lo", 1000)
    fb.mov("base_hi", 24)        # constant chain fodder
    fb.br("loop")
    fb.block("loop")
    fb.mov("dead1", 99)                  # dead
    fb.mul("scaled", "base_hi", 2)       # constant: folds to 48
    fb.add("addr", "i", "base_lo")
    fb.mov("addr_copy", "addr")          # copy to propagate
    fb.load("v", "addr_copy")
    fb.add("t1", "v", "scaled")
    fb.mul("t2", "t1", 3)
    fb.add("t3", "t2", 1)
    fb.mov("dead2", "t3")                # dead (never read)
    fb.store("t3", "addr", offset=5000)
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", 80)
    fb.brcond("c", "loop", "exit")
    fb.block("exit")
    fb.halt()
    pb.add(fb.build())
    pb.memory(1000, [4 * k for k in range(80)])
    return pb.build()


class TestOptimizedPipeline:
    def test_passes_shrink_the_block(self):
        program = build_sloppy_program()
        optimized = optimize_program(program)
        assert len(optimized.main.block("loop")) < len(program.main.block("loop"))

    def test_optimized_program_still_speculates(self):
        optimized = optimize_program(build_sloppy_program())
        trace = capture_trace(optimized)
        profile = profile_program(optimized, trace)
        compilation = compile_program(optimized, PLAYDOH_4W, profile)
        assert "loop" in compilation.speculated_labels

    def test_optimization_before_speculation_is_a_pure_win(self):
        """Cleaning the block first gives the scheduler less clutter:
        the optimised+speculated machine is at least as fast."""
        program = build_sloppy_program()
        optimized = optimize_program(program)

        results = {}
        for label, prog in (("raw", program), ("optimized", optimized)):
            trace = capture_trace(prog)
            profile = profile_program(prog, trace)
            compilation = compile_program(prog, PLAYDOH_4W, profile)
            results[label] = simulate_program(compilation, trace)
        assert (
            results["optimized"].cycles_proposed
            <= results["raw"].cycles_proposed
        )
        # and the no-prediction machine is no slower either.
        assert results["optimized"].cycles_nopred <= results["raw"].cycles_nopred
