"""End-to-end fuzzing of the full pipeline on random programs.

Each seed produces a random program that is profiled, compiled for both
machines and dynamically simulated; the pipeline's cross-stage
invariants must hold on every one of them.
"""

import pytest

from repro.compiler.manager import compile_program

from repro.core.metrics import OutcomeClass
from repro.core.program_sim import simulate_program
from repro.ir.verifier import verify_program
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.profiling.interpreter import Interpreter
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.synthetic import random_program

SEEDS = list(range(24))


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_invariants_on_random_program(seed):
    program = random_program(seed)
    verify_program(program)
    assert Interpreter().run(program).halted
    trace = capture_trace(program)
    profile = profile_program(program, trace)

    for machine in (PLAYDOH_4W, PLAYDOH_8W):
        compilation = compile_program(program, machine, profile)

        # Static invariants: speculation only ever shortens the best case.
        for label in compilation.speculated_labels:
            block_comp = compilation.block(label)
            best = block_comp.best_case()
            assert best.effective_length < block_comp.original_length
            assert best.stall_cycles == 0
            worst = block_comp.worst_case()
            assert worst.effective_length >= best.effective_length

        result = simulate_program(compilation, trace)

        # Accounting invariants.
        assert sum(result.cycles_by_class.values()) == result.cycles_proposed
        assert sum(result.instances_by_class.values()) == result.dynamic_blocks
        assert 0 <= result.mispredictions <= result.predictions
        # All-correct instances ran at their (strictly improved) static
        # schedule, so their cycles stay below the original.
        assert result.cycles_by_class.get(
            OutcomeClass.ALL_CORRECT, 0
        ) <= result.original_cycles_by_class.get(OutcomeClass.ALL_CORRECT, 0)
        # Unspeculated instances cost exactly their original schedule.
        assert result.cycles_by_class.get(
            OutcomeClass.NOT_SPECULATED, 0
        ) == result.original_cycles_by_class.get(OutcomeClass.NOT_SPECULATED, 0)


def test_random_program_deterministic():
    a = random_program(7)
    b = random_program(7)
    from repro.ir.asm import format_program_asm

    assert format_program_asm(a) == format_program_asm(b)


def test_random_programs_differ_across_seeds():
    from repro.ir.asm import format_program_asm

    texts = {format_program_asm(random_program(s)) for s in range(6)}
    assert len(texts) == 6


def test_random_programs_have_varied_predictability():
    """Across seeds, the generator produces both predictable and
    unpredictable loads (otherwise the fuzz never exercises thresholds)."""
    rates = []
    for seed in range(8):
        program = random_program(seed)
        profile = profile_program(program, capture_trace(program))
        rates.extend(
            stats.best_rate for stats in profile.values.loads.values()
        )
    assert any(rate >= 0.9 for rate in rates)
    assert any(rate <= 0.3 for rate in rates)
