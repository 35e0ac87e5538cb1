"""Tests for the superscalar-style squash recovery model."""

import pytest

from repro.core.baseline import simulate_squash_block
from repro.core.machine_sim import simulate_best_case, simulate_worst_case
from repro.core.specsched import schedule_speculative
from repro.core.speculation import transform_block
from repro.ir.builder import FunctionBuilder
from repro.sched.list_scheduler import schedule_block


@pytest.fixture
def sched(m4):
    fb = FunctionBuilder("f")
    fb.block("entry")
    fb.mov("p", 100)
    l1 = fb.load("a", "p")
    fb.add("b", "a", 1)
    fb.mul("c", "b", "b")
    l2 = fb.load("x", "p", offset=1)
    fb.add("y", "x", 2)
    fb.store("c", "p", offset=10)
    fb.store("y", "p", offset=11)
    fb.halt()
    block = fb.build().block("entry")
    spec = transform_block(block, m4, [l1, l2])
    return schedule_speculative(
        spec, m4, original_length=schedule_block(block, m4).length
    ), m4


class TestSquash:
    def test_all_correct_runs_at_spec_length(self, sched):
        schedule, m4 = sched
        outcomes = {l: True for l in schedule.spec.ldpred_ids}
        run = simulate_squash_block(schedule, outcomes, m4)
        assert not run.squashed
        assert run.effective_length == schedule.length
        assert run.mispredictions == 0

    def test_any_misprediction_restarts_whole_block(self, sched):
        schedule, m4 = sched
        l1, l2 = schedule.spec.ldpred_ids
        run = simulate_squash_block(schedule, {l1: False, l2: True}, m4)
        assert run.squashed
        assert run.mispredictions == 1
        expected = (
            run.detected_at + m4.branch_penalty + schedule.original_length
        )
        assert run.effective_length == expected
        assert run.effective_length > schedule.original_length

    def test_detection_is_earliest_failing_check(self, sched):
        schedule, m4 = sched
        l1, l2 = schedule.spec.ldpred_ids
        t1 = schedule.schedule.completion_cycle(schedule.spec.check_of[l1])
        t2 = schedule.schedule.completion_cycle(schedule.spec.check_of[l2])
        both = simulate_squash_block(schedule, {l1: False, l2: False}, m4)
        assert both.detected_at == min(t1, t2)
        only_l1 = simulate_squash_block(schedule, {l1: False, l2: True}, m4)
        assert only_l1.detected_at == t1

    def test_squash_worse_than_parallel_recovery_on_mispredict(self, sched):
        schedule, m4 = sched
        outcomes = {l: False for l in schedule.spec.ldpred_ids}
        squash = simulate_squash_block(schedule, outcomes, m4)
        proposed = simulate_worst_case(schedule)
        assert squash.effective_length > proposed.effective_length

    def test_missing_outcomes_rejected(self, sched):
        schedule, m4 = sched
        with pytest.raises(ValueError, match="missing outcomes"):
            simulate_squash_block(schedule, {}, m4)

    def test_program_level_accounting(self):
        from repro.core.metrics import compile_program
        from repro.core.program_sim import simulate_program
        from repro.machine.configs import PLAYDOH_4W
        from repro.profiling.profile_run import profile_program
        from repro.trace.capture import capture_trace
        from repro.workloads.suite import load_benchmark

        program = load_benchmark("vortex", scale=0.4)
        trace = capture_trace(program)
        profile = profile_program(program, trace)
        compilation = compile_program(program, PLAYDOH_4W, profile)
        result = simulate_program(compilation, trace)
        assert result.cycles_squash > 0
        # Each mispredicted speculated instance squashes exactly once.
        assert result.squashed_instances > 0
        assert result.cycles_proposed <= result.cycles_squash
