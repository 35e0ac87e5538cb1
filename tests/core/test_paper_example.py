"""The paper's worked example (Figures 2/3/7): qualitative claims.

These tests pin the reproduction to the observations the paper makes
about its own example, which are the clearest executable statements of
the architecture's intended behaviour.
"""

import pytest

from repro.core.isa_ext import OpForm


class TestSchedules:
    def test_speculation_shortens_the_schedule(self, paper_example):
        assert (
            paper_example.spec_schedule.length
            < paper_example.original_schedule.length
        )

    def test_ops_10_and_11_are_nonspeculative(self, paper_example):
        spec = paper_example.spec_schedule.spec
        by_dest = {
            op.dest.name: spec.info[op.op_id].form
            for op in spec.operations
            if op.dest is not None
        }
        assert by_dest["r10"] is OpForm.NONSPEC
        assert by_dest["r11"] is OpForm.NONSPEC

    def test_consumers_are_speculated(self, paper_example):
        spec = paper_example.spec_schedule.spec
        by_dest = {
            op.dest.name: spec.info[op.op_id].form
            for op in spec.operations
            if op.dest is not None and spec.info[op.op_id].form is OpForm.SPECULATIVE
        }
        assert set(by_dest) == {"r5", "r6", "r8", "r9"}

    def test_two_predictions(self, paper_example):
        assert paper_example.spec_schedule.spec.num_predictions == 2


class TestScenarioTiming:
    def test_both_correct_runs_at_static_length(self, paper_example):
        run = paper_example.scenarios["both correct"]
        assert run.effective_length == paper_example.spec_schedule.length
        assert run.stall_cycles == 0
        assert run.executed == 0
        assert run.flushed == 4

    def test_r4_and_both_mispredicted_behave_identically(self, paper_example):
        """Paper: "the code executed on both the engines is identical as
        in the previous case" — the compensation code is the same whether
        load 4 or both loads mispredict, because ops 8 and 9 depend on
        both chains."""
        r4 = paper_example.scenarios["r4 mispredicted"]
        both = paper_example.scenarios["both mispredicted"]
        assert r4.effective_length == both.effective_length
        assert r4.executed == both.executed == 4
        assert r4.stall_cycles == both.stall_cycles

    def test_r7_case_recovers_fewer_ops_in_same_time(self, paper_example):
        """Paper: the r4 case has *larger* compensation code, yet the same
        schedule length, because its recovery starts earlier."""
        r7 = paper_example.scenarios["r7 mispredicted"]
        r4 = paper_example.scenarios["r4 mispredicted"]
        assert r7.executed == 2  # only ops 8 and 9 depend on r7
        assert r4.executed == 4  # ops 5, 6, 8, 9 depend on r4
        assert r7.effective_length == r4.effective_length

    def test_correctly_speculated_ops_flush(self, paper_example):
        r7 = paper_example.scenarios["r7 mispredicted"]
        assert r7.flushed == 2  # ops 5 and 6 (r4 chain) verified correct

    def test_every_scenario_counts_two_predictions(self, paper_example):
        for run in paper_example.scenarios.values():
            assert run.predictions == 2

    def test_misprediction_counts(self, paper_example):
        assert paper_example.scenarios["both correct"].mispredictions == 0
        assert paper_example.scenarios["r7 mispredicted"].mispredictions == 1
        assert paper_example.scenarios["r4 mispredicted"].mispredictions == 1
        assert paper_example.scenarios["both mispredicted"].mispredictions == 2


class TestTraces:
    def test_trace_shows_parallel_recovery(self, paper_example):
        from repro.obs.trace import CheckEvent, ExecuteEvent

        events = paper_example.logs["r4 mispredicted"].events()
        assert any(isinstance(e, ExecuteEvent) for e in events)
        assert any(
            isinstance(e, CheckEvent) and not e.correct for e in events
        )
        # Rendered text keeps the historical engine-prefixed wording.
        text = "\n".join(str(e) for e in events)
        assert "CCE: execute" in text
        assert "MISPREDICT" in text

    def test_flushes_precede_executions_in_r7_case(self, paper_example):
        """Figure 3(c): recovery starts only after the correctly
        speculated ops are flushed out of the CCB head."""
        from repro.obs.trace import ExecuteEvent, FlushEvent

        events = paper_example.logs["r7 mispredicted"].events()
        first_flush = min(e.cycle for e in events if isinstance(e, FlushEvent))
        first_exec = min(e.cycle for e in events if isinstance(e, ExecuteEvent))
        assert first_flush < first_exec

    def test_render_includes_all_scenarios(self, paper_example):
        from repro.evaluation.paper_example import render

        text = render(paper_example)
        for name in paper_example.scenarios:
            assert name in text
