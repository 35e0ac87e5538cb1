"""Tests for the Figure-7-style timeline renderer."""

import pytest

from repro.core.machine_sim import trace_block
from repro.core.timeline import render_timeline


@pytest.fixture
def traced_run(paper_example):
    sched = paper_example.spec_schedule
    l4, l7 = sched.spec.ldpred_ids
    return (sched,) + trace_block(sched, {l4: True, l7: False})


class TestRenderTimeline:
    def test_header_summarises_run(self, traced_run):
        sched, run, log = traced_run
        text = render_timeline(sched, run, log)
        assert f"{run.effective_length} cycles" in text
        assert "1/2 mispredicted" in text

    def test_all_forms_annotated(self, traced_run):
        sched, run, log = traced_run
        text = render_timeline(sched, run, log)
        for glyph in ("[LdPred]", "[check]", "[spec]", "[nonspec]"):
            assert glyph in text

    def test_sync_bit_annotations(self, traced_run):
        sched, run, log = traced_run
        text = render_timeline(sched, run, log)
        assert "+b0" in text      # LdPred sets bit 0
        assert "?b{" in text      # non-speculative wait masks

    def test_cce_activity_shown(self, traced_run):
        sched, run, log = traced_run
        text = render_timeline(sched, run, log)
        assert "flush op" in text
        assert "execute op" in text
        assert "done @" in text

    def test_events_column(self, traced_run):
        sched, run, log = traced_run
        text = render_timeline(sched, run, log)
        assert "MISPREDICT" in text
        assert "stall" in text

    def test_every_issued_op_appears(self, traced_run):
        sched, run, log = traced_run
        text = render_timeline(sched, run, log)
        for op in sched.spec.operations:
            assert f"op{op.op_id} " in text

    def test_issue_times_and_cc_events_recorded(self, traced_run):
        sched, run, log = traced_run
        assert len(log.issue_times()) == len(sched.spec.operations)
        assert len(log.cc_events()) == run.flushed + run.executed
        for start, kind, op_id, completion in log.cc_events():
            assert kind in ("flush", "execute")
            assert completion > start
