"""Chrome trace-event export: structure, validation, runner spans."""

import json

import pytest

from repro.evaluation.paper_example import run_example
from repro.obs.perfetto import (
    RUNNER_PID,
    block_run_events,
    chrome_trace,
    runner_span_events,
    validate_chrome_trace,
    write_trace,
)
from repro.core.machine_sim import trace_block


@pytest.fixture(scope="module")
def example():
    return run_example()


@pytest.fixture(scope="module")
def trace_events(example):
    run = example.scenarios["r7 mispredicted"]
    return block_run_events(
        example.spec_schedule, run, example.logs["r7 mispredicted"]
    )


class TestBlockRunEvents:
    def test_both_engine_processes_present(self, trace_events):
        names = {
            e["args"]["name"]
            for e in trace_events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any("VLIW Engine" in n for n in names)
        assert any("Compensation Code Engine" in n for n in names)

    def test_op_spans_cover_issue_times(self, example, trace_events):
        log = example.logs["r7 mispredicted"]
        op_spans = [
            e for e in trace_events if e["ph"] == "X" and e["name"].startswith("op")
        ]
        assert len(op_spans) == len(log.issue_times())

    def test_cce_spans_on_second_process(self, trace_events):
        cce = [
            e
            for e in trace_events
            if e["ph"] == "X" and ("flush" in e["name"] or "execute" in e["name"])
        ]
        assert cce
        assert {e["pid"] for e in cce} == {2}

    def test_base_pid_offsets_processes(self, example):
        run = example.scenarios["r7 mispredicted"]
        events = block_run_events(
            example.spec_schedule, run, example.logs["r7 mispredicted"], base_pid=10
        )
        assert {e["pid"] for e in events} == {11, 12}

    def test_validates_clean(self, trace_events):
        assert validate_chrome_trace(chrome_trace(trace_events)) == []


class TestRunnerSpanEvents:
    def _stream(self):
        return [
            {"ts": 0.0, "event": "run_start", "total_jobs": 2},
            {"ts": 0.1, "event": "job_start", "job": "profile:li",
             "stage": "profile", "key": "k1"},
            {"ts": 0.6, "event": "job_finish", "job": "profile:li",
             "stage": "profile", "key": "k1", "cached": False,
             "wall_time": 0.5},
            {"ts": 0.7, "event": "job_finish", "job": "simulate:li",
             "stage": "simulate", "key": "k2", "cached": True,
             "wall_time": 0.0},
            {"ts": 0.8, "event": "job_failed", "job": "simulate:x",
             "stage": "simulate", "key": "k3", "error": "boom"},
            {"ts": 0.9, "event": "run_finish", "executed": 1, "cache_hits": 1,
             "cache_misses": 1, "failures": 1, "wall_time": 0.9,
             "executed_by_stage": {"profile": 1}},
        ]

    def test_job_pairs_become_spans(self):
        events = runner_span_events(self._stream())
        spans = [e for e in events if e["ph"] == "X" and e["name"] == "profile:li"]
        assert len(spans) == 1
        assert spans[0]["pid"] == RUNNER_PID
        assert spans[0]["dur"] == pytest.approx(0.5e6)

    def test_cached_jobs_become_instants(self):
        events = runner_span_events(self._stream())
        instants = [e for e in events if e["ph"] == "i"]
        assert any("cached" in e["name"] for e in instants)

    def test_failures_become_instants(self):
        events = runner_span_events(self._stream())
        assert any(
            e["ph"] == "i" and e["name"].startswith("FAILED") for e in events
        )

    def test_run_span_encloses_everything(self):
        events = runner_span_events(self._stream())
        run = [e for e in events if e["ph"] == "X" and e["name"] == "run"]
        assert len(run) == 1
        assert run[0]["dur"] == pytest.approx(0.9e6)

    def test_stage_threads_named(self):
        events = runner_span_events(self._stream())
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"profile", "simulate", "run"} <= names

    def test_validates_clean(self):
        assert validate_chrome_trace(chrome_trace(runner_span_events(self._stream()))) == []


class TestValidation:
    def test_accepts_bare_array(self):
        assert validate_chrome_trace([]) == []

    def test_rejects_non_container(self):
        assert validate_chrome_trace(42)

    def test_rejects_missing_fields(self):
        problems = validate_chrome_trace([{"ph": "i"}])
        assert any("lacks" in p for p in problems)

    def test_rejects_span_without_duration(self):
        event = {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 0}
        assert any("dur" in p for p in validate_chrome_trace([event]))

    def test_rejects_unserialisable(self):
        event = {"name": "x", "ph": "i", "pid": 1, "tid": 0, "ts": 0,
                 "args": {"bad": object()}}
        assert any("serialisable" in p for p in validate_chrome_trace([event]))


class TestWriteTrace:
    def test_roundtrip(self, tmp_path, trace_events):
        path = tmp_path / "out.trace.json"
        write_trace(str(path), chrome_trace(trace_events, other_data={"k": "v"}))
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"] == {"k": "v"}
        assert len(payload["traceEvents"]) == len(trace_events)

    def test_invalid_payload_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid chrome trace"):
            write_trace(str(tmp_path / "bad.json"), {"traceEvents": [{}]})


class TestCycleCounterTrack:
    """CPI counter tracks and buffer-stall spans in the block export."""

    @pytest.fixture(scope="class")
    def cycles_run(self, example):
        outcomes = {l: False for l in example.spec_schedule.spec.ldpred_ids}
        return trace_block(example.spec_schedule, outcomes)

    def test_counter_events_per_cause(self, example, cycles_run):
        run, log = cycles_run
        events = block_run_events(example.spec_schedule, run, log)
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters, "no counter events emitted"
        assert all(e["name"].startswith("cpi:") for e in counters)
        # Cumulative: the last sample per cause equals the stack total.
        finals = {}
        for e in counters:
            finals[e["name"][len("cpi:"):]] = e["args"]["cycles"]
        assert finals == dict(run.cycle_stack)
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_ccb_stall_becomes_span(self, example):
        outcomes = {l: False for l in example.spec_schedule.spec.ldpred_ids}
        run, log = trace_block(example.spec_schedule, outcomes, ccb_capacity=3)
        assert dict(run.cycle_stack).get("ccb_pressure", 0) > 0
        events = block_run_events(example.spec_schedule, run, log)
        spans = [
            e
            for e in events
            if e.get("cat") == "buffer" and e.get("ph") == "X"
        ]
        assert spans, "CCB stall did not render as a span"
        assert all(e["dur"] > 0 for e in spans)
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_ovb_overflow_becomes_instant(self, example):
        from repro.obs.trace import BlockLog

        run = example.scenarios["r7 mispredicted"]
        boosted = BlockLog(example.logs["r7 mispredicted"])
        boosted.append(("buffer_stall", 4, "ovb", 99, 0))
        events = block_run_events(example.spec_schedule, run, boosted)
        instants = [
            e
            for e in events
            if e.get("cat") == "buffer" and e.get("ph") == "i"
        ]
        assert len(instants) == 1
        assert validate_chrome_trace(chrome_trace(events)) == []
