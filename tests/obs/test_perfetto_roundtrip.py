"""Perfetto export round-trip: the JSON on disk must agree with the
metrics snapshot of the very simulation it renders.

A block run's event log is exported via :mod:`repro.obs.perfetto`,
re-parsed from disk, and the span population is checked against the
metrics snapshot folded from the same log: every ``cce.flush``
increment is one flush span, every ``cce.reexec`` increment one execute
span, and both engine process tracks exist.
"""

import json

import pytest

from repro.core.machine_sim import trace_block
from repro.evaluation.paper_example import run_example
from repro.obs.perfetto import block_run_events, chrome_trace, write_trace


@pytest.fixture(scope="module")
def example():
    return run_example()


def _export_and_reload(tmp_path, spec_schedule, outcomes):
    run, log = trace_block(spec_schedule, outcomes)
    events = block_run_events(spec_schedule, run, log)
    path = tmp_path / "roundtrip.trace.json"
    write_trace(str(path), chrome_trace(events))
    return json.loads(path.read_text()), run.metrics, run


@pytest.mark.parametrize(
    "pattern", [(True, True), (True, False), (False, True), (False, False)]
)
def test_cce_span_counts_match_metrics_snapshot(tmp_path, example, pattern):
    l4, l7 = example.spec_schedule.spec.ldpred_ids
    payload, snapshot, run = _export_and_reload(
        tmp_path, example.spec_schedule, {l4: pattern[0], l7: pattern[1]}
    )
    spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    flush_spans = [e for e in spans if e.get("cat") == "flush"]
    execute_spans = [e for e in spans if e.get("cat") == "execute"]

    assert len(flush_spans) == snapshot.counter("cce.flush") == run.flushed
    assert len(execute_spans) == snapshot.counter("cce.reexec") == run.executed
    # Every speculated op ends up exactly once on the CCE pipeline:
    # flushed when its prediction held, re-executed when it did not.
    assert len(flush_spans) + len(execute_spans) == len(
        example.spec_schedule.spec.speculated_ops
    )


def test_both_engine_tracks_present_after_reload(tmp_path, example):
    l4, l7 = example.spec_schedule.spec.ldpred_ids
    payload, snapshot, _run = _export_and_reload(
        tmp_path, example.spec_schedule, {l4: True, l7: False}
    )
    process_names = {
        e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert any("VLIW Engine" in name for name in process_names)
    assert any("Compensation Code Engine" in name for name in process_names)

    # CCE spans live on the CCE process track, VLIW op spans on the other.
    cce_pids = {
        e["pid"]
        for e in payload["traceEvents"]
        if e.get("cat") in ("flush", "execute")
    }
    vliw_pids = {
        e["pid"]
        for e in payload["traceEvents"]
        if e.get("ph") == "X" and e["name"].startswith("op")
        and e.get("cat") not in ("flush", "execute")
    }
    assert cce_pids and vliw_pids and cce_pids.isdisjoint(vliw_pids)
