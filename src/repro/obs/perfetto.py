"""Chrome trace-event / Perfetto JSON export.

Renders the dual-engine simulation and the runner's pipeline stages in
the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
which both ``chrome://tracing`` and https://ui.perfetto.dev open
directly.

Track layout for one simulated block (:func:`block_run_events`):

* a **VLIW Engine** process with one thread per issue slot (operation
  spans, duration = latency), a *stalls* thread (sync-bit stall spans),
  a *verify* thread (check verdicts as instants) and a *sync bits*
  thread (set/clear instants);
* a **Compensation Code Engine** process whose *pipeline* thread carries
  flush/execute spans;
* one ``cpi:<cause>`` counter track per cycle-accounting cause
  (cumulative cycles), on the VLIW Engine process.

Simulator timestamps are cycles, exported 1 cycle = 1 µs so Perfetto's
zoom and duration readouts show cycle counts directly.

:func:`runner_span_events` converts a :mod:`repro.runner.events` stream
(the ``--events`` JSONL) into per-stage spans: each ``job_start`` /
``job_finish`` pair becomes a span on its stage's thread, cache hits
become instants, and the whole run is one enclosing span.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.trace import (
    BitClearEvent,
    BufferStallEvent,
    CheckEvent,
    BlockLog,
    ExecuteEvent,
    FlushEvent,
    StallEvent,
    SyncClearEvent,
    SyncSetEvent,
)

#: pid reserved for the runner's pipeline-stage tracks.
RUNNER_PID = 1000


def _meta(name: str, pid: int, tid: Optional[int] = None, label: str = "") -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "name": name,
        "ph": "M",
        "pid": pid,
        "tid": tid if tid is not None else 0,
        "ts": 0,
        "args": {"name": label},
    }
    return event


def _span(
    name: str,
    ts: float,
    dur: float,
    pid: int,
    tid: int,
    cat: str = "sim",
    args: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = dict(args)
    return event


def _instant(
    name: str,
    ts: float,
    pid: int,
    tid: int,
    cat: str = "sim",
    args: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "ts": ts,
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = dict(args)
    return event


def _counter(
    name: str, ts: float, pid: int, value: float, cat: str = "cpi"
) -> Dict[str, Any]:
    """A counter-track sample (``ph: "C"``); one track per ``name``."""
    return {
        "name": name,
        "cat": cat,
        "ph": "C",
        "ts": ts,
        "pid": pid,
        "tid": 0,
        "args": {"cycles": value},
    }


def block_run_events(
    spec_schedule: Any,
    run: Any,
    log: BlockLog,
    base_pid: int = 0,
    title: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Trace events for one :class:`~repro.core.machine_sim.BlockRun`,
    read from its event log (both from
    :func:`~repro.core.machine_sim.trace_block`).

    ``base_pid`` offsets the process ids so several blocks can coexist in
    one trace file (each block claims ``base_pid+1`` and ``base_pid+2``).
    """
    label = title or run.label
    pid_vliw = base_pid + 1
    pid_cce = base_pid + 2

    # Static facts per op: issue-slot index, latency, opcode, form.
    slot_of: Dict[int, int] = {}
    latency_of: Dict[int, int] = {}
    max_slots = 1
    for instr in spec_schedule.schedule.instructions():
        for index, slot in enumerate(instr.slots):
            slot_of[slot.operation.op_id] = index
            latency_of[slot.operation.op_id] = slot.latency
            max_slots = max(max_slots, index + 1)
    spec = spec_schedule.spec
    by_id = {op.op_id: op for op in spec.operations}

    tid_stalls = max_slots
    tid_verify = max_slots + 1
    tid_sync = max_slots + 2

    events: List[Dict[str, Any]] = [
        _meta("process_name", pid_vliw, label=f"{label}: VLIW Engine"),
        _meta("process_name", pid_cce, label=f"{label}: Compensation Code Engine"),
        _meta("thread_name", pid_cce, 0, "pipeline"),
        _meta("thread_name", pid_vliw, tid_stalls, "stalls"),
        _meta("thread_name", pid_vliw, tid_verify, "verify"),
        _meta("thread_name", pid_vliw, tid_sync, "sync bits"),
    ]
    for index in range(max_slots):
        events.append(_meta("thread_name", pid_vliw, index, f"issue slot {index}"))

    for op_id, issue in log.issue_times():
        op = by_id[op_id]
        info = spec.info[op_id]
        latency = latency_of.get(op_id, 1)
        events.append(
            _span(
                f"op{op_id} {op.opcode.name.lower()}",
                ts=issue,
                dur=max(latency, 1),
                pid=pid_vliw,
                tid=slot_of.get(op_id, 0),
                cat=info.form.name.lower(),
                args={"form": info.form.name, "sync_bit": info.sync_bit},
            )
        )

    for event in log.events():
        if isinstance(event, StallEvent):
            events.append(
                _span(
                    f"stall on bits {list(event.bits)}",
                    ts=event.cycle - event.stall,
                    dur=event.stall,
                    pid=pid_vliw,
                    tid=tid_stalls,
                    cat="stall",
                    args={"bits": list(event.bits)},
                )
            )
        elif isinstance(event, BufferStallEvent):
            if event.stall > 0:
                events.append(
                    _span(
                        event.describe(),
                        ts=event.cycle - event.stall,
                        dur=event.stall,
                        pid=pid_vliw,
                        tid=tid_stalls,
                        cat="buffer",
                        args={"buffer": event.buffer, "op": event.op_id},
                    )
                )
            else:
                # Overflow (structural failure), not a timed wait.
                events.append(
                    _instant(
                        event.describe(),
                        ts=event.cycle,
                        pid=pid_vliw,
                        tid=tid_stalls,
                        cat="buffer",
                        args={"buffer": event.buffer, "op": event.op_id},
                    )
                )
        elif isinstance(event, CheckEvent):
            verdict = "correct" if event.correct else "MISPREDICT"
            events.append(
                _instant(
                    f"op{event.op_id}: {verdict} (LdPred op{event.ldpred_id})",
                    ts=event.cycle,
                    pid=pid_vliw,
                    tid=tid_verify,
                    cat="check",
                )
            )
        elif isinstance(event, BitClearEvent):
            events.append(
                _instant(
                    f"b{event.sync_bit} cleared for op{event.op_id}",
                    ts=event.cycle,
                    pid=pid_vliw,
                    tid=tid_verify,
                    cat="check",
                )
            )
        elif isinstance(event, (SyncSetEvent, SyncClearEvent)):
            events.append(
                _instant(
                    event.describe(),
                    ts=event.cycle,
                    pid=pid_vliw,
                    tid=tid_sync,
                    cat="sync",
                )
            )
        elif isinstance(event, (FlushEvent, ExecuteEvent)):
            events.append(
                _span(
                    f"{event.kind} op{event.op_id}",
                    ts=event.cycle,
                    dur=max(event.completion - event.cycle, 1),
                    pid=pid_cce,
                    tid=0,
                    cat=event.kind,
                )
            )

    # One counter track per cycle-accounting cause (cumulative cycles).
    totals: Dict[str, int] = {}
    for cycle, cause, cycles in sorted(log.charges()):
        totals[cause] = totals.get(cause, 0) + cycles
        events.append(
            _counter(f"cpi:{cause}", ts=cycle, pid=pid_vliw, value=totals[cause])
        )
    return events


def runner_span_events(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Pipeline-stage timing spans from a runner event stream.

    Accepts the dictionaries of :class:`repro.runner.events.EventLog`
    (in-memory or parsed back from JSONL by ``read_events``).  Event
    timestamps are seconds since run start and export as microseconds.
    """
    stage_tids: Dict[str, int] = {}

    def tid_for(stage: str) -> int:
        if stage not in stage_tids:
            stage_tids[stage] = len(stage_tids) + 1
        return stage_tids[stage]

    out: List[Dict[str, Any]] = [_meta("process_name", RUNNER_PID, label="repro.runner")]
    open_starts: Dict[Any, float] = {}
    for event in events:
        kind = event.get("event")
        ts = float(event.get("ts", 0.0)) * 1e6
        stage = event.get("stage", "run")
        job = event.get("job", "")
        if kind == "job_start":
            open_starts[event.get("key")] = ts
        elif kind == "job_finish":
            if event.get("cached"):
                out.append(
                    _instant(
                        f"{job} (cached)", ts, RUNNER_PID, tid_for(stage), cat="cache"
                    )
                )
                continue
            start = open_starts.pop(event.get("key"), None)
            if start is None:
                start = ts - float(event.get("wall_time", 0.0)) * 1e6
            out.append(
                _span(
                    job,
                    ts=start,
                    dur=max(ts - start, 1.0),
                    pid=RUNNER_PID,
                    tid=tid_for(stage),
                    cat="job",
                    args={"key": event.get("key")},
                )
            )
        elif kind == "job_failed":
            out.append(
                _instant(
                    f"FAILED {job}: {event.get('error')}",
                    ts,
                    RUNNER_PID,
                    tid_for(stage),
                    cat="failure",
                )
            )
        elif kind == "run_finish":
            out.append(
                _span(
                    "run",
                    ts=0.0,
                    dur=max(float(event.get("wall_time", 0.0)) * 1e6, 1.0),
                    pid=RUNNER_PID,
                    tid=0,
                    cat="run",
                    args={"executed": event.get("executed"), "cache_hits": event.get("cache_hits")},
                )
            )
    for stage, tid in stage_tids.items():
        out.append(_meta("thread_name", RUNNER_PID, tid, stage))
    out.append(_meta("thread_name", RUNNER_PID, 0, "run"))
    return out


def chrome_trace(
    events: Sequence[Mapping[str, Any]],
    other_data: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap trace events in the JSON-object container format."""
    payload: Dict[str, Any] = {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
    }
    if other_data:
        payload["otherData"] = dict(other_data)
    return payload


def write_trace(path: str, payload: Mapping[str, Any]) -> None:
    """Write a trace to disk after validating it."""
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(f"invalid chrome trace: {problems[0]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural check; returns a list of problems (empty = valid).

    Accepts both container formats: a JSON object with ``traceEvents``
    or a bare JSON array of events.
    """
    problems: List[str] = []
    if isinstance(payload, Mapping):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["'traceEvents' missing or not a list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"trace must be an object or array, got {type(payload).__name__}"]
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            problems.append(f"event {index} is not an object")
            continue
        for field in ("name", "ph", "pid", "tid", "ts"):
            if field not in event:
                problems.append(f"event {index} lacks {field!r}")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {index}: 'X' span needs dur >= 0")
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as exc:
        problems.append(f"not JSON-serialisable: {exc}")
    return problems
