"""Structured progress events: JSON-lines stream + human renderer.

Every significant runner action emits one event.  The JSONL file (opt-in
via ``--events <path>``) is the machine-readable audit trail — it is how
the acceptance check "a warm rerun executes zero simulate jobs" is
verified — while :class:`ProgressRenderer` turns the same stream into
one-line progress output on stderr.

Event schema (one JSON object per line)::

    {"ts": <seconds since run start>, "run_id": <hex id>, "event": <type>,
     ...fields}

Each :class:`EventLog` instance stamps every record with a fresh
``run_id`` and *truncates* the JSONL file it is given, so a rerun with
the same ``--events`` path never interleaves with a previous run's
records.  :func:`read_events` can still filter multi-run files (produced
by external concatenation) by ``run_id``.

Types and their extra fields:

===============  ============================================================
``run_start``    ``total_jobs``
``job_start``    ``job``, ``stage``, ``key``
``cache_hit``    ``job``, ``stage``, ``key``
``cache_miss``   ``job``, ``stage``, ``key``
``job_finish``   ``job``, ``stage``, ``key``, ``cached``, ``wall_time``
``job_failed``   ``job``, ``stage``, ``key``, ``error``
``run_finish``   ``executed``, ``cache_hits``, ``cache_misses``,
                 ``failures``, ``wall_time``, ``executed_by_stage``
===============  ============================================================

A job runs at most once per runner, so ``key`` pairs each
``job_start`` with its ``job_finish``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, IO, Iterable, List, Optional


class ProgressRenderer:
    """Human one-liners for the event stream (``[ 7/40] simulate:li ...``)."""

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0

    def handle(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "run_start":
            self._total = event["total_jobs"]
            self._done = 0
            print(f"runner: {self._total} jobs", file=self.stream)
        elif kind == "job_finish":
            self._done += 1
            how = "cached" if event["cached"] else f"{event['wall_time']:.2f}s"
            print(
                f"[{self._done:>{len(str(self._total))}}/{self._total}] "
                f"{event['job']} ({how})",
                file=self.stream,
            )
        elif kind == "job_failed":
            print(f"FAILED  {event['job']}: {event['error']}", file=self.stream)
        elif kind == "run_finish":
            print(
                f"runner: {event['executed']} executed, "
                f"{event['cache_hits']} cached in {event['wall_time']:.2f}s",
                file=self.stream,
            )


class EventLog:
    """Collects runner events; optionally tees them to JSONL and a renderer."""

    def __init__(
        self,
        path: Optional[str] = None,
        renderer: Optional[ProgressRenderer] = None,
    ):
        self.path = path
        self.renderer = renderer
        self.run_id = os.urandom(6).hex()
        self.events: List[Dict[str, Any]] = []
        self._fh: Optional[IO[str]] = None
        self._t0 = time.monotonic()
        # Session counters, also summarised in ``run_finish``.
        self.executed = 0
        self.executed_by_stage: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.failures = 0
        if path:
            # Truncate: one file = one run.  Appending (the historical
            # behaviour) interleaved reruns and broke any consumer that
            # counted events — e.g. the warm-rerun acceptance check.
            self._fh = open(path, "w", encoding="utf-8")

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        record = {
            "ts": round(time.monotonic() - self._t0, 6),
            "run_id": self.run_id,
            "event": event,
        }
        record.update(fields)
        self.events.append(record)
        if event == "cache_hit":
            self.cache_hits += 1
        elif event == "cache_miss":
            self.cache_misses += 1
        elif event == "job_failed":
            self.failures += 1
        elif event == "job_finish" and not fields.get("cached"):
            self.executed += 1
            stage = fields.get("stage", "unknown")
            self.executed_by_stage[stage] = (
                self.executed_by_stage.get(stage, 0) + 1
            )
        if self._fh is not None:
            self._fh.write(json.dumps(record, default=str) + "\n")
            self._fh.flush()
        if self.renderer is not None:
            self.renderer.handle(record)
        return record

    def of_type(self, event: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["event"] == event]

    def summary(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "executed_by_stage": dict(sorted(self.executed_by_stage.items())),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failures": self.failures,
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """This run's events as a Chrome trace-event JSON object.

        Job start/finish pairs become spans on per-stage runner tracks;
        see :func:`repro.obs.perfetto.runner_span_events`.
        """
        from repro.obs.perfetto import chrome_trace, runner_span_events

        return chrome_trace(runner_span_events(self.events))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_events(path: str, run_id: Optional[str] = None) -> List[Dict[str, Any]]:
    """Parse a JSONL events file (skipping blank and truncated lines).

    ``run_id`` restricts the result to one run's records — useful for
    files that hold several concatenated runs.
    """
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if run_id is not None and record.get("run_id") != run_id:
                continue
            out.append(record)
    return out


def last_run_id(events: Iterable[Dict[str, Any]]) -> Optional[str]:
    """The ``run_id`` of the last record carrying one, or ``None``."""
    found: Optional[str] = None
    for e in events:
        rid = e.get("run_id")
        if rid is not None:
            found = rid
    return found


def executed_jobs(
    events: Iterable[Dict[str, Any]],
    stage: Optional[str] = None,
    run_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """``job_finish`` events that actually ran (not cache hits).

    Optionally filtered to one pipeline ``stage`` and/or one ``run_id``.
    """
    return [
        e
        for e in events
        if e.get("event") == "job_finish"
        and not e.get("cached")
        and (stage is None or e.get("stage") == stage)
        and (run_id is None or e.get("run_id") == run_id)
    ]
