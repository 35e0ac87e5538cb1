"""Tests of the runner event log: JSONL hygiene, helpers, rendering."""

import io
import json

from repro.runner.events import (
    EventLog,
    ProgressRenderer,
    executed_jobs,
    last_run_id,
    read_events,
)


class TestEventLogFile:
    def test_rerun_truncates_previous_records(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path=path) as log:
            log.emit("run_start", total_jobs=1)
            log.emit("run_finish", executed=1)
        with EventLog(path=path) as log:
            log.emit("run_start", total_jobs=2)
        records = read_events(path)
        # Only the second run's single record survives — no interleaving.
        assert len(records) == 1
        assert records[0]["total_jobs"] == 2

    def test_every_record_carries_the_run_id(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path=path) as log:
            log.emit("run_start", total_jobs=1)
            log.emit("job_finish", job="a", stage="s", key="k", cached=False,
                     wall_time=0.1)
            rid = log.run_id
        assert {e["run_id"] for e in read_events(path)} == {rid}

    def test_distinct_logs_get_distinct_run_ids(self):
        assert EventLog().run_id != EventLog().run_id

    def test_read_events_filters_by_run_id(self, tmp_path):
        path = tmp_path / "multi.jsonl"
        records = [
            {"ts": 0.0, "run_id": "aaa", "event": "run_start"},
            {"ts": 0.1, "run_id": "bbb", "event": "run_start"},
            {"ts": 0.2, "run_id": "bbb", "event": "run_finish"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert len(read_events(str(path))) == 3
        assert len(read_events(str(path), run_id="bbb")) == 2
        assert read_events(str(path), run_id="zzz") == []

    def test_read_events_skips_blank_and_truncated_lines(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(
            json.dumps({"ts": 0.0, "event": "run_start"}) + "\n"
            + "\n"
            + "   \n"
            + '{"ts": 0.5, "event": "job_fin'  # truncated mid-write
        )
        records = read_events(str(path))
        assert len(records) == 1
        assert records[0]["event"] == "run_start"

    def test_last_run_id(self):
        assert last_run_id([]) is None
        assert last_run_id([{"event": "x"}]) is None
        assert last_run_id(
            [{"run_id": "a"}, {"event": "x"}, {"run_id": "b"}]
        ) == "b"


class TestExecutedJobs:
    def _events(self):
        return [
            {"event": "job_finish", "job": "profile:li", "stage": "profile",
             "cached": False, "run_id": "r1"},
            {"event": "job_finish", "job": "simulate:li", "stage": "simulate",
             "cached": False, "run_id": "r1"},
            {"event": "job_finish", "job": "simulate:swim", "stage": "simulate",
             "cached": True, "run_id": "r1"},
            {"event": "job_finish", "job": "simulate:swim", "stage": "simulate",
             "cached": False, "run_id": "r2"},
            {"event": "job_start", "job": "simulate:li", "stage": "simulate"},
        ]

    def test_excludes_cache_hits_and_non_finishes(self):
        jobs = executed_jobs(self._events())
        assert [e["job"] for e in jobs] == [
            "profile:li", "simulate:li", "simulate:swim"
        ]

    def test_stage_filter(self):
        jobs = executed_jobs(self._events(), stage="simulate")
        assert [e["job"] for e in jobs] == ["simulate:li", "simulate:swim"]
        assert executed_jobs(self._events(), stage="compile") == []

    def test_run_id_filter(self):
        jobs = executed_jobs(self._events(), stage="simulate", run_id="r1")
        assert [e["job"] for e in jobs] == ["simulate:li"]


class TestSummary:
    def test_summary_counts(self):
        log = EventLog()
        log.emit("run_start", total_jobs=4)
        log.emit("cache_hit", job="a", stage="profile", key="k1")
        log.emit("cache_miss", job="b", stage="profile", key="k2")
        log.emit("job_finish", job="a", stage="profile", key="k1", cached=True,
                 wall_time=0.0)
        log.emit("job_finish", job="b", stage="profile", key="k2", cached=False,
                 wall_time=0.2)
        log.emit("job_finish", job="c", stage="simulate", key="k3", cached=False,
                 wall_time=0.3)
        log.emit("job_failed", job="d", stage="simulate", key="k4", error="y")
        assert log.summary() == {
            "executed": 2,
            "executed_by_stage": {"profile": 1, "simulate": 1},
            "cache_hits": 1,
            "cache_misses": 1,
            "failures": 1,
        }

    def test_of_type(self):
        log = EventLog()
        log.emit("cache_hit", job="a", stage="s", key="k")
        log.emit("cache_miss", job="b", stage="s", key="k")
        assert [e["job"] for e in log.of_type("cache_hit")] == ["a"]


class TestProgressRenderer:
    def _render(self, *emits):
        stream = io.StringIO()
        log = EventLog(renderer=ProgressRenderer(stream=stream))
        for event, fields in emits:
            log.emit(event, **fields)
        return stream.getvalue()

    def test_job_failed_rendered(self):
        text = self._render(
            ("job_failed", dict(job="simulate:li", stage="simulate", key="k",
                                error="ValueError('boom')")),
        )
        assert "FAILED  simulate:li: ValueError('boom')" in text

    def test_progress_counts(self):
        text = self._render(
            ("run_start", dict(total_jobs=2)),
            ("job_finish", dict(job="a", stage="s", key="k", cached=True,
                                wall_time=0.0)),
            ("job_finish", dict(job="b", stage="s", key="k", cached=False,
                                wall_time=0.25)),
        )
        assert "runner: 2 jobs\n" in text
        assert "worker" not in text
        assert "[1/2] a (cached)" in text
        assert "[2/2] b (0.25s)" in text


class TestChromeTrace:
    def test_event_log_exports_spans(self):
        log = EventLog()
        log.emit("job_start", job="profile:li", stage="profile", key="k")
        log.emit("job_finish", job="profile:li", stage="profile", key="k",
                 cached=False, wall_time=0.1)
        payload = log.chrome_trace()
        assert any(
            e.get("name") == "profile:li" and e.get("ph") == "X"
            for e in payload["traceEvents"]
        )
