"""End-to-end tests of the ``repro-trace`` CLI."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.perfetto import validate_chrome_trace


class TestExampleMode:
    def test_default_export(self, tmp_path, capsys):
        trace = tmp_path / "example.trace.json"
        metrics = tmp_path / "example.metrics.json"
        rc = main(["--out", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consistency" in out and "OK" in out

        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any("VLIW Engine" in n for n in names)
        assert any("Compensation Code Engine" in n for n in names)

        snap = json.loads(metrics.read_text())
        counters = snap["counters"]
        assert counters["cce.flush"] + counters["cce.reexec"] == 4

    def test_scenario_selection(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        rc = main(["--scenario", "both correct", "--out", str(trace)])
        assert rc == 0
        assert "0/2 mispredicted" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        rc = main(["--scenario", "nope", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestBenchmarkMode:
    def test_unknown_benchmark_rejected(self, tmp_path, capsys):
        rc = main(["not-a-benchmark", "--out", str(tmp_path / "t.json")])
        assert rc == 2

    def test_li_export(self, tmp_path, capsys):
        trace = tmp_path / "li.trace.json"
        metrics = tmp_path / "li.metrics.json"
        rc = main(
            [
                "li",
                "--scale", "0.2",
                "--max-blocks", "1",
                "--out", str(trace),
                "--metrics", str(metrics),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out

        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"]
        assert payload["otherData"]["benchmark"] == "li"

        snap = json.loads(metrics.read_text())
        counters = snap["counters"]
        assert counters.get("cce.flush", 0) + counters.get("cce.reexec", 0) > 0


class TestRunnerEvents:
    def test_runner_spans_joined_into_trace(self, tmp_path):
        events_path = tmp_path / "run.jsonl"
        records = [
            {"ts": 0.0, "run_id": "r1", "event": "job_start", "job": "profile:li",
             "stage": "profile", "key": "k"},
            {"ts": 0.5, "run_id": "r1", "event": "job_finish", "job": "profile:li",
             "stage": "profile", "key": "k", "cached": False, "wall_time": 0.5},
        ]
        events_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        trace = tmp_path / "t.json"
        rc = main(["--runner-events", str(events_path), "--out", str(trace)])
        assert rc == 0
        payload = json.loads(trace.read_text())
        assert any(
            e.get("name") == "profile:li" and e["ph"] == "X"
            for e in payload["traceEvents"]
        )
