"""Explore driver: point evaluation, Pareto frontier, report artifact."""

from __future__ import annotations

import json

import pytest

from repro.explore.driver import (
    BenchmarkResult,
    PointResult,
    explore_points,
    pareto_frontier,
)
from repro.explore.report import (
    REPORT_SCHEMA_VERSION,
    dump_report,
    load_report,
    render_frontier,
    render_table,
    report_payload,
)
from repro.explore.space import Axis, DesignSpace
from repro.machine.configs import PLAYDOH_4W_SPEC

SCALE = 0.05
BENCHMARKS = ["compress"]


def synthetic(label: str, cost: float, speedup: float) -> PointResult:
    return PointResult(
        label=label,
        machine_name=label,
        fingerprint="0" * 64,
        assignment=(),
        cost=cost,
        speedup=speedup,
        accuracy=0.9,
        benchmarks=(),
    )


class TestParetoFrontier:
    def test_dominated_points_drop(self):
        results = [
            synthetic("cheap-slow", 1.0, 1.0),
            synthetic("cheap-fast", 1.0, 1.2),
            synthetic("dear-slow", 2.0, 1.1),   # dominated by cheap-fast
            synthetic("dear-fast", 2.0, 1.5),
        ]
        frontier = pareto_frontier(results)
        assert [r.label for r in frontier] == ["cheap-fast", "dear-fast"]

    def test_frontier_is_cheapest_first(self):
        results = [
            synthetic("b", 2.0, 1.4),
            synthetic("a", 1.0, 1.2),
        ]
        assert [r.label for r in pareto_frontier(results)] == ["a", "b"]

    def test_exact_ties_keep_one_point(self):
        results = [
            synthetic("first", 1.0, 1.2),
            synthetic("second", 1.0, 1.2),
        ]
        assert len(pareto_frontier(results)) == 1

    def test_empty(self):
        assert pareto_frontier([]) == []


@pytest.fixture(scope="module")
def sweep():
    """A tiny real sweep shared by the driver/report tests."""
    axes = (Axis.parse("issue_width=2,4"), Axis.parse("threshold=0.5,0.8"))
    space = DesignSpace(base=PLAYDOH_4W_SPEC, axes=axes)
    results = explore_points(
        space.grid(), scale=SCALE, benchmarks=BENCHMARKS
    )
    return space, results


class TestExplorePoints:
    def test_one_result_per_point_in_order(self, sweep):
        space, results = sweep
        assert [r.label for r in results] == [p.label for p in space.grid()]

    def test_results_carry_real_simulations(self, sweep):
        _, results = sweep
        for r in results:
            assert len(r.benchmarks) == 1
            b = r.benchmarks[0]
            assert b.benchmark == "compress"
            assert b.cycles_nopred > 0 and b.cycles_proposed > 0
            assert r.speedup == pytest.approx(b.speedup)
            assert 0.0 <= r.accuracy <= 1.0
            assert r.cost > 0

    def test_speculation_only_points_share_machine_fingerprints(self, sweep):
        _, results = sweep
        by_width = {}
        for r in results:
            width = dict(r.assignment)["issue_width"]
            by_width.setdefault(width, set()).add(r.fingerprint)
        # Two thresholds per width map onto ONE machine each.
        assert all(len(prints) == 1 for prints in by_width.values())
        assert len({p for prints in by_width.values() for p in prints}) == 2

    def test_threshold_changes_the_outcome(self, sweep):
        _, results = sweep
        by_label = {r.label: r for r in results}
        low = by_label["issue_width=4/threshold=0.5"]
        high = by_label["issue_width=4/threshold=0.8"]
        # A stricter threshold speculates fewer loads; accuracy rises.
        assert high.accuracy >= low.accuracy

    def test_runner_path_matches_runnerless(self, sweep):
        from repro.runner import Runner

        space, local = sweep
        runner = Runner(jobs=1, cache=None)
        try:
            with_runner = explore_points(
                space.grid(), scale=SCALE, benchmarks=BENCHMARKS, runner=runner
            )
        finally:
            runner.close()
        payload_a = report_payload(space, local, SCALE, BENCHMARKS)
        payload_b = report_payload(space, with_runner, SCALE, BENCHMARKS)
        assert dump_report(payload_a) == dump_report(payload_b)


class TestReport:
    def test_payload_schema_and_round_trip(self, sweep):
        space, results = sweep
        payload = report_payload(space, results, SCALE, BENCHMARKS)
        text = dump_report(payload)
        assert load_report(text) == payload
        assert payload["schema"] == REPORT_SCHEMA_VERSION
        assert payload["base_machine"] == PLAYDOH_4W_SPEC.canonical()
        assert len(payload["points"]) == 4
        assert set(payload["frontier"]) == {
            p["label"] for p in payload["points"] if p["pareto"]
        }

    def test_dump_is_deterministic(self, sweep):
        space, results = sweep
        a = dump_report(report_payload(space, results, SCALE, BENCHMARKS))
        b = dump_report(report_payload(space, results, SCALE, BENCHMARKS))
        assert a == b
        json.loads(a)  # valid JSON

    def test_load_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            load_report(json.dumps({"schema": REPORT_SCHEMA_VERSION + 1}))

    def test_render_table_and_frontier(self, sweep):
        _, results = sweep
        table = render_table(results)
        assert "Pareto" in table
        for r in results:
            assert r.label in table
        assert "cost" in render_frontier(results)


class TestCli:
    def test_end_to_end_artifact(self, tmp_path, capsys):
        from repro.explore.cli import main

        out = tmp_path / "sweep.json"
        code = main(
            [
                "--axis", "threshold=0.5,0.8",
                "--scale", str(SCALE),
                "--benchmarks", "compress",
                "--no-cache",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = load_report(out.read_text(encoding="utf-8"))
        assert [p["label"] for p in payload["points"]] == [
            "threshold=0.5",
            "threshold=0.8",
        ]
        stdout = capsys.readouterr().out
        assert "Pareto" in stdout

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("surrogate", [False, True])
    def test_failing_point_is_pruned_not_fatal(
        self, tmp_path, capsys, jobs, surrogate
    ):
        from repro.explore.cli import main
        from repro.runner import read_events

        out, events = tmp_path / "sweep.json", tmp_path / "events.jsonl"
        argv = [
            "--axis", "ccb_capacity=1,64",
            "--scale", str(SCALE),
            "--benchmarks", "compress",
            "--jobs", jobs,
            "--no-cache",
            "--events", str(events),
            "--out", str(out),
        ]
        assert main(argv + (["--surrogate"] if surrogate else [])) == 0
        payload = load_report(out.read_text(encoding="utf-8"))
        assert [p["label"] for p in payload["points"]] == ["ccb_capacity=64"]
        (bad,) = payload["pruned"]
        assert (bad["label"], bad["reason"]) == ("ccb_capacity=1", "error")
        assert bad["detail"].startswith("CCBFull: ")
        assert "pruned [error] ccb_capacity=1" in capsys.readouterr().err
        # The deterministic compile error runs once and is never retried.
        log = read_events(str(events))
        assert [e["event"] for e in log].count("job_retry") == 0
        (failed,) = [e for e in log if e["event"] == "job_failed"]
        assert failed["attempts"] == 1
        starts = [
            e for e in log
            if e["event"] == "job_start" and e["key"] == failed["key"]
        ]
        assert len(starts) == 1

    def test_unknown_axis_is_a_clean_error(self, capsys):
        from repro.explore.cli import main

        assert main(["--axis", "frobnicate=1"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_no_axes_is_a_clean_error(self, capsys):
        from repro.explore.cli import main

        assert main([]) == 2
        assert "no axes" in capsys.readouterr().err
