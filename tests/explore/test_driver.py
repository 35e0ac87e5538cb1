"""Explore driver: point evaluation, Pareto frontier, report artifact."""

from __future__ import annotations

import json

import pytest

from repro.explore.driver import (
    PointResult,
    PrunedPoint,
    explore,
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
    outcome = explore(space.grid(), scale=SCALE, benchmarks=BENCHMARKS)
    assert outcome.pruned == ()
    return space, list(outcome.results)


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
        from repro.runner.cache import DiskCache
        from repro.runner.executor import Runner

        space, local = sweep
        with_runner = explore(
            space.grid(),
            scale=SCALE,
            benchmarks=BENCHMARKS,
            runner=Runner(cache=DiskCache(enabled=False)),
        ).results
        payload_a = report_payload(space, local, SCALE, BENCHMARKS)
        payload_b = report_payload(space, with_runner, SCALE, BENCHMARKS)
        assert dump_report(payload_a) == dump_report(payload_b)


class TestPruning:
    """Every input point ends up as a result or a reasoned pruned row."""

    def test_duplicates_prune_with_reason(self, sweep):
        space, results = sweep
        points = space.grid()
        outcome = explore(
            list(points) + list(points), scale=SCALE, benchmarks=BENCHMARKS
        )
        dupes = [p for p in outcome.pruned if p.reason == "duplicate"]
        assert len(dupes) == len(points)
        assert len(outcome.results) == len(points)
        for pruned in dupes:
            assert "identical machine and speculation config" in pruned.detail
        # The surviving first copies report exactly what a clean sweep does.
        assert [r.to_json() for r in outcome.results] == [
            r.to_json() for r in results
        ]

    def test_evaluation_errors_prune_not_raise(self, sweep):
        """A point whose simulation raises (fatally small CCB) becomes a
        pruned row with the exception, not an aborted sweep."""
        space, _ = sweep
        doomed = DesignSpace(
            base=PLAYDOH_4W_SPEC,
            axes=(Axis.parse("ccb_capacity=1"), Axis.parse("threshold=0.5")),
        )
        points = list(doomed.grid()) + list(space.grid())
        outcome = explore(points, scale=SCALE, benchmarks=BENCHMARKS)
        errors = [p for p in outcome.pruned if p.reason == "error"]
        assert len(errors) == 1
        assert errors[0].detail.startswith("CCBFull: ")
        # The healthy points still simulated.
        assert len(outcome.results) == len(space.grid())

    def test_invalid_axis_values_prune_not_raise(self, sweep):
        """A swept value the machine spec rejects is pruned up front with
        reason ``invalid`` and the validation message; the valid points
        still simulate."""
        space, _ = sweep
        bad = DesignSpace(
            base=PLAYDOH_4W_SPEC,
            axes=(Axis.parse("issue_width=0"), Axis.parse("predictor.table_bits=0,31")),
        )
        points = list(bad.grid()) + list(space.grid())
        outcome = explore(points, scale=SCALE, benchmarks=BENCHMARKS)
        assert [(p.label, p.reason) for p in outcome.pruned] == [
            ("issue_width=0/predictor.table_bits=0", "invalid"),
            ("issue_width=0/predictor.table_bits=31", "invalid"),
        ]
        assert outcome.pruned[0].detail == "ValueError: issue width must be positive"
        assert len(outcome.results) == len(space.grid())

    def test_every_point_is_result_or_pruned(self, sweep):
        space, _ = sweep
        doomed = DesignSpace(
            base=PLAYDOH_4W_SPEC, axes=(Axis.parse("ccb_capacity=1"),)
        )
        points = list(doomed.grid()) + list(space.grid()) * 2
        outcome = explore(points, scale=SCALE, benchmarks=BENCHMARKS)
        assert len(outcome.results) + len(outcome.pruned) == len(points)
        assert {r.label for r in outcome.results} | {
            p.label for p in outcome.pruned
        } == {p.label for p in points}


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

    def test_dump_with_pruned_rows_is_deterministic(self, sweep):
        space, results = sweep
        pruned = (PrunedPoint("x", "duplicate", "identical to 'y'"),)
        a = dump_report(
            report_payload(space, results, SCALE, BENCHMARKS, pruned=pruned)
        )
        b = dump_report(
            report_payload(space, results, SCALE, BENCHMARKS, pruned=pruned)
        )
        assert a == b
        assert json.loads(a)["pruned"] == [
            {"label": "x", "reason": "duplicate", "detail": "identical to 'y'"}
        ]

    def test_payload_always_writes_null_surrogate(self, sweep):
        # Schema 3 keeps its ``surrogate`` key so sweep artifacts stay
        # byte-identical; nothing fills it any more.
        space, results = sweep
        payload = report_payload(space, results, SCALE, BENCHMARKS)
        assert payload["schema"] == 3
        assert payload["surrogate"] is None

    def test_v2_artifacts_still_load(self, sweep):
        space, results = sweep
        payload = report_payload(space, results, SCALE, BENCHMARKS)
        payload["schema"] = 2
        del payload["pruned"]
        del payload["surrogate"]
        loaded = load_report(dump_report(payload))
        assert loaded["pruned"] == []
        assert loaded["surrogate"] is None

    def test_v3_report_with_surrogate_section_still_loads(self, sweep):
        space, results = sweep
        payload = report_payload(space, results, SCALE, BENCHMARKS)
        payload["pruned"] = [
            {
                "label": "issue_width=2/threshold=0.5",
                "reason": "surrogate",
                "detail": "estimated speedup ranked below the keep set",
                "estimated_speedup": 1.01,
            }
        ]
        payload["surrogate"] = {
            "bound": 0.05,
            "max_rel_error": 0.01,
            "mean_rel_error": 0.005,
            "within_bound": True,
            "entries": [],
        }
        loaded = load_report(dump_report(payload))
        assert loaded == payload
        assert loaded["surrogate"]["within_bound"] is True

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

    def test_failing_point_is_pruned_not_fatal(self, tmp_path, capsys):
        from repro.explore.cli import main
        from repro.runner.events import read_events

        out, events = tmp_path / "sweep.json", tmp_path / "events.jsonl"
        argv = [
            "--axis", "ccb_capacity=1,64",
            "--scale", str(SCALE),
            "--benchmarks", "compress",
            "--no-cache",
            "--events", str(events),
            "--out", str(out),
        ]
        assert main(argv) == 0
        payload = load_report(out.read_text(encoding="utf-8"))
        assert [p["label"] for p in payload["points"]] == ["ccb_capacity=64"]
        (bad,) = payload["pruned"]
        assert (bad["label"], bad["reason"]) == ("ccb_capacity=1", "error")
        assert bad["detail"].startswith("CCBFull: ")
        assert "pruned [error] ccb_capacity=1" in capsys.readouterr().err
        # The deterministic compile error runs once.
        log = read_events(str(events))
        (failed,) = [e for e in log if e["event"] == "job_failed"]
        starts = [
            e for e in log
            if e["event"] == "job_start" and e["key"] == failed["key"]
        ]
        assert len(starts) == 1

    def test_jobs_1_is_accepted_and_changes_nothing(self, tmp_path):
        from repro.explore.cli import main

        argv = [
            "--axis", "threshold=0.5,0.8",
            "--scale", str(SCALE),
            "--benchmarks", "compress",
            "--no-cache",
        ]
        main(argv + ["--out", str(tmp_path / "a.json")])
        assert main(argv + ["--jobs", "1", "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "2"], ["-j", "0"], ["--surrogate"], ["--surrogate-keep", "3"]],
    )
    def test_removed_flags_are_usage_errors(self, flags, capsys):
        from repro.explore.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--axis", "threshold=0.5"] + flags)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_axis_is_a_clean_error(self, capsys):
        from repro.explore.cli import main

        assert main(["--axis", "frobnicate=1"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, detail",
        [
            ("issue_width=0,4", "ValueError: issue width must be positive"),
            ("predictor.table_bits=0,16", "ValueError: table_bits must be in [1, 30]"),
        ],
    )
    def test_invalid_axis_value_does_not_abort_the_sweep(self, axis, detail, capsys):
        from repro.explore.cli import main

        argv = ["--axis", axis, "--scale", str(SCALE), "--benchmarks", "compress",
                "--no-cache", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["points"]) == 1
        assert [(p["reason"], p["detail"]) for p in report["pruned"]] == [
            ("invalid", detail)
        ]

    def test_no_axes_is_a_clean_error(self, capsys):
        from repro.explore.cli import main

        assert main([]) == 2
        assert "no axes" in capsys.readouterr().err

    def test_ccb_grid_prunes_are_pinned(self, capsys):
        """At paper scale, capacities 1, 2 and 4 overflow the CCB in one
        block each, on both widths; the messages name the block and the
        op that can never enter."""
        from repro.explore.cli import main

        argv = ["--json", "--no-cache", "--scale", "1.0",
                "--axis", "ccb_capacity=1,2,4,8,16,none", "--axis", "issue_width=4,8"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["points"]) == 6
        overflows = [(1, "scan", 14), (2, "eval", 23), (4, "cycle", 11)]
        assert [(p["label"], p["reason"], p["detail"]) for p in report["pruned"]] == [
            (
                f"ccb_capacity={capacity}/issue_width={width}",
                "error",
                f"CCBFull: block {block!r}: CCB capacity {capacity} can never admit "
                f"op {op} (nothing left to free); bound speculation or enlarge "
                "ccb_capacity",
            )
            for capacity, block, op in overflows
            for width in (4, 8)
        ]
