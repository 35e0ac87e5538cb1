"""Unit tests for the cycle-accounting engine (:mod:`repro.obs.cycles`)."""

from __future__ import annotations

import json

import pytest

from repro.ir.opcodes import Opcode
from repro.obs.cycles import (
    CAUSES,
    CPI_SCHEMA_VERSION,
    CPIStack,
    attribute_schedule,
    instruction_cause,
    operation_wait_cause,
    render_diff,
    render_stack,
)
from repro.obs.trace import BlockLog
from repro.sched.list_scheduler import ListScheduler


class TestCycleLedger:
    """The ledger is the ``charge`` entries of a block run's event log."""

    def test_charges_accumulate(self):
        log = BlockLog(
            [
                ("charge", 0, "issue", 3),
                ("charge", 4, "issue", 2),
                ("charge", 5, "dep_stall", 1),
            ]
        )
        stack, _ = log.fold()
        assert stack == {"issue": 5, "dep_stall": 1}
        assert sum(stack.values()) == 6

    def test_zero_and_negative_charges_are_noops(self, paper_example):
        """The engine appends no empty charge, so every charge counts."""
        for log in paper_example.logs.values():
            assert all(cycles > 0 for _, _, cycles in log.charges())

    def test_charges_view_keeps_every_timestamp(self):
        log = BlockLog([("charge", 5, "issue", 1), ("issue", 5, 2)])
        assert log.charges() == ((5, "issue", 1),)


class TestCauseHelpers:
    def test_operation_wait_causes(self):
        assert operation_wait_cause(Opcode.LOAD) == "load_wait"
        assert operation_wait_cause(Opcode.LDPRED) == "load_wait"
        assert operation_wait_cause(Opcode.CHKPRED) == "check_compare"
        assert operation_wait_cause(Opcode.ADD) == "dep_stall"

    def test_causes_are_unique_and_issue_first(self):
        assert len(set(CAUSES)) == len(CAUSES)
        assert CAUSES[0] == "issue"


class TestAttributeSchedule:
    def test_sums_to_schedule_length(self, m4, straight_block):
        schedule = ListScheduler(m4).schedule_block(straight_block)
        counts = attribute_schedule(schedule)
        assert sum(counts.values()) == schedule.length
        # One issue-class cycle per long instruction.
        issued = counts.get("issue", 0) + counts.get("check_compare", 0)
        assert issued == len(list(schedule.instructions()))

    def test_straight_block_waits_on_memory(self, m4, straight_block):
        """The load feeds the arithmetic chain, so the gap after it must
        be attributed to memory latency, not generic dependence."""
        schedule = ListScheduler(m4).schedule_block(straight_block)
        counts = attribute_schedule(schedule)
        if schedule.length > len(list(schedule.instructions())):
            assert counts.get("load_wait", 0) > 0


class TestCPIStack:
    def test_of_drops_zero_counts(self):
        stack = CPIStack.of({"issue": 4, "dep_stall": 0})
        assert stack.counts == {"issue": 4}
        assert stack.total == 4
        assert stack.get("dep_stall") == 0

    def test_fraction(self):
        stack = CPIStack.of({"issue": 3, "load_wait": 1})
        assert stack.fraction("issue") == pytest.approx(0.75)
        assert CPIStack.of({}).fraction("issue") == 0.0

    def test_merged_and_scaled(self):
        a = CPIStack.of({"issue": 2, "load_wait": 1})
        b = CPIStack.of({"issue": 1, "reexec": 5})
        merged = a.merged(b)
        assert merged.counts == {"issue": 3, "load_wait": 1, "reexec": 5}
        assert a.scaled(3).counts == {"issue": 6, "load_wait": 3}
        assert a.scaled(0).counts == {}
        with pytest.raises(ValueError):
            a.scaled(-1)

    def test_diff(self):
        new = CPIStack.of({"issue": 5, "reexec": 2})
        old = CPIStack.of({"issue": 5, "load_wait": 3})
        assert new.diff(old) == {"reexec": 2, "load_wait": -3}
        assert new.diff(new) == {}

    def test_dominant_excludes_issue_and_breaks_ties_by_order(self):
        stack = CPIStack.of({"issue": 100, "load_wait": 7, "dep_stall": 7})
        # load_wait precedes dep_stall in CAUSES display order.
        assert stack.dominant() == "load_wait"
        assert stack.dominant(exclude=("issue", "load_wait")) == "dep_stall"
        assert CPIStack.of({"issue": 9}).dominant() is None
        assert CPIStack.of({}).dominant() is None

    def test_round_trip(self):
        stack = CPIStack.of({"issue": 4, "sync_stall": 2})
        data = stack.as_dict()
        assert data["schema"] == CPI_SCHEMA_VERSION
        assert data["total"] == 6
        assert CPIStack.from_dict(data).counts == stack.counts
        # JSON round trip too.
        assert CPIStack.from_dict(json.loads(json.dumps(data))).counts == stack.counts

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            CPIStack.from_dict({"schema": 999, "counts": {}})


class TestRenderers:
    def test_render_stack(self):
        stack = CPIStack.of({"issue": 8, "load_wait": 2})
        text = render_stack(stack, title="demo", width=10)
        assert text.splitlines()[0] == "demo"
        assert "total cycles: 10" in text
        assert "issue" in text and "load_wait" in text
        assert "80.0%" in text and "20.0%" in text
        # Display order: issue before load_wait.
        assert text.index("issue") < text.index("load_wait")

    def test_render_stack_empty(self):
        text = render_stack(CPIStack.of({}))
        assert "total cycles: 0" in text

    def test_render_diff(self):
        new = CPIStack.of({"issue": 8, "reexec": 3})
        old = CPIStack.of({"issue": 8, "load_wait": 5})
        text = render_diff(new, old, title="story")
        assert "story" in text
        assert "total cycles: 13 -> 11 (-2)" in text
        assert "+" in text and "-" in text

    def test_render_diff_identical(self):
        stack = CPIStack.of({"issue": 8})
        assert "(identical)" in render_diff(stack, stack)


class TestCLIHelpers:
    def test_artifact_round_trip(self, tmp_path):
        from repro.obs.cycles_cli import (
            ARTIFACT_SCHEMA_VERSION,
            dump_artifact,
            load_artifact,
        )

        payload = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "cpi_schema": CPI_SCHEMA_VERSION,
            "settings": {},
            "stacks": {"x@base": {"proposed": {"issue": 3}}},
        }
        path = tmp_path / "cycles.json"
        dump_artifact(payload, str(path))
        assert load_artifact(str(path)) == payload
        # Deterministic bytes.
        first = path.read_bytes()
        dump_artifact(payload, str(path))
        assert path.read_bytes() == first

    def test_load_artifact_rejects_unknown_schema(self, tmp_path):
        from repro.obs.cycles_cli import load_artifact

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(str(path))

    def test_diff_requires_two_artifacts(self, capsys):
        from repro.obs.cycles_cli import main

        assert main(["diff", "only-one.json"]) == 2
        assert main(["report", "stray.json"]) == 2
        assert main(["report", "--models", "bogus"]) == 2

    def test_render_artifact_diff(self):
        from repro.obs.cycles_cli import render_artifact_diff

        old = {"stacks": {"c@base": {"proposed": {"issue": 5, "load_wait": 4}}}}
        new = {"stacks": {"c@base": {"proposed": {"issue": 5, "reexec": 1}}}}
        text = render_artifact_diff(old, new, width=10)
        assert "c@base [proposed]" in text
        assert "load_wait" in text and "reexec" in text
