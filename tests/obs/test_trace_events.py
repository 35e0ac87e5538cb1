"""The event log, the typed events read from it, and the metrics
folded from it.

Includes the acceptance check: for every run of the worked example,
``cce.flush + cce.reexec`` in the run's snapshot equals the simulator's
own ``flushed + executed`` counters — and the same identity holds for a
whole-program simulation.
"""

import pytest

from repro.evaluation.paper_example import run_example
from repro.obs.trace import (
    BlockLog,
    CheckEvent,
    ExecuteEvent,
    FlushEvent,
    LdPredEvent,
    OvbTransitionEvent,
    SpeculateEvent,
    StallEvent,
    SyncClearEvent,
    SyncSetEvent,
)
from repro.core.machine_sim import simulate_block, trace_block


@pytest.fixture(scope="module")
def example():
    return run_example()


def _events(example, scenario):
    return example.logs[scenario].events()


class TestTypedEvents:
    def test_event_kinds_present(self, example):
        kinds = {e.kind for e in _events(example, "r7 mispredicted")}
        assert {"ldpred", "speculate", "check", "flush", "execute",
                "sync_set", "sync_clear", "ovb_transition"} <= kinds

    def test_events_sorted_by_cycle(self, example):
        for log in example.logs.values():
            cycles = [e.cycle for e in log.events()]
            assert cycles == sorted(cycles)

    def test_check_events_match_outcomes(self, example):
        events = _events(example, "both mispredicted")
        checks = [e for e in events if isinstance(e, CheckEvent)]
        assert len(checks) == 2
        assert all(not e.correct for e in checks)

    def test_ldpred_events_one_per_prediction(self, example):
        events = _events(example, "both correct")
        assert len([e for e in events if isinstance(e, LdPredEvent)]) == 2

    def test_flush_and_execute_partition_ccb(self, example):
        run = example.scenarios["r7 mispredicted"]
        events = _events(example, "r7 mispredicted")
        flushes = [e for e in events if isinstance(e, FlushEvent)]
        executes = [e for e in events if isinstance(e, ExecuteEvent)]
        assert len(flushes) == run.flushed == 2
        assert len(executes) == run.executed == 2

    def test_speculate_events_cover_ccb_inserts(self, example):
        run = example.scenarios["both correct"]
        events = _events(example, "both correct")
        inserts = [e for e in events if isinstance(e, SpeculateEvent)]
        assert len(inserts) == run.flushed + run.executed == 4

    def test_as_dict_is_json_friendly(self, example):
        import json

        payload = [e.as_dict() for e in _events(example, "r4 mispredicted")]
        text = json.dumps(payload)
        assert '"kind"' in text and '"engine"' in text

    def test_str_has_engine_prefix(self, example):
        events = _events(example, "r4 mispredicted")
        by_engine = {str(e).split(":")[0] for e in events}
        assert {"VLIW", "CCE", "OVB", "SYNC"} <= by_engine



class TestBlockLog:
    def test_entries_build_typed_events_in_cycle_order(self):
        log = BlockLog(
            [
                ("sync_clear", 3, 1),
                ("issue", 0, 7),
                ("sync_set", 0, 1),
                ("charge", 1, "issue", 1),
                ("stall", 3, (1,), 2),
            ]
        )
        assert log.events() == (
            SyncSetEvent(cycle=0, bit=1),
            SyncClearEvent(cycle=3, bit=1),
            StallEvent(cycle=3, bits=(1,), stall=2),
        )
        assert log.issue_times() == ((7, 0),)
        assert log.charges() == ((1, "issue", 1),)

    def test_fold_counts_instructions_and_ccb_occupancy(self):
        log = BlockLog(
            [
                ("issue", 0, 1),
                ("issue", 0, 2),
                ("speculate", 0, 2, 0),
                ("issue", 1, 3),
                ("speculate", 1, 3, 1),
                ("flush", 2, 2, 3),
                ("issue", 2, 4),
                ("speculate", 2, 4, 2),
                ("execute", 3, 3, 5),
                ("charge", 0, "issue", 3),
                ("charge", 3, "dep_stall", 1),
            ]
        )
        stack, tally = log.fold()
        snap = tally.snapshot()
        assert stack == {"issue": 3, "dep_stall": 1}
        assert snap.counter("vliw.instructions") == 3
        assert snap.counter("vliw.speculated") == 3
        assert snap.counter("cce.busy_cycles") == 1 + 2
        # Pending entries at each insertion, in insertion order.
        assert snap.histogram("cce.ccb_occupancy").samples == [1, 2, 2]
        assert snap.gauges == {}

class TestMetricsInstrumentation:
    def test_flush_reexec_identity_block(self, example):
        """Acceptance: snapshot flush+reexec == simulator flushed+executed."""
        for scenario, run in example.scenarios.items():
            snap = run.metrics
            assert (
                snap.counter("cce.flush") + snap.counter("cce.reexec")
                == run.flushed + run.executed
            ), scenario

    def test_stall_cycles_counter(self, example):
        run = example.scenarios["both mispredicted"]
        assert run.metrics.counter("vliw.stall_cycles") == run.stall_cycles
        events = _events(example, "both mispredicted")
        stall_events = [e for e in events if isinstance(e, StallEvent)]
        assert sum(e.stall for e in stall_events) == run.stall_cycles

    def test_prediction_counters(self, example):
        run = example.scenarios["r4 mispredicted"]
        snap = run.metrics
        assert snap.counter("vliw.predictions") == run.predictions == 2
        assert snap.counter("vliw.mispredictions") == run.mispredictions == 1

    def test_ovb_transition_counters_match_events(self, example):
        snap = example.scenarios["r7 mispredicted"].metrics
        events = _events(example, "r7 mispredicted")
        transitions = [e for e in events if isinstance(e, OvbTransitionEvent)]
        family = snap.counter_family("ovb.state_transitions")
        assert sum(family.values()) == len(transitions)
        # The r7 scenario exercises every OVB state.
        assert set(family) == {"PN", "RN", "C", "R"}

    def test_ccb_occupancy_histogram(self, example):
        h = example.scenarios["both correct"].metrics.histogram("cce.ccb_occupancy")
        assert h.count == 4  # one sample per CCB insert
        assert h.max >= 1

    def test_metrics_without_trace(self, example):
        """A run whose log is dropped still carries its metrics."""
        l4, l7 = example.spec_schedule.spec.ldpred_ids
        run = simulate_block(example.spec_schedule, {l4: False, l7: False})
        assert run.metrics.counter("vliw.predictions") == 2

    def test_traced_and_plain_runs_are_one_run(self, example):
        l4, l7 = example.spec_schedule.spec.ldpred_ids
        outcomes = {l4: False, l7: True}
        plain = simulate_block(example.spec_schedule, outcomes)
        traced, log = trace_block(example.spec_schedule, outcomes)
        assert plain == traced
        assert log.fold() == (dict(plain.cycle_stack), plain.tally)
        assert plain.metrics == traced.metrics


class TestProgramLevelMetrics:
    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.machine.configs import PLAYDOH_4W
        from repro.compiler.manager import compile_program
        from repro.profiling.profile_run import profile_program
        from repro.trace.capture import capture_trace
        from repro.workloads.suite import load_benchmark

        program = load_benchmark("li", scale=0.2)
        profile = profile_program(program, capture_trace(program))
        return compile_program(program, PLAYDOH_4W, profile)

    @pytest.fixture(scope="class")
    def trace(self, compiled):
        from repro.trace.capture import capture_trace

        return capture_trace(compiled.program)

    def test_flush_reexec_identity_program(self, compiled, trace):
        from repro.core.program_sim import simulate_program

        result = simulate_program(compiled, trace, collect_metrics=True)
        snap = result.metrics
        assert snap is not None
        assert (
            snap.counter("cce.flush") + snap.counter("cce.reexec")
            == result.cc_flushed + result.cc_executed
        )
        assert snap.counter("vliw.stall_cycles") == result.stall_cycles
        assert (
            snap.counter("vliw.predictions")
            == result.predictions
            == snap.counter("predict.hit", label="hybrid")
            + snap.counter("predict.miss", label="hybrid")
        )

    def test_metrics_none_when_disabled(self, compiled, trace):
        from repro.core.program_sim import simulate_program

        assert simulate_program(compiled, trace).metrics is None

    def test_metrics_collection_leaves_timing_unchanged(self, compiled, trace):
        from repro.core.program_sim import simulate_program

        plain = simulate_program(compiled, trace)
        metered = simulate_program(compiled, trace, collect_metrics=True)
        assert plain.cycles_proposed == metered.cycles_proposed
        assert plain.cycles_baseline == metered.cycles_baseline
        assert plain.mispredictions == metered.mispredictions

    def test_metrics_for_memoised_and_seeds_run_cache(self, compiled):
        label = compiled.speculated_labels[0]
        comp = compiled.block(label)
        n = len(comp.predicted_load_ids)
        first = comp.metrics_for((False,) * n)
        second = comp.metrics_for((False,) * n)
        assert first is second
        run = comp.run_for((False,) * n)
        assert first is run.metrics
        assert first.counter("cce.flush") + first.counter("cce.reexec") == (
            run.flushed + run.executed
        )

    def test_static_snapshot_weighted_like_length_fraction(self, compiled):
        snap = compiled.metrics_snapshot(best=True)
        total_weight = sum(
            compiled.profile.blocks.count(label)
            for label in compiled.speculated_labels
        )
        # Every weighted instance predicts at least one load.
        assert snap.counter("vliw.predictions") >= total_weight

    def test_pickled_compilation_drops_metrics_cache(self, compiled):
        """A block's metrics live on its pattern runs, which pickling
        drops with the other per-pattern memos."""
        import pickle

        label = compiled.speculated_labels[0]
        comp = compiled.block(label)
        n = len(comp.predicted_load_ids)
        comp.metrics_for((True,) * n)
        assert comp._pattern_cache
        clone = pickle.loads(pickle.dumps(comp))
        assert clone._pattern_cache == {}
        assert clone._cycles_cache == {}
