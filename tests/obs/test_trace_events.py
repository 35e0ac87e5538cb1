"""Typed trace events and simulator instrumentation.

Includes the PR's acceptance check: for a metrics-enabled run of the
worked example, ``cce.flush + cce.reexec`` in the snapshot equals the
simulator's own ``flushed + executed`` counters — and the same identity
holds for a whole-program simulation.
"""

import pytest

from repro.evaluation.paper_example import run_example
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    CheckEvent,
    ExecuteEvent,
    FlushEvent,
    LdPredEvent,
    OvbTransitionEvent,
    SpeculateEvent,
    StallEvent,
    SyncClearEvent,
    SyncSetEvent,
    TraceSink,
)
from repro.core.machine_sim import simulate_block


@pytest.fixture(scope="module")
def example():
    return run_example()


def _resimulate(example, scenario, metrics=None):
    l4, l7 = example.spec_schedule.spec.ldpred_ids
    outcomes = {
        "both correct": {l4: True, l7: True},
        "r7 mispredicted": {l4: True, l7: False},
        "r4 mispredicted": {l4: False, l7: True},
        "both mispredicted": {l4: False, l7: False},
    }[scenario]
    kwargs = {"metrics": metrics} if metrics is not None else {}
    return simulate_block(
        example.spec_schedule, outcomes, collect_trace=True, **kwargs
    )


class TestTypedEvents:
    def test_event_kinds_present(self, example):
        run = example.scenarios["r7 mispredicted"]
        kinds = {e.kind for e in run.trace}
        assert {"ldpred", "speculate", "check", "flush", "execute",
                "sync_set", "sync_clear", "ovb_transition"} <= kinds

    def test_events_sorted_by_cycle(self, example):
        for run in example.scenarios.values():
            cycles = [e.cycle for e in run.trace]
            assert cycles == sorted(cycles)

    def test_check_events_match_outcomes(self, example):
        run = example.scenarios["both mispredicted"]
        checks = [e for e in run.trace if isinstance(e, CheckEvent)]
        assert len(checks) == 2
        assert all(not e.correct for e in checks)

    def test_ldpred_events_one_per_prediction(self, example):
        run = example.scenarios["both correct"]
        assert len([e for e in run.trace if isinstance(e, LdPredEvent)]) == 2

    def test_flush_and_execute_partition_ccb(self, example):
        run = example.scenarios["r7 mispredicted"]
        flushes = [e for e in run.trace if isinstance(e, FlushEvent)]
        executes = [e for e in run.trace if isinstance(e, ExecuteEvent)]
        assert len(flushes) == run.flushed == 2
        assert len(executes) == run.executed == 2

    def test_speculate_events_cover_ccb_inserts(self, example):
        run = example.scenarios["both correct"]
        inserts = [e for e in run.trace if isinstance(e, SpeculateEvent)]
        assert len(inserts) == run.flushed + run.executed == 4

    def test_as_dict_is_json_friendly(self, example):
        import json

        run = example.scenarios["r4 mispredicted"]
        payload = [e.as_dict() for e in run.trace]
        text = json.dumps(payload)
        assert '"kind"' in text and '"engine"' in text

    def test_str_has_engine_prefix(self, example):
        run = example.scenarios["r4 mispredicted"]
        by_engine = {str(e).split(":")[0] for e in run.trace}
        assert {"VLIW", "CCE", "OVB", "SYNC"} <= by_engine

    def test_sink_of_kind(self):
        sink = TraceSink()
        sink.emit(SyncSetEvent(cycle=0, bit=1))
        sink.emit(SyncClearEvent(cycle=3, bit=1))
        assert len(sink) == 2
        assert [e.kind for e in sink.of_kind("sync_set")] == ["sync_set"]


class TestMetricsInstrumentation:
    def test_flush_reexec_identity_block(self, example):
        """Acceptance: snapshot flush+reexec == simulator flushed+executed."""
        for scenario in (
            "both correct",
            "r7 mispredicted",
            "r4 mispredicted",
            "both mispredicted",
        ):
            registry = MetricsRegistry()
            run = _resimulate(example, scenario, metrics=registry)
            snap = registry.snapshot()
            assert (
                snap.counter("cce.flush") + snap.counter("cce.reexec")
                == run.flushed + run.executed
            ), scenario

    def test_stall_cycles_counter(self, example):
        registry = MetricsRegistry()
        run = _resimulate(example, "both mispredicted", metrics=registry)
        snap = registry.snapshot()
        assert snap.counter("vliw.stall_cycles") == run.stall_cycles
        stall_events = [e for e in run.trace if isinstance(e, StallEvent)]
        assert sum(e.stall for e in stall_events) == run.stall_cycles

    def test_prediction_counters(self, example):
        registry = MetricsRegistry()
        run = _resimulate(example, "r4 mispredicted", metrics=registry)
        snap = registry.snapshot()
        assert snap.counter("vliw.predictions") == run.predictions == 2
        assert snap.counter("vliw.mispredictions") == run.mispredictions == 1

    def test_ovb_transition_counters_match_events(self, example):
        registry = MetricsRegistry()
        run = _resimulate(example, "r7 mispredicted", metrics=registry)
        snap = registry.snapshot()
        transitions = [e for e in run.trace if isinstance(e, OvbTransitionEvent)]
        family = snap.counter_family("ovb.state_transitions")
        assert sum(family.values()) == len(transitions)
        # The r7 scenario exercises every OVB state.
        assert set(family) == {"PN", "RN", "C", "R"}

    def test_ccb_occupancy_histogram(self, example):
        registry = MetricsRegistry()
        _resimulate(example, "both correct", metrics=registry)
        h = registry.snapshot().histogram("cce.ccb_occupancy")
        assert h.count == 4  # one sample per CCB insert
        assert h.max >= 1

    def test_metrics_without_trace(self, example):
        """Metrics do not require trace collection (and vice versa)."""
        l4, l7 = example.spec_schedule.spec.ldpred_ids
        registry = MetricsRegistry()
        run = simulate_block(
            example.spec_schedule, {l4: False, l7: False}, metrics=registry
        )
        assert run.trace == ()
        assert registry.counter("vliw.predictions") == 2

    def test_disabled_metrics_identical_timing(self, example):
        l4, l7 = example.spec_schedule.spec.ldpred_ids
        plain = simulate_block(example.spec_schedule, {l4: False, l7: True})
        metered = simulate_block(
            example.spec_schedule,
            {l4: False, l7: True},
            metrics=MetricsRegistry(),
        )
        assert plain == metered


class TestProgramLevelMetrics:
    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.machine.configs import PLAYDOH_4W
        from repro.core.metrics import compile_program
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
        import pickle

        label = compiled.speculated_labels[0]
        comp = compiled.block(label)
        n = len(comp.predicted_load_ids)
        comp.metrics_for((True,) * n)
        clone = pickle.loads(pickle.dumps(comp))
        assert clone._metrics_cache == {}
        assert clone._pattern_cache == {}
