"""TraceStore caching semantics and its use by runner-less evaluations."""

import dataclasses

import pytest

from repro.batchsim.context import reset_shared_state
from repro.evaluation.experiment import Evaluation, EvaluationSettings
from repro.trace.capture import capture_trace
from repro.trace.format import ValueTrace
from repro.trace.store import TraceStore, default_store, reset_default_store
from repro.workloads.suite import load_benchmark, load_suite


@pytest.fixture(autouse=True)
def fresh_default_store():
    reset_default_store()
    yield
    reset_default_store()


class TestTraceStore:
    def test_capture_once_then_hit(self):
        store = TraceStore()
        program = load_benchmark("compress", scale=0.25)
        first = store.get_or_capture(program)
        second = store.get_or_capture(program)
        assert first is second
        assert store.captures == 1
        assert store.hits == 1
        assert store.misses == 1

    def test_structurally_identical_programs_share_an_entry(self):
        """Two separately built (differently op-numbered) copies of the
        same benchmark hit the same trace — the sweep-sharing property."""
        store = TraceStore()
        store.get_or_capture(load_benchmark("swim", scale=0.25))
        store.get_or_capture(load_benchmark("swim", scale=0.25))
        assert store.captures == 1
        assert store.hits == 1

    def test_lru_eviction(self):
        store = TraceStore(capacity=2)
        suite = load_suite(scale=0.25)
        for name in ("compress", "li", "swim"):
            store.get_or_capture(suite[name])
        assert len(store) == 2
        # compress was evicted; li and swim still hit.
        assert store.get(suite["compress"]) is None
        assert store.get(suite["li"]) is not None
        assert store.get(suite["swim"]) is not None

    def test_oversized_traces_are_served_but_not_retained(self):
        store = TraceStore(max_values=1)
        program = load_benchmark("compress", scale=0.25)
        trace = store.get_or_capture(program)
        assert trace.n_values > 1
        assert len(store) == 0
        assert store.get_or_capture(program) is not trace
        assert store.captures == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_explicit_put_and_clear(self):
        store = TraceStore()
        trace = capture_trace(load_benchmark("li", scale=0.25))
        store.put(trace)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0


class TestEvaluationIntegration:
    def test_sweep_shares_one_interpretation(self):
        """Separate Evaluations at different thresholds against one
        store capture once and replay thereafter."""
        store = TraceStore()
        results = []
        for threshold in (0.5, 0.8):
            settings = (
                EvaluationSettings(scale=0.2)
                .with_threshold(threshold)
                .with_benchmarks(["compress"])
            )
            evaluation = Evaluation(settings, trace_store=store)
            results.append(
                evaluation.simulation("compress", evaluation.machine_4w)
            )
        assert store.captures == 1
        assert store.hits >= 2  # profile + second sweep point's stages
        # The sweep is real: different thresholds, comparable results.
        assert all(r.cycles_proposed > 0 for r in results)

    def test_loaded_trace_results_equal_captured_results(self, tmp_path):
        """A store serving a trace read back from disk simulates exactly
        like the store that captured it."""
        settings = EvaluationSettings(scale=0.2).with_benchmarks(["li"])
        machine = Evaluation().machine_4w
        capturing = TraceStore()
        first = Evaluation(settings, trace_store=capturing)
        captured = first.simulation("li", machine)
        trace = capturing.get(first.program("li"))

        loading = TraceStore()
        loading.put(ValueTrace.load(trace.save(tmp_path / "li.trace.gz")))
        reset_shared_state()
        loaded = Evaluation(settings, trace_store=loading).simulation(
            "li", machine
        )
        assert loading.captures == 0
        assert dataclasses.asdict(loaded) == dataclasses.asdict(captured)

    def test_default_store_is_shared_process_wide(self):
        # The second Evaluation's profile is served by the shared
        # build/profile products, so it is the *simulation* read that
        # exercises the default store again (and must hit, not
        # re-capture).
        settings = EvaluationSettings(scale=0.2).with_benchmarks(["swim"])
        first = Evaluation(settings)
        first.profile("swim")
        second = Evaluation(settings)
        second.simulation("swim", second.machine_4w)
        assert default_store().captures == 1
        assert default_store().hits >= 1
