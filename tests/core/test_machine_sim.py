"""Tests of the dual-engine block simulator."""

import pytest

from repro.core.machine_sim import (
    simulate_all_outcomes,
    simulate_best_case,
    simulate_block,
    simulate_worst_case,
    trace_block,
)
from repro.core.specsched import schedule_speculative
from repro.core.speculation import transform_block
from repro.obs.trace import CheckEvent, ExecuteEvent
from repro.ir.builder import FunctionBuilder
from repro.sched.list_scheduler import schedule_block


def spec_schedule_for(emit, predicted, machine, live_out=frozenset()):
    fb = FunctionBuilder("f")
    fb.block("entry")
    handles = emit(fb)
    fb.halt()
    block = fb.build().block("entry")
    loads = [handles[i] for i in predicted]
    original = schedule_block(block, machine).length
    spec = transform_block(block, machine, loads, live_out=live_out)
    return schedule_speculative(spec, machine, original_length=original)


@pytest.fixture
def chain(m4):
    """load -> add -> mul -> store (store is the non-speculative sink)."""
    def emit(fb):
        fb.mov("p", 100)
        load = fb.load("a", "p")
        fb.add("b", "a", 1)
        fb.mul("c", "b", "b")
        fb.store("c", "p", offset=10)
        return [load]

    return spec_schedule_for(emit, [0], m4)


class TestSingleBlockTiming:
    def test_best_case_equals_static_length(self, chain):
        run = simulate_best_case(chain)
        assert run.effective_length == chain.length
        assert run.stall_cycles == 0
        assert run.executed == 0
        assert run.flushed == 2  # add and mul were correctly speculated
        assert run.all_correct

    def test_best_case_beats_original(self, chain):
        run = simulate_best_case(chain)
        assert run.effective_length < chain.original_length

    def test_worst_case_executes_compensation(self, chain):
        run = simulate_worst_case(chain)
        assert run.executed == 2
        assert run.flushed == 0
        assert run.mispredictions == 1
        assert run.all_incorrect
        assert run.effective_length >= simulate_best_case(chain).effective_length

    def test_worst_case_stalls_on_sync_bits(self, chain):
        run = simulate_worst_case(chain)
        assert run.stall_cycles > 0

    def test_missing_outcome_rejected(self, chain):
        with pytest.raises(ValueError, match="missing prediction outcomes"):
            simulate_block(chain, {})

    def test_trace_collection(self, chain):
        run, log = trace_block(chain, {chain.spec.ldpred_ids[0]: False})
        assert run == simulate_worst_case(chain)
        events = log.events()
        checks = [e for e in events if isinstance(e, CheckEvent)]
        assert any(not e.correct for e in checks)
        assert any(isinstance(e, ExecuteEvent) for e in events)
        # The rendered form keeps the historical wording.
        text = "\n".join(str(e) for e in events)
        assert "MISPREDICT" in text
        assert "execute" in text

    def test_trace_events_sorted_by_cycle(self, chain):
        _, log = trace_block(chain, {chain.spec.ldpred_ids[0]: False})
        cycles = [e.cycle for e in log.events()]
        assert cycles == sorted(cycles)

    def test_all_outcomes_enumerates_patterns(self, chain):
        results = simulate_all_outcomes(chain)
        assert set(results) == {(False,), (True,)}
        assert results[(True,)].effective_length <= results[(False,)].effective_length


class TestTwoPredictionBlock:
    @pytest.fixture
    def two_chains(self, m4):
        def emit(fb):
            fb.mov("p", 100)
            l1 = fb.load("a", "p")
            fb.add("b", "a", 1)
            fb.mul("c", "b", 3)
            l2 = fb.load("x", "p", offset=1)
            fb.add("y", "x", 2)
            fb.mul("z", "y", 5)
            fb.store("c", "p", offset=10)
            fb.store("z", "p", offset=11)
            return [l1, l2]

        return spec_schedule_for(emit, [0, 1], m4)

    def test_partial_misprediction_between_best_and_worst(self, two_chains):
        results = simulate_all_outcomes(two_chains)
        best = results[(True, True)].effective_length
        worst = results[(False, False)].effective_length
        for pattern, run in results.items():
            assert best <= run.effective_length <= worst

    def test_mixed_classification(self, two_chains):
        results = simulate_all_outcomes(two_chains)
        mixed = results[(True, False)]
        assert not mixed.all_correct and not mixed.all_incorrect
        assert mixed.mispredictions == 1
        assert mixed.predictions == 2

    def test_flush_execute_partition(self, two_chains):
        # Each prediction guards exactly two dependent ops: whatever is
        # not flushed must be executed.
        for run in simulate_all_outcomes(two_chains).values():
            assert run.flushed + run.executed == 4


class TestCCTail:
    def test_cc_tail_reported_not_charged(self, m4):
        # A long-latency speculated op (mul, 3 cycles) recomputed at the
        # very end can outlast the VLIW stream; the tail is reported.
        def emit(fb):
            fb.mov("p", 100)
            load = fb.load("a", "p")
            fb.add("b", "a", 1)
            fb.mul("c", "b", "b")
            fb.mul("d", "c", "c")
            fb.store("b", "p", offset=10)
            return [load]

        sched = spec_schedule_for(emit, [0], m4)
        run = simulate_worst_case(sched)
        assert run.effective_length == run.vliw_length
        assert run.cc_tail >= 0
