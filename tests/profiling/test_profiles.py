"""Unit tests for memory, block-frequency and value profiling."""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.profiling.memory import Memory
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.profiling.interpreter import run_program
from tests.profiling.reference_interpreter import run_reference
from tests.trace.reference_runs import BlockFrequencyProfiler, ValueProfiler


class TestMemory:
    def test_load_store(self):
        mem = Memory({5: 10})
        assert mem.load(5) == 10
        mem.store(6, 20)
        assert mem.load(6) == 20
        assert mem.reads == 2
        assert mem.writes == 1

    def test_uninitialised_zero(self):
        assert Memory().load(123) == 0

    def test_peek_does_not_count(self):
        mem = Memory({1: 2})
        mem.peek(1)
        assert mem.reads == 0

    def test_snapshot_is_a_copy(self):
        mem = Memory({1: 2})
        snap = mem.snapshot()
        snap[1] = 99
        assert mem.peek(1) == 2

    def test_float_addresses_truncated(self):
        mem = Memory()
        mem.store(7.0, 1)
        assert mem.load(7) == 1


class TestBlockProfile:
    def test_counts_and_frequencies(self, loop_program):
        profiler = BlockFrequencyProfiler()
        run_reference(loop_program, observers=[profiler])
        profile = profiler.profile()
        assert profile.count("loop") == 50
        assert profile.count("entry") == 1
        assert profile.count("missing") == 0
        assert profile.total == 52
        assert profile.frequency("loop") == pytest.approx(50 / 52)

    def test_hottest(self, loop_program):
        profiler = BlockFrequencyProfiler()
        run_reference(loop_program, observers=[profiler])
        hottest = profiler.profile().hottest(1)
        assert hottest[0][0] == "loop"


class TestValueProfile:
    def build_two_load_program(self):
        pb = ProgramBuilder("p")
        fb = pb.function()
        fb.block("entry")
        fb.mov("i", 0)
        fb.br("loop")
        fb.block("loop")
        fb.add("p1", "i", 100)
        fb.load("a", "p1")        # strided values
        fb.add("p2", "i", 500)
        fb.load("b", "p2")        # repeating pattern
        fb.add("i", "i", 1)
        fb.cmplt("c", "i", 30)
        fb.brcond("c", "loop", "exit")
        fb.block("exit")
        fb.halt()
        pb.add(fb.build())
        pb.memory(100, [7 * k for k in range(30)])
        pb.memory(500, [(9, 4, 2)[k % 3] for k in range(30)])
        return pb.build(), fb

    def test_rates_reflect_stream_character(self):
        program, _ = self.build_two_load_program()
        profiler = ValueProfiler()
        run_reference(program, observers=[profiler])
        profile = profiler.profile()
        loads = program.main.block("loop").loads()
        strided, repeating = loads[0], loads[1]
        assert profile.loads[strided.op_id].stride_rate > 0.8
        assert profile.loads[strided.op_id].fcm_rate < 0.2
        assert profile.loads[repeating.op_id].fcm_rate > 0.8
        assert profile.loads[repeating.op_id].stride_rate < 0.2

    def test_best_rate_is_max(self):
        program, _ = self.build_two_load_program()
        data = profile_program(program, capture_trace(program))
        for stats in data.values.loads.values():
            assert stats.best_rate == max(stats.stride_rate, stats.fcm_rate)

    def test_predictable_loads_thresholding(self):
        program, _ = self.build_two_load_program()
        data = profile_program(program, capture_trace(program))
        loads = program.main.block("loop").loads()
        predictable = data.values.predictable_loads(0.65)
        assert {l.op_id for l in loads} == set(predictable)
        assert data.values.predictable_loads(1.01) == []

    def test_unknown_load_rate_zero(self):
        program, _ = self.build_two_load_program()
        data = profile_program(program, capture_trace(program))
        assert data.values.rate(10**9) == 0.0
        assert data.values.executions(10**9) == 0

    def test_profile_data_contains_execution(self):
        program, _ = self.build_two_load_program()
        data = profile_program(program, capture_trace(program))
        assert data.program_name == "p"
        assert run_program(program).halted
        assert data.blocks.count("loop") == 30
        assert len(data.values) == 2
