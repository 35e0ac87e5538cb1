"""Tests over the benchmark suite: structure, determinism, behaviour."""

import pytest

from repro.ir.printer import format_program
from repro.ir.verifier import verify_program
from repro.profiling.interpreter import run_program
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.workloads.kernels import LoopSpec, chain_loops
from repro.workloads.suite import (
    BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    benchmark_names,
    load_benchmark,
    load_suite,
)


class TestSuiteStructure:
    def test_paper_order(self):
        assert benchmark_names() == [
            "compress", "ijpeg", "li", "m88ksim", "vortex",
            "hydro2d", "swim", "tomcatv",
        ]
        assert INT_BENCHMARKS + FP_BENCHMARKS == benchmark_names()

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            load_benchmark("gcc")

    def test_load_suite_builds_all(self):
        suite = load_suite(scale=0.1)
        assert set(suite) == set(BENCHMARKS)


@pytest.mark.parametrize("name", benchmark_names())
class TestEveryBenchmark:
    def test_verifies(self, name):
        verify_program(load_benchmark(name, scale=0.1))

    def test_runs_to_halt(self, name):
        result = run_program(load_benchmark(name, scale=0.1))
        assert result.halted
        assert result.dynamic_operations > 0

    def test_deterministic(self, name):
        a = run_program(load_benchmark(name, scale=0.1))
        b = run_program(load_benchmark(name, scale=0.1))
        assert a.registers == b.registers
        assert a.dynamic_operations == b.dynamic_operations
        assert a.memory.snapshot() == b.memory.snapshot()

    def test_scale_controls_work(self, name):
        small = run_program(load_benchmark(name, scale=0.1))
        large = run_program(load_benchmark(name, scale=0.3))
        assert large.dynamic_operations > small.dynamic_operations

    def test_has_predictable_load_above_threshold(self, name):
        """Every benchmark must give the speculation pass something to
        chew on (the paper predicts loads in every benchmark)."""
        program = load_benchmark(name, scale=0.5)
        profile = profile_program(program, capture_trace(program))
        assert profile.values.predictable_loads(0.65)

    def test_has_unpredictable_loads_too(self, name):
        """And something it must leave alone — the suite exercises the
        threshold, not just the transform."""
        program = load_benchmark(name, scale=0.5)
        profile = profile_program(program, capture_trace(program))
        rates = [stats.best_rate for stats in profile.values.loads.values()]
        assert min(rates) < 0.65

    def test_loops_dominate_execution(self, name):
        program = load_benchmark(name, scale=0.3)
        profile = profile_program(program, capture_trace(program))
        entry_fraction = profile.blocks.frequency("entry")
        assert entry_fraction < 0.05

    def test_printable(self, name):
        text = format_program(load_benchmark(name, scale=0.1))
        assert name in text


class TestKernelHelpers:
    def test_loop_trip_count(self):
        from repro.ir.builder import FunctionBuilder
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder("k")
        fb = pb.function()
        body_calls = []
        chain_loops(
            fb,
            [LoopSpec("l1", 7, "i", lambda fb: body_calls.append(1) or fb.mov("x", 1))],
        )
        pb.add(fb.build())
        result = run_program(pb.build())
        # entry + 7 iterations + exit
        assert result.dynamic_blocks == 9

    def test_loops_chain_in_order(self):
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder("k")
        fb = pb.function()
        chain_loops(
            fb,
            [
                LoopSpec("first", 3, "i", lambda fb: fb.add("a", "a", 1)),
                LoopSpec("second", 4, "j", lambda fb: fb.add("b", "b", 1)),
            ],
        )
        pb.add(fb.build())
        result = run_program(pb.build())
        assert result.registers["a"] == 3
        assert result.registers["b"] == 4

    def test_zero_trip_rejected(self):
        from repro.ir.builder import FunctionBuilder

        fb = FunctionBuilder("f")
        with pytest.raises(ValueError, match="at least one trip"):
            chain_loops(fb, [LoopSpec("l", 0, "i", lambda fb: None)])

    def test_empty_loop_list_rejected(self):
        from repro.ir.builder import FunctionBuilder

        with pytest.raises(ValueError, match="at least one loop"):
            chain_loops(FunctionBuilder("f"), [])
