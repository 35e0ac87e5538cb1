"""Capture/replay correctness: profiles, simulations and round trips.

The trace layer's contract is *byte identity*: replaying a captured
trace through the reference profilers or simulation observer
(``tests/trace/reference_runs.py``) must produce exactly what the same
observers see riding a live interpretation — profiles, simulation
counts, access counters and all.  The live side is the reference
interpreter's per-op loop (``reference_runs.live``), the only
interpreter that takes observers; the production entry points
(``profile_program``, ``simulate_program``) read only the trace.  A
trace persists the way the runner stores every stage result: pickled
into its disk cache (``DiskCache``), and a trace read back from there
must replay exactly like the captured one.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.manager import compile_program
from repro.core.program_sim import simulate_program
from repro.ir.builder import ProgramBuilder
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.interpreter import ExecutionLimitExceeded, Interpreter
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.runner.cache import DiskCache
from repro.trace.format import TraceMismatch, program_digest
from repro.workloads.suite import load_suite
from tests.trace.reference_runs import (
    SimulationObserver,
    live,
    observed_profile,
    replay_trace,
    replayed,
)

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}


def stored_and_read(trace, root):
    """``trace`` written to a disk cache at ``root`` and read back by a
    fresh cache instance, as a warm run reads it."""
    writer = DiskCache(root=root)
    writer.put("trace", trace)
    writer.close()
    reader = DiskCache(root=root)
    hit, loaded = reader.get("trace")
    reader.close()
    assert hit
    return loaded


def assert_profiles_identical(a, b):
    assert a.blocks == b.blocks
    assert a.values.loads.keys() == b.values.loads.keys()
    for op_id in a.values.loads:
        assert dataclasses.asdict(a.values.loads[op_id]) == dataclasses.asdict(
            b.values.loads[op_id]
        )


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestSuiteReplay:
    def test_profile_replay_is_identical(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        from_live = observed_profile(program, live(program))
        assert_profiles_identical(
            from_live, observed_profile(program, replayed(trace, program))
        )
        assert_profiles_identical(from_live, profile_program(program, trace))

    def test_alu_profile_replay_is_identical(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        from_live = observed_profile(program, live(program), profile_alu=True)
        assert_profiles_identical(
            from_live,
            observed_profile(
                program, replayed(trace, program), profile_alu=True
            ),
        )
        assert_profiles_identical(
            from_live, profile_program(program, trace, profile_alu=True)
        )

    def test_simulation_replay_is_identical(self, workload):
        program = SUITE[workload]
        trace = TRACES[workload]
        compilation = compile_program(
            program, PLAYDOH_4W, profile_program(program, trace)
        )
        counts = []
        for drive in (live(program), replayed(trace, program)):
            observer = SimulationObserver(compilation)
            drive([observer])
            counts.append(observer.finish())
        assert counts[0] == counts[1]

    def test_replayed_final_state_matches_interpreter(self, workload):
        """Profiles do not carry the run's final state; the trace does,
        and replaying it must give the interpreter's exact result."""
        program = SUITE[workload]
        live = Interpreter().run(program)
        replayed = replay_trace(TRACES[workload], program)
        assert replayed.registers == live.registers
        assert replayed.memory.snapshot() == live.memory.snapshot()
        assert replayed.dynamic_operations == live.dynamic_operations
        assert replayed.dynamic_blocks == live.dynamic_blocks
        assert replayed.loads_executed == live.loads_executed
        assert replayed.stores_executed == live.stores_executed
        assert replayed.halted == live.halted

    def test_replayed_memory_counters_match_capture(self, workload):
        """Satellite: a replayed run must report the captured run's
        load/store counts, not zero."""
        trace = TRACES[workload]
        result = replay_trace(trace, SUITE[workload])
        assert result.loads_executed == trace.loads_executed
        assert result.stores_executed == trace.stores_executed
        assert result.loads_executed > 0
        assert result.stores_executed > 0

    def test_file_roundtrip_replays_identically(self, workload, tmp_path):
        trace = TRACES[workload]
        loaded = stored_and_read(trace, tmp_path / "cache")
        assert dataclasses.asdict(loaded) == dataclasses.asdict(trace)
        program = SUITE[workload]
        assert_profiles_identical(
            observed_profile(program, live(program)),
            profile_program(program, loaded),
        )


    def test_loaded_trace_simulates_like_the_captured_one(
        self, workload, tmp_path
    ):
        program = SUITE[workload]
        trace = TRACES[workload]
        compilation = compile_program(
            program, PLAYDOH_4W, profile_program(program, trace)
        )
        loaded = stored_and_read(trace, tmp_path / "cache")
        assert dataclasses.asdict(
            simulate_program(compilation, loaded)
        ) == dataclasses.asdict(simulate_program(compilation, trace))


class TestMismatchDetection:
    def test_wrong_program_is_rejected(self):
        with pytest.raises(TraceMismatch, match="different program"):
            replay_trace(TRACES["compress"], SUITE["li"])

    def test_mutated_block_is_rejected(self):
        program = load_suite(scale=0.25)["compress"]
        trace = capture_trace(program)
        # Mutating a block after capture invalidates both the digest and
        # the per-block opcode signature.
        labels = list(trace.labels)
        a = program.main.block(labels[0])
        b = program.main.block(labels[1])
        a.operations, b.operations = b.operations, a.operations
        with pytest.raises(TraceMismatch):
            replay_trace(trace, program)

    def test_truncated_value_stream_is_rejected(self):
        trace = TRACES["compress"]
        broken = dataclasses.replace(trace, values=trace.values[:-1])
        program = SUITE["compress"]
        with pytest.raises(TraceMismatch, match="ran out of values"):
            observed_profile(program, replayed(broken, program))

    def test_oversized_value_stream_is_rejected(self):
        trace = TRACES["compress"]
        broken = dataclasses.replace(trace, values=trace.values + [0])
        with pytest.raises(TraceMismatch):
            replay_trace(broken, SUITE["compress"])

    def test_limit_budget_is_enforced_on_replay(self):
        trace = TRACES["compress"]
        with pytest.raises(ExecutionLimitExceeded, match="compress: exceeded"):
            replay_trace(trace, SUITE["compress"], max_operations=10)


class TestFormat:
    def test_digest_ignores_operation_ids(self):
        a = load_suite(scale=0.25)["swim"]
        b = load_suite(scale=0.25)["swim"]
        # Renumber b by hand: the architectural run never reads ids.
        for blk in b.main:
            for op in blk.operations:
                op.op_id += 1000
        ids_a = [op.op_id for blk in a.main for op in blk.operations]
        ids_b = [op.op_id for blk in b.main for op in blk.operations]
        assert ids_a != ids_b
        assert program_digest(a) == program_digest(b)

    def test_digest_sees_initial_state(self):
        a = load_suite(scale=0.25)["swim"]
        b = load_suite(scale=0.25)["swim"]
        b.poke(99999, 1)
        assert program_digest(a) != program_digest(b)



@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-(2**30), max_value=2**30) | st.floats(
            allow_nan=False, allow_infinity=False, width=32
        ),
        min_size=1,
        max_size=16,
    ),
    iterations=st.integers(min_value=1, max_value=8),
)
def test_property_roundtrip_replay(values, iterations):
    """store -> read back -> replay reproduces the live profile for
    arbitrary array contents and loop lengths."""
    pb = ProgramBuilder("prop")
    fb = pb.function()
    fb.block("entry")
    fb.mov("base", 1000)
    fb.mov("i", 0)
    fb.br("loop")
    fb.block("loop")
    fb.add("addr", "base", "i")
    fb.load("x", "addr")
    fb.mul("y", "x", 3)
    fb.store("y", "addr")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", len(values) * iterations)
    fb.brcond("c", "loop", "done")
    fb.block("done")
    fb.halt()
    pb.add(fb.build())
    program = pb.build()
    for i, v in enumerate(values * iterations):
        program.poke(1000 + i, v)

    trace = capture_trace(program)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = stored_and_read(trace, Path(tmp) / "cache")
    assert_profiles_identical(
        observed_profile(program, live(program)),
        profile_program(program, loaded),
    )
