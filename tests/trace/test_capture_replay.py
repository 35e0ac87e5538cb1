"""Capture/replay correctness: profiles, simulations and round trips.

The trace layer's contract is *byte identity*: replaying a captured
trace through the profilers or the simulation observer must produce
exactly what the same observers see riding a live interpretation —
profiles, simulation counts, access counters and all.  The live side is
driven here through ``Interpreter().run(program, observers=[...])``; the
production entry points (``profile_program``, ``simulate_program``) read
only the trace.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import compile_program
from repro.core.program_sim import _SimulationObserver, simulate_program
from repro.ir.builder import ProgramBuilder
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.interpreter import ExecutionLimitExceeded, Interpreter
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.trace.format import TraceError, TraceMismatch, ValueTrace, program_digest
from repro.trace.replay import replay_trace
from repro.workloads.suite import load_suite
from tests.trace.reference_runs import live, observed_profile, replayed

SUITE = load_suite(scale=0.25)
TRACES = {name: capture_trace(program) for name, program in SUITE.items()}


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
            observer = _SimulationObserver(compilation)
            drive([observer])
            observer.finish()
            counts.append(observer.counts)
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
        path = trace.save(tmp_path / f"{workload}.trace.gz")
        loaded = ValueTrace.load(path)
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
        loaded = ValueTrace.load(trace.save(tmp_path / f"{workload}.trace.gz"))
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
        b = load_suite(scale=0.25)["swim"]  # freshly numbered ops
        ids_a = [op.op_id for blk in a.main for op in blk.operations]
        ids_b = [op.op_id for blk in b.main for op in blk.operations]
        assert ids_a != ids_b
        assert program_digest(a) == program_digest(b)

    def test_digest_sees_initial_state(self):
        a = load_suite(scale=0.25)["swim"]
        b = load_suite(scale=0.25)["swim"]
        b.poke(99999, 1)
        assert program_digest(a) != program_digest(b)

    def test_unsupported_schema_version_is_rejected(self):
        obj = TRACES["compress"].to_json_obj()
        obj["schema_version"] = 999
        with pytest.raises(TraceError, match="schema version 999"):
            ValueTrace.from_json_obj(obj)

    def test_malformed_object_is_rejected(self):
        with pytest.raises(TraceError, match="malformed"):
            ValueTrace.from_json_obj({"schema_version": 1})

    def test_unreadable_file_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.trace.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(TraceError, match="cannot read"):
            ValueTrace.load(path)

    def test_memory_keys_survive_json(self):
        trace = TRACES["compress"]
        rt = ValueTrace.from_json_obj(
            json.loads(json.dumps(trace.to_json_obj()))
        )
        assert rt.final_memory == trace.final_memory
        assert all(isinstance(k, int) for k in rt.final_memory)


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
    """serialize -> load -> replay reproduces the live profile for
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
        loaded = ValueTrace.load(trace.save(Path(tmp) / "t.gz"))
    assert_profiles_identical(
        observed_profile(program, live(program)),
        profile_program(program, loaded),
    )
