"""Unit tests for the architectural interpreter."""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.profiling.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    run_program,
)
from tests.profiling.reference_interpreter import run_reference


def program_of(emit, name="p", memory=None, registers=None):
    pb = ProgramBuilder(name)
    fb = pb.function()
    emit(fb)
    pb.add(fb.build())
    for base, vals in (memory or {}).items():
        pb.memory(base, vals)
    for reg, val in (registers or {}).items():
        pb.register(reg, val)
    return pb.build()


class TestStraightLineSemantics:
    def test_arithmetic(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("a", 6)
            fb.mov("b", 7)
            fb.mul("c", "a", "b")
            fb.sub("d", "c", 2)
            fb.halt()

        result = run_program(program_of(emit))
        assert result.registers["c"] == 42
        assert result.registers["d"] == 40
        assert result.halted

    def test_memory_roundtrip(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("p", 100)
            fb.load("a", "p")          # 100 -> 11
            fb.load("b", "p", offset=1)  # 101 -> 22
            fb.add("c", "a", "b")
            fb.store("c", "p", offset=5)
            fb.halt()

        result = run_program(program_of(emit, memory={100: [11, 22]}))
        assert result.registers["c"] == 33
        assert result.memory.peek(105) == 33

    def test_uninitialised_memory_reads_zero(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("p", 999)
            fb.load("a", "p")
            fb.halt()

        result = run_program(program_of(emit))
        assert result.registers["a"] == 0

    def test_initial_registers(self):
        def emit(fb):
            fb.block("entry")
            fb.add("out", "arg", 1)
            fb.halt()

        result = run_program(program_of(emit, registers={"arg": 41}))
        assert result.registers["out"] == 42

    def test_float_semantics(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("x", 2.0)
            fb.fmul("y", "x", 3.5)
            fb.fdiv("z", "y", 2.0)
            fb.halt()

        result = run_program(program_of(emit))
        assert result.registers["y"] == pytest.approx(7.0)
        assert result.registers["z"] == pytest.approx(3.5)


class TestControlFlow:
    def test_brcond_takes_then_on_nonzero(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("c", 1)
            fb.brcond("c", "then", "else")
            fb.block("then")
            fb.mov("out", 10)
            fb.br("exit")
            fb.block("else")
            fb.mov("out", 20)
            fb.br("exit")
            fb.block("exit")
            fb.halt()

        assert run_program(program_of(emit)).registers["out"] == 10

    def test_brcond_takes_else_on_zero(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("c", 0)
            fb.brcond("c", "then", "else")
            fb.block("then")
            fb.mov("out", 10)
            fb.br("exit")
            fb.block("else")
            fb.mov("out", 20)
            fb.br("exit")
            fb.block("exit")
            fb.halt()

        assert run_program(program_of(emit)).registers["out"] == 20

    def test_loop_executes_expected_iterations(self, loop_program):
        result = run_program(loop_program)
        # sum of 3*k for k in 0..49
        assert result.registers["r_acc"] == 3 * sum(range(50))
        assert result.dynamic_blocks == 2 + 50  # entry + 50 loop + exit? no:
        # entry(1) + loop(50) + exit(1) = 52
        assert result.dynamic_blocks == 52

    def test_operation_budget_enforced(self):
        def emit(fb):
            fb.block("entry")
            fb.br("entry")  # infinite loop

        with pytest.raises(ExecutionLimitExceeded):
            Interpreter(max_operations=100).run(program_of(emit))


class TestStrictMode:
    def test_lenient_reads_zero(self):
        def emit(fb):
            fb.block("entry")
            fb.add("out", "ghost", 1)
            fb.halt()

        assert run_program(program_of(emit)).registers["out"] == 1


class TestObservers:
    """Observers ride the reference loop; what they see must match the
    interpreter's run."""

    def test_observers_see_every_operation(self, loop_program):
        class Recorder:
            def __init__(self):
                self.blocks = 0
                self.ops = 0

            def block_entered(self, block):
                self.blocks += 1

            def operation_executed(self, op, inputs, result):
                self.ops += 1

        recorder = Recorder()
        run_reference(loop_program, observers=[recorder])
        result = run_program(loop_program)
        assert recorder.blocks == result.dynamic_blocks
        assert recorder.ops == result.dynamic_operations

    def test_observer_sees_actual_values(self):
        def emit(fb):
            fb.block("entry")
            fb.mov("a", 5)
            fb.add("b", "a", 2)
            fb.halt()

        seen = []

        class Recorder:
            def block_entered(self, block):
                pass

            def operation_executed(self, op, inputs, result):
                seen.append((op.opcode.value, inputs, result))

        run_reference(program_of(emit), observers=[Recorder()])
        assert ("mov", (5,), 5) in seen
        assert ("add", (5, 2), 7) in seen

    def test_load_store_counters(self, loop_program):
        result = run_program(loop_program)
        assert result.loads_executed == 50
        assert result.stores_executed == 1
