"""Differential tests: the specialized interpreter vs the reference loop.

The specialized fast path must be observationally indistinguishable from
the per-op dispatch loop in ``reference_interpreter.py`` — same results,
the same block and traced-value streams as an observer on the reference
loop sees, same errors at the same dynamic operation.
"""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg
from repro.profiling.interpreter import ExecutionLimitExceeded, Interpreter
from repro.trace.format import TRACED_OPCODES
from repro.workloads.suite import load_suite
from repro.workloads.synthetic import random_program

from tests.profiling.reference_interpreter import run_reference


class EventRecorder:
    """Records the full observer event stream, values included."""

    def __init__(self):
        self.events = []

    def block_entered(self, block):
        self.events.append(("block", block.label))

    def operation_executed(self, op, inputs, result):
        self.events.append(("op", op, inputs, result))

    def recorded_streams(self):
        """The events the interpreter records: entered block labels and
        the results of traced ops."""
        blocks = [e[1] for e in self.events if e[0] == "block"]
        values = [
            e[3] for e in self.events
            if e[0] == "op" and e[1].opcode in TRACED_OPCODES
        ]
        return blocks, values


def run_legacy(program, observers=None, **kw):
    return run_reference(program, observers=observers, **kw)


def run_fast(program, **kw):
    return Interpreter(**kw).run(program)


def recorded_streams(result):
    """The fast path's recording as entered block labels and values."""
    return [result.labels[i] for i in result.block_seq], result.values


def assert_results_identical(a, b):
    assert a.program_name == b.program_name
    assert a.dynamic_operations == b.dynamic_operations
    assert a.dynamic_blocks == b.dynamic_blocks
    assert a.registers == b.registers
    # First-write order too: it is pickled into trace payloads.
    assert list(a.registers) == list(b.registers)
    assert a.memory.snapshot() == b.memory.snapshot()
    assert a.loads_executed == b.loads_executed
    assert a.stores_executed == b.stores_executed
    assert a.halted == b.halted


SUITE = load_suite(scale=0.25)


@pytest.mark.parametrize("workload", sorted(SUITE))
class TestSuiteDifferential:
    def test_results_and_event_streams_match(self, workload):
        program = SUITE[workload]
        rec = EventRecorder()
        legacy = run_legacy(program, observers=[rec])
        fast = run_fast(program)
        assert_results_identical(legacy, fast)
        assert recorded_streams(fast) == rec.recorded_streams()

    def test_observerless_run_matches_observed(self, workload):
        """The interpreter takes no observers; its run matches the
        reference loop's with and without one attached."""
        program = SUITE[workload]
        fast = run_fast(program)
        assert_results_identical(
            run_legacy(program, observers=[EventRecorder()]), fast
        )
        assert_results_identical(run_legacy(program), fast)


def _loop_program():
    pb = ProgramBuilder("loop")
    fb = pb.function()
    fb.block("entry")
    fb.mov("i", 0)
    fb.mov("base", 100)
    fb.br("body")
    fb.block("body")
    fb.load("x", "base")
    fb.add("x", "x", 1)
    fb.store("x", "base")
    fb.add("i", "i", 1)
    fb.cmplt("c", "i", 20)
    fb.brcond("c", "body", "done")
    fb.block("done")
    fb.halt()
    pb.add(fb.build())
    program = pb.build()
    program.poke(100, 7)
    return program


@pytest.mark.parametrize("seed", range(12))
def test_random_program_results_match(seed):
    program = random_program(seed)
    assert_results_identical(run_legacy(program), run_fast(program))


class TestRegisterFile:
    @staticmethod
    def _program():
        pb = ProgramBuilder("regs")
        fb = pb.function()
        fb.block("entry")
        fb.add("b", "never", 5)  # "never" is read but never written
        fb.mov("a", 1)
        fb.add("init2", "b", "a")
        fb.br("next")
        fb.block("next")
        fb.store("ghost", "ghost", offset=40)  # read-only, both operands
        fb.load("z", "ghost", offset=40)
        fb.cmpne("c", "unset", 0)
        fb.brcond("c", "next", "done")
        fb.block("done")
        fb.mov("a", "b")
        fb.halt()
        pb.add(fb.build())
        pb.register("init1", 10)
        pb.register("init2", 20)
        return pb.build()

    def test_unwritten_reads_are_zero_and_unreported(self):
        program = self._program()
        fast = run_fast(program)
        assert_results_identical(run_reference(program), fast)
        assert list(fast.registers) == ["init1", "init2", "b", "a", "z", "c"]
        assert fast.registers["b"] == 5 and fast.registers["z"] == 0
        assert fast.memory.snapshot() == {40: 0}


class TestLimitParity:
    @pytest.mark.parametrize("limit", [1, 2, 5, 6, 7, 50, 121, 122])
    def test_limit_raises_at_the_same_operation(self, limit):
        """The budget error fires with the exact same message on both
        paths, and a run that completes records what the reference
        observer saw."""
        program = _loop_program()
        rec = EventRecorder()
        try:
            run_legacy(program, observers=[rec], max_operations=limit)
            legacy = ("completed", rec.recorded_streams())
        except ExecutionLimitExceeded as exc:
            legacy = (str(exc), None)
        try:
            result = run_fast(program, max_operations=limit)
            fast = ("completed", recorded_streams(result))
        except ExecutionLimitExceeded as exc:
            fast = (str(exc), None)
        assert fast == legacy

    def test_limit_message_names_program_and_budget(self):
        program = _loop_program()
        with pytest.raises(ExecutionLimitExceeded, match="loop: exceeded 3"):
            run_fast(program, max_operations=3)


class TestDispatchMiss:
    """Prediction-form opcodes have no architectural interpretation; the
    specialized path must reject them with the legacy loop's message."""

    @staticmethod
    def _program_with(op):
        pb = ProgramBuilder("predform")
        fb = pb.function()
        fb.block("entry")
        fb.mov("a", 1)
        fb.halt()
        pb.add(fb.build())
        program = pb.build()
        # The verifier (rightly) rejects prediction forms in front-end
        # code, so splice the op in after the build, before the halt —
        # exactly the malformed input the interpreter must reject.
        ops = program.main.block("entry").operations
        ops.insert(len(ops) - 1, op)
        return program

    @pytest.mark.parametrize(
        "op",
        [
            Operation(Opcode.LDPRED, dest=Reg("p"), op_id=100),
            Operation(Opcode.CHKPRED, dest=Reg("p"), srcs=(Reg("a"),), op_id=100),
        ],
        ids=["ldpred", "chkpred"],
    )
    def test_same_message_on_both_paths(self, op):
        program = self._program_with(op)
        messages = []
        for runner in (run_legacy, run_fast):
            with pytest.raises(ValueError) as excinfo:
                runner(program)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "prediction forms exist only in scheduled code" in messages[0]


class TestFallThrough:
    def test_missing_branch_raises_identically(self):
        pb = ProgramBuilder("fallthrough")
        fb = pb.function()
        fb.block("entry")
        fb.mov("a", 1)
        fb.halt()
        pb.add(fb.build())
        program = pb.build()
        program.main.block("entry").operations.pop()  # drop the halt
        messages = []
        for runner in (run_legacy, run_fast):
            with pytest.raises(RuntimeError) as excinfo:
                runner(program)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "fell through without a branch" in messages[0]
