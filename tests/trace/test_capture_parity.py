"""Capture parity: the interpreter's own recording vs the reference recorder.

``capture_trace`` records the block sequence and the traced values inside
the interpreter's compiled blocks.  It must build, field for field, the
trace the reference recorder (an observer on the reference interpreter's
per-op loop, ``reference_runs.reference_capture``) builds — and a budget
or dispatch error must end both runs at the same dynamic operation.
"""

import dataclasses

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation, Reg
from repro.profiling.interpreter import ExecutionLimitExceeded
from repro.trace.capture import capture_trace
from repro.trace.format import TRACED_OPCODES
from repro.workloads.suite import load_benchmark, load_suite
from repro.workloads.synthetic import random_program
from tests.trace.reference_runs import reference_capture

SUITE = load_suite(scale=0.25)


def outcome(capture, program, max_operations=5_000_000):
    """The trace as plain data, or the error that ended the run."""
    try:
        return dataclasses.asdict(capture(program, max_operations))
    except (ExecutionLimitExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(program, max_operations=5_000_000):
    expected = outcome(reference_capture, program, max_operations)
    assert outcome(capture_trace, program, max_operations) == expected
    return expected


@pytest.mark.parametrize("workload", sorted(SUITE))
def test_suite_trace_matches_reference_recorder(workload):
    trace = assert_same_outcome(SUITE[workload])
    assert trace["values"], "the suite's traces all hold traced values"


@pytest.mark.parametrize("seed", range(24))
def test_random_program_trace_matches_reference_recorder(seed):
    assert_same_outcome(random_program(seed))


def budgets_inside_traced_blocks(program, instances=4):
    """Budgets that end inside dynamic block instances holding traced
    ops: just before and just after a traced op, neither at the block's
    end.  Instances are spread over the run."""
    trace = reference_capture(program)
    function = program.main
    candidates = []
    executed = 0
    for block_id in trace.block_seq:
        ops = function.block(trace.labels[block_id]).operations
        traced = [
            i for i, op in enumerate(ops) if op.opcode in TRACED_OPCODES
        ]
        if traced and traced[0] + 1 < len(ops):
            candidates.append((executed + traced[0], executed + traced[0] + 1))
        executed += len(ops)
    assert candidates, f"{program.name} runs no block holding a traced op"
    step = max(1, len(candidates) // instances)
    budgets = sorted({b for pair in candidates[::step] for b in pair})
    return budgets + [trace.dynamic_operations - 1, trace.dynamic_operations]


@pytest.mark.parametrize(
    "program",
    [SUITE["compress"], SUITE["swim"], random_program(3), random_program(7)],
    ids=["compress", "swim", "synthetic-3", "synthetic-7"],
)
def test_budget_inside_a_traced_block_ends_both_runs_alike(program):
    budgets = budgets_inside_traced_blocks(program)
    outcomes = [assert_same_outcome(program, budget) for budget in budgets]
    assert all(isinstance(o, tuple) for o in outcomes[:-1])
    assert isinstance(outcomes[-1], dict), "the full budget completes"


def _mixed_program():
    pb = ProgramBuilder("mixed")
    fb = pb.function()
    fb.block("entry")
    fb.mov("p", 100)
    fb.load("a", "p")
    fb.mul("b", "a", 3)
    fb.halt()
    pb.add(fb.build())
    return pb.build()


@pytest.mark.parametrize(
    "build",
    [_mixed_program, lambda: random_program(3), lambda: load_benchmark("li", 0.25)],
    ids=["mixed", "synthetic-3", "li"],
)
def test_budget_error_precedes_a_later_dispatch_miss(build):
    """Splice an op with no interpretation in right after the first
    traced op the run executes.  Budgets ending at or just before that
    traced op raise the budget error on both paths; one op more runs
    into the dispatch miss on both.  An error fired one op late on
    either path would turn the budget error into the dispatch miss."""
    program = build()
    trace = reference_capture(program)
    executed = 0
    for block_id in trace.block_seq:
        ops = program.main.block(trace.labels[block_id]).operations
        traced = [i for i, op in enumerate(ops[:-1])
                  if op.opcode in TRACED_OPCODES]
        if traced:
            ldpred = Operation(
                Opcode.LDPRED, dest=Reg("q"), op_id=program.max_op_id() + 1
            )
            ops.insert(traced[0] + 1, ldpred)
            position = executed + traced[0] + 1  # 1-based dynamic index
            break
        executed += len(ops)
    assert [
        assert_same_outcome(program, budget)[0]
        for budget in (position - 1, position, position + 1)
    ] == ["ExecutionLimitExceeded", "ExecutionLimitExceeded", "ValueError"]
