"""Tests for the optimisation passes, including semantic-equivalence
property tests driven by the interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.opcodes import Opcode
from repro.ir.operation import Imm, Reg
from repro.opt.passes import (
    constant_folding,
    copy_propagation,
    dead_code_elimination,
    function_shape,
    optimize_function,
    optimize_program,
)
from repro.profiling.interpreter import run_program


def function_of(emit):
    fb = FunctionBuilder("f")
    fb.block("entry")
    emit(fb)
    fb.halt()
    return fb.build()


class TestConstantFolding:
    def test_folds_constant_chain(self):
        fn = function_of(lambda fb: (
            fb.mov("a", 6),
            fb.mov("b", 7),
            fb.mul("c", "a", "b"),
            fb.add("d", "c", 1),
        ))
        folded = constant_folding(fn)
        ops = folded.block("entry").operations
        assert all(op.opcode in (Opcode.MOV, Opcode.HALT) for op in ops)
        c = next(op for op in ops if op.dest == Reg("c"))
        d = next(op for op in ops if op.dest == Reg("d"))
        assert c.srcs == (Imm(42),)
        assert d.srcs == (Imm(43),)

    def test_unknown_operand_blocks_fold(self):
        fn = function_of(lambda fb: fb.add("c", "unknown", 1))
        folded = constant_folding(fn)
        assert folded.block("entry").operations[0].opcode is Opcode.ADD

    def test_load_invalidates_constant(self):
        fn = function_of(lambda fb: (
            fb.mov("a", 5),
            fb.load("a", "p"),
            fb.add("b", "a", 1),
        ))
        folded = constant_folding(fn)
        add = folded.block("entry").operations[2]
        assert add.opcode is Opcode.ADD  # a is no longer constant

    def test_folds_constant_branch(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("c", 1)
        fb.brcond("c", "yes", "no")
        fb.block("yes")
        fb.halt()
        fb.block("no")
        fb.halt()
        folded = constant_folding(fb.build())
        term = folded.block("entry").terminator
        assert term.opcode is Opcode.BR
        assert term.targets == ("yes",)

    def test_folds_false_branch(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("c", 0)
        fb.brcond("c", "yes", "no")
        fb.block("yes")
        fb.halt()
        fb.block("no")
        fb.halt()
        folded = constant_folding(fb.build())
        assert folded.block("entry").terminator.targets == ("no",)


class TestCopyPropagation:
    def test_forwards_copy(self):
        fn = function_of(lambda fb: (
            fb.mov("b", "a"),
            fb.add("c", "b", 1),
        ))
        out = copy_propagation(fn)
        add = out.block("entry").operations[1]
        assert add.srcs[0] == Reg("a")

    def test_redefinition_of_source_kills_copy(self):
        fn = function_of(lambda fb: (
            fb.mov("b", "a"),
            fb.mov("a", 99),
            fb.add("c", "b", 1),
        ))
        out = copy_propagation(fn)
        add = out.block("entry").operations[2]
        assert add.srcs[0] == Reg("b")  # must NOT read the new a

    def test_redefinition_of_dest_kills_copy(self):
        fn = function_of(lambda fb: (
            fb.mov("b", "a"),
            fb.mov("b", 5),
            fb.add("c", "b", 1),
        ))
        out = copy_propagation(fn)
        add = out.block("entry").operations[2]
        assert add.srcs[0] == Reg("b")

    def test_chained_copies(self):
        fn = function_of(lambda fb: (
            fb.mov("b", "a"),
            fb.mov("c", "b"),
            fb.add("d", "c", 1),
        ))
        out = copy_propagation(fn)
        add = out.block("entry").operations[2]
        assert add.srcs[0] == Reg("a")


class TestDeadCodeElimination:
    def test_removes_dead_alu(self):
        fn = function_of(lambda fb: (
            fb.mov("dead", 42),
            fb.mov("live", 1),
            fb.store("live", "live", offset=0),
        ))
        out = dead_code_elimination(fn)
        dests = [op.dest for op in out.block("entry").operations if op.dest]
        assert Reg("dead") not in dests

    def test_keeps_liveout_values(self):
        fb = FunctionBuilder("f")
        fb.block("entry")
        fb.mov("x", 42)
        fb.br("next")
        fb.block("next")
        fb.store("x", "x", offset=0)
        fb.halt()
        out = dead_code_elimination(fb.build())
        assert any(op.dest == Reg("x") for op in out.block("entry").operations)

    def test_keeps_stores_and_branches(self):
        fn = function_of(lambda fb: fb.store(1, "p", offset=0))
        out = dead_code_elimination(fn)
        assert any(op.is_store for op in out.block("entry").operations)
        assert out.block("entry").terminator is not None

    def test_removes_dead_load(self):
        fn = function_of(lambda fb: (
            fb.load("unused", "p"),
            fb.store(1, "p", offset=5),
        ))
        out = dead_code_elimination(fn)
        assert not out.block("entry").loads()

    def test_dead_chain_removed_transitively(self):
        fn = function_of(lambda fb: (
            fb.mov("a", 1),
            fb.add("b", "a", 1),   # only feeds the dead c
            fb.add("c", "b", 1),   # dead
            fb.store(9, "p", offset=0),
        ))
        out = optimize_function(fn)
        body_dests = [op.dest for op in out.block("entry").operations if op.dest]
        assert body_dests == []


def sloppy_function():
    """A function the classical passes can visibly improve."""
    return function_of(lambda fb: (
        fb.mov("a", 6),
        fb.mov("b", 7),
        fb.mul("c", "a", "b"),     # folds to 42
        fb.mov("d", "c"),          # copy to propagate
        fb.add("e", "d", 1),       # then folds to 43
        fb.mov("dead", 99),        # never read again
        fb.mov("p", 0),
        fb.store("e", "p"),
    ))


class TestPassAlgebra:
    def test_dce_is_idempotent(self):
        function = sloppy_function()
        first = dead_code_elimination(function)
        assert function_shape(first) != function_shape(function)
        second = dead_code_elimination(first)
        assert function_shape(second) == function_shape(first)

    def test_fold_copyprop_reaches_fixpoint(self):
        current = sloppy_function()
        for _ in range(8):
            before = function_shape(current)
            current = copy_propagation(constant_folding(current))
            if function_shape(current) == before:
                break
        else:
            pytest.fail("fold/copyprop never reached a fixpoint")
        # The loop stopped where one more round changed nothing; the
        # fixpoint it reached is a rewrite of the input.
        assert function_shape(current) != function_shape(sloppy_function())


class TestPipelineEquivalence:
    def test_loop_program_unchanged_behaviour(self, loop_program):
        optimized = optimize_program(loop_program)
        a = run_program(loop_program)
        b = run_program(optimized)
        assert b.memory.snapshot() == a.memory.snapshot()
        assert b.dynamic_operations <= a.dynamic_operations

    def test_benchmarks_unchanged_behaviour(self):
        from repro.workloads.suite import load_benchmark

        for name in ("compress", "m88ksim"):
            program = load_benchmark(name, scale=0.15)
            optimized = optimize_program(program)
            a = run_program(program)
            b = run_program(optimized)
            assert b.memory.snapshot() == a.memory.snapshot(), name


_REGS = [f"r{i}" for i in range(4)]
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mov_imm"), st.sampled_from(_REGS), st.integers(-50, 50), st.just(0)),
        st.tuples(st.just("mov"), st.sampled_from(_REGS), st.sampled_from(_REGS), st.just(0)),
        st.tuples(st.just("add"), st.sampled_from(_REGS), st.sampled_from(_REGS), st.sampled_from(_REGS)),
        st.tuples(st.just("mul_imm"), st.sampled_from(_REGS), st.sampled_from(_REGS), st.integers(-5, 5)),
        st.tuples(st.just("store"), st.sampled_from(_REGS), st.sampled_from(_REGS), st.integers(0, 4)),
        st.tuples(st.just("load"), st.sampled_from(_REGS), st.sampled_from(_REGS), st.integers(0, 4)),
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_property_optimisation_preserves_memory_state(ops):
    """The optimised program writes exactly the same memory image."""
    pb = ProgramBuilder("rand")
    fb = pb.function()
    fb.block("entry")
    for kind, a, b, c in ops:
        if kind == "mov_imm":
            fb.mov(a, b)
        elif kind == "mov":
            fb.mov(a, b)
        elif kind == "add":
            fb.add(a, b, c)
        elif kind == "mul_imm":
            fb.mul(a, b, c)
        elif kind == "store":
            fb.store(a, b, offset=c)
        else:
            fb.load(a, b, offset=c)
    fb.halt()
    pb.add(fb.build())
    program = pb.build()

    optimized = optimize_program(program)
    original = run_program(program)
    transformed = run_program(optimized)
    assert transformed.memory.snapshot() == original.memory.snapshot()
    assert transformed.dynamic_operations <= original.dynamic_operations
