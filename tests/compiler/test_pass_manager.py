"""Tests for the pass manager: pass algebra, verification, and
byte-identity with the historical fused compilation loop."""

import pickle

import pytest

from repro.compiler.config import PassSpec, PipelineConfig, standard_pipeline
from repro.compiler.manager import PassManager
from repro.compiler.passes import PipelineError, available_passes, register_pass
from repro.compiler.passes import _REGISTRY
from repro.ir.block import BasicBlock
from repro.ir.builder import ProgramBuilder
from repro.ir.function import Function
from repro.ir.liveness import compute_liveness
from repro.ir.program import Program
from repro.ir.verifier import VerificationError
from repro.machine.configs import PLAYDOH_4W
from repro.opt.passes import function_shape
from repro.profiling.profile_run import profile_program
from repro.trace.capture import capture_trace
from repro.sched.list_scheduler import ListScheduler
from repro.core.baseline import build_baseline_block
from repro.core.machine_sim import simulate_best_case, simulate_worst_case
from repro.core.metrics import BlockCompilation, ProgramCompilation
from repro.core.specsched import schedule_speculative
from repro.core.speculation import SpeculationConfig, speculate_block
from repro.workloads.suite import load_benchmark


def sloppy_program():
    """A program the classical passes can visibly improve."""
    pb = ProgramBuilder("sloppy")
    fb = pb.function("main")
    fb.block("entry")
    fb.mov("a", 6)
    fb.mov("b", 7)
    fb.mul("c", "a", "b")      # folds to 42
    fb.mov("d", "c")           # copy to propagate
    fb.add("e", "d", 1)        # then folds to 43
    fb.mov("dead", 99)         # never read again
    fb.mov("p", 0)
    fb.store("e", "p")
    fb.halt()
    return pb.add(fb.build()).build()


def legacy_compile(program, machine, profile, config=None):
    """The pre-pass-manager ``compile_program`` body, with the baseline
    built from the block's speculative schedule as the pass does."""
    config = config or SpeculationConfig()
    function = program.main
    liveness = compute_liveness(function)
    scheduler = ListScheduler(machine)
    id_base = program.max_op_id() + 1
    blocks = {}
    for block in function:
        original_length = scheduler.schedule_block(block).length
        compilation = BlockCompilation(
            label=block.label, original_length=original_length
        )
        spec = speculate_block(
            block, machine, profile.values,
            live_out=liveness.live_out[block.label], config=config,
            id_base=id_base,
        )
        if spec is not None:
            compilation.spec_schedule = schedule_speculative(
                spec, machine, original_length=original_length
            )
            compilation.best_length = simulate_best_case(
                compilation.spec_schedule
            ).effective_length
            compilation.worst_length = simulate_worst_case(
                compilation.spec_schedule
            ).effective_length
            compilation.baseline = build_baseline_block(
                compilation.spec_schedule, machine
            )
        blocks[block.label] = compilation
    return ProgramCompilation(
        program=program, machine=machine, config=config,
        profile=profile, blocks=blocks,
    )


@pytest.fixture
def temporary_pass():
    """Register throwaway passes; unregister them afterwards."""
    added = []

    def add(name, kind, fn, **defaults):
        register_pass(name, kind, f"test pass {name}", fn, **defaults)
        added.append(name)

    yield add
    for name in added:
        _REGISTRY.pop(name, None)


class TestLegacyEquivalence:
    @pytest.mark.parametrize("workload", ["li", "swim"])
    def test_standard_pipeline_matches_fused_loop_bytewise(self, workload):
        p1 = load_benchmark(workload, scale=0.25)
        r1 = profile_program(p1, capture_trace(p1))
        legacy = legacy_compile(p1, PLAYDOH_4W, r1)
        p2 = load_benchmark(workload, scale=0.25)
        r2 = profile_program(p2, capture_trace(p2))
        managed = PassManager().compile(p2, PLAYDOH_4W, r2)
        assert pickle.dumps(legacy) == pickle.dumps(managed)


class TestPassAlgebra:
    def test_optimize_pass_matches_optimize_program(self):
        from repro.opt.passes import optimize_program

        program = sloppy_program()
        via_pass = PassManager(
            PipelineConfig(program_passes=(PassSpec("optimize"),))
        ).run_program_passes(program)
        via_driver = optimize_program(sloppy_program())
        assert function_shape(via_pass.main) == function_shape(via_driver.main)

    def test_unroll_pass_matches_unroll_program_loop(self):
        from repro.regions.unroll import UnrollError, unroll_program_loop

        program = load_benchmark("li", scale=0.25)
        label = None
        via_direct = None
        for block in program.main:
            if block.terminator and block.label in block.terminator.targets:
                try:
                    via_direct = unroll_program_loop(program, block.label, 2)
                except UnrollError:
                    continue
                label = block.label
                break
        assert label is not None, "li has no unrollable self-loop"
        via_pass = PassManager(
            standard_pipeline(unroll=(label, 2))
        ).run_program_passes(program)
        assert function_shape(via_pass.main) == function_shape(via_direct.main)


class TestVerification:
    def test_rejects_malformed_pass_output(self, temporary_pass):
        def drop_terminators(program):
            result = Program(program.name, main=program.main_name)
            for function in program:
                broken = Function(function.name, entry_label=function.entry_label)
                for block in function:
                    broken.add_block(
                        BasicBlock(block.label, list(block.operations)[:-1])
                    )
                result.add_function(broken)
            return result

        temporary_pass("test-break-terminator", "program", drop_terminators)
        config = PipelineConfig(
            program_passes=(PassSpec("test-break-terminator"),)
        )
        with pytest.raises(VerificationError) as excinfo:
            PassManager(config).run_program_passes(sloppy_program())
        assert "test-break-terminator" in str(excinfo.value)

    def test_verifies_codegen_input(self):
        program = sloppy_program()
        mangled = Function("main", entry_label="entry")
        mangled.add_block(
            BasicBlock("entry", list(program.main.block("entry").operations)[:-1])
        )
        bad = Program("bad", main="main")
        bad.add_function(mangled)
        with pytest.raises(VerificationError):
            PassManager().compile(bad, PLAYDOH_4W, None)


class TestPipelineErrors:
    def test_unknown_pass(self):
        config = PipelineConfig(program_passes=(PassSpec("no-such-pass"),))
        with pytest.raises(PipelineError, match="no-such-pass"):
            PassManager(config).run_program_passes(sloppy_program())

    def test_unknown_option(self):
        config = PipelineConfig(
            program_passes=(PassSpec.make("optimize", bogus=1),)
        )
        with pytest.raises(PipelineError, match="bogus"):
            PassManager(config).run_program_passes(sloppy_program())

    def test_missing_required_option(self):
        config = PipelineConfig(program_passes=(PassSpec("unroll"),))
        with pytest.raises(PipelineError, match="label"):
            PassManager(config).run_program_passes(sloppy_program())

    def test_codegen_pass_rejected_in_program_position(self):
        config = PipelineConfig(program_passes=(PassSpec("speculate"),))
        with pytest.raises(PipelineError, match="speculate"):
            PassManager(config).run_program_passes(sloppy_program())

    def test_program_pass_rejected_in_codegen_position(self):
        config = PipelineConfig(codegen_passes=(PassSpec("optimize"),))
        with pytest.raises(PipelineError, match="optimize"):
            PassManager(config).compile(sloppy_program(), PLAYDOH_4W, None)

    def test_speculate_requires_liveness(self):
        config = PipelineConfig(codegen_passes=(PassSpec("speculate"),))
        program = load_benchmark("swim", scale=0.25)
        profile = profile_program(program, capture_trace(program))
        with pytest.raises(PipelineError, match="liveness"):
            PassManager(config).compile(program, PLAYDOH_4W, profile)

    def test_baseline_requires_the_speculative_schedule(self):
        """The baseline's main code is the speculative schedule."""
        config = PipelineConfig(
            codegen_passes=tuple(
                PassSpec(name)
                for name in ("liveness", "schedule-original", "speculate", "baseline")
            )
        )
        program = load_benchmark("swim", scale=0.25)
        profile = profile_program(program, capture_trace(program))
        with pytest.raises(PipelineError, match="schedule-speculative"):
            PassManager(config).compile(program, PLAYDOH_4W, profile)

    def test_run_rejects_stale_profile_with_program_passes(self):
        program = load_benchmark("swim", scale=0.25)
        profile = profile_program(program, capture_trace(program))
        manager = PassManager(standard_pipeline(optimize=True))
        with pytest.raises(PipelineError, match="profile"):
            manager.run(program, PLAYDOH_4W, profile)

    def test_run_profiles_rewritten_program(self):
        program = load_benchmark("swim", scale=0.25)
        compilation = PassManager(standard_pipeline(optimize=True)).run(
            program, PLAYDOH_4W, None
        )
        assert compilation.blocks


class TestRegistry:
    def test_builtin_passes_registered(self):
        names = {info.name for info in available_passes()}
        assert {
            "optimize", "unroll",
            "liveness", "schedule-original", "speculate",
            "schedule-speculative", "baseline",
        } <= names
