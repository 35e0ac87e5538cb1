"""Pipeline-aware job keys: normalisation, distinctness, dep derivation,
and end-to-end execution of a non-standard pipeline through the runner."""

from repro.compiler.config import standard_pipeline
from repro.compiler.manager import PassManager, compilation_digest
from repro.ir.operation import reset_operation_ids
from repro.machine.configs import PLAYDOH_4W
from repro.profiling.profile_run import profile_program
from repro.runner.cache import DiskCache
from repro.runner.executor import Runner
from repro.runner.jobs import (
    build_spec,
    compile_job,
    compile_spec,
    default_deps,
    profile_spec,
)
from repro.trace.capture import capture_trace
from repro.workloads.suite import load_benchmark


class TestNormalisation:
    def test_standard_pipeline_shares_keys_with_none(self):
        plain = compile_spec("li", PLAYDOH_4W)
        explicit = compile_spec("li", PLAYDOH_4W, pipeline=standard_pipeline())
        assert explicit.pipeline is None
        assert plain.key() == explicit.key()
        assert plain.job_id == explicit.job_id

    def test_verify_flag_never_splits_caches(self):
        noisy = compile_spec(
            "li", PLAYDOH_4W, pipeline=standard_pipeline(verify=False)
        )
        assert noisy.key() == compile_spec("li", PLAYDOH_4W).key()

    def test_build_and_profile_keep_only_the_frontend(self):
        pipeline = standard_pipeline(unroll=("loop", 2))
        built = build_spec("li", pipeline=pipeline)
        profiled = profile_spec("li", pipeline=pipeline)
        for spec in (built, profiled):
            assert spec.pipeline is not None
            assert [p.name for p in spec.pipeline.program_passes] == ["unroll"]
            assert spec.pipeline.codegen_passes == ()
        # A codegen-only (standard) pipeline is invisible upstream.
        assert build_spec("li", pipeline=standard_pipeline()).pipeline is None
        assert (
            build_spec("li", pipeline=standard_pipeline()).key()
            == build_spec("li").key()
        )


class TestDistinctness:
    def test_unroll_factors_get_distinct_keys(self):
        two = compile_spec(
            "li", PLAYDOH_4W, pipeline=standard_pipeline(unroll=("loop", 2))
        )
        four = compile_spec(
            "li", PLAYDOH_4W, pipeline=standard_pipeline(unroll=("loop", 4))
        )
        plain = compile_spec("li", PLAYDOH_4W)
        assert len({two.key(), four.key(), plain.key()}) == 3

    def test_job_id_names_the_frontend(self):
        spec = compile_spec(
            "li", PLAYDOH_4W, pipeline=standard_pipeline(unroll=("loop", 2))
        )
        assert "+unroll(" in spec.job_id
        assert "label='loop'" in spec.job_id

    def test_deps_inherit_the_pipeline(self):
        spec = compile_spec(
            "li", PLAYDOH_4W, pipeline=standard_pipeline(unroll=("loop", 2))
        )
        deps = {d.stage: d for d in default_deps(spec)}
        assert deps["build"].pipeline is not None
        assert deps["build"].pipeline.program_passes == (
            spec.pipeline.program_passes
        )
        assert deps["profile"].pipeline == deps["build"].pipeline
        # Standard compiles depend on pipeline-free builds.
        plain_deps = {d.stage: d for d in default_deps(compile_spec("li", PLAYDOH_4W))}
        assert plain_deps["build"].pipeline is None


class TestEndToEnd:
    def _loop_label(self, program):
        from repro.regions.unroll import UnrollError, unroll_program_loop

        for block in program.main:
            if block.terminator and block.label in block.terminator.targets:
                try:
                    unroll_program_loop(program, block.label, 2)
                except UnrollError:
                    continue
                return block.label
        raise AssertionError("no unrollable self-loop")

    def test_runner_compiles_unroll_variant_like_inline(self):
        reset_operation_ids()
        label = self._loop_label(load_benchmark("li", scale=0.25))
        pipeline = standard_pipeline(unroll=(label, 2))

        runner = Runner(cache=DiskCache(enabled=False))
        via_runner = runner.run_job(
            compile_job("li", PLAYDOH_4W, scale=0.25, pipeline=pipeline)
        )

        reset_operation_ids()
        manager = PassManager(pipeline)
        program = manager.run_program_passes(load_benchmark("li", scale=0.25))
        inline = manager.compile(program, PLAYDOH_4W, profile_program(program, capture_trace(program)))

        assert compilation_digest(via_runner) == compilation_digest(inline)
        assert via_runner.speculated_labels == inline.speculated_labels
