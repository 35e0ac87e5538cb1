"""Tests for pipeline configuration: specs, canonical forms, fingerprints."""

import pytest

from repro.compiler.config import (
    PassSpec,
    PipelineConfig,
    STANDARD_CODEGEN,
    canonical_value,
    compilation_fingerprint,
    standard_pipeline,
)
from repro.core.speculation import SpeculationConfig
from repro.machine.configs import PLAYDOH_4W, PLAYDOH_8W
from repro.workloads.suite import load_benchmark


class TestPassSpec:
    def test_make_sorts_options(self):
        a = PassSpec.make("unroll", label="loop", factor=2)
        b = PassSpec.make("unroll", factor=2, label="loop")
        assert a == b
        assert a.options == (("factor", 2), ("label", "loop"))

    def test_option_lookup(self):
        spec = PassSpec.make("unroll", label="loop", factor=4)
        assert spec.option("factor") == 4
        assert spec.option("missing", "dflt") == "dflt"

    def test_render(self):
        assert PassSpec("dce").render() == "dce"
        assert "label='loop'" in PassSpec.make("unroll", label="loop").render()


class TestPipelineConfig:
    def test_standard_pipeline_has_no_program_passes(self):
        config = standard_pipeline()
        assert config.program_passes == ()
        assert config.codegen_passes == STANDARD_CODEGEN
        assert config.is_standard()

    def test_unroll_and_optimize_front_ends(self):
        config = standard_pipeline(optimize=True, unroll=("loop", 2))
        names = [p.name for p in config.program_passes]
        assert names == ["optimize", "unroll"]
        assert not config.is_standard()

    def test_verify_excluded_from_canonical(self):
        on = standard_pipeline(verify=True)
        off = standard_pipeline(verify=False)
        assert on != off
        assert on.canonical() == off.canonical()
        assert on.fingerprint() == off.fingerprint()

    def test_fingerprint_distinguishes_options(self):
        two = standard_pipeline(unroll=("loop", 2))
        four = standard_pipeline(unroll=("loop", 4))
        assert two.fingerprint() != four.fingerprint()
        assert two.fingerprint() == standard_pipeline(unroll=("loop", 2)).fingerprint()

    def test_frontend_keeps_only_program_passes(self):
        config = standard_pipeline(unroll=("loop", 2))
        frontend = config.frontend()
        assert frontend.program_passes == config.program_passes
        assert frontend.codegen_passes == ()

    def test_passes_property_concatenates(self):
        config = standard_pipeline(optimize=True)
        assert [p.name for p in config.passes][0] == "optimize"
        assert [p.name for p in config.passes][-1] == "baseline"

    def test_describe_shows_speculation_knobs(self):
        text = standard_pipeline().describe(
            spec_config=SpeculationConfig(threshold=0.8)
        )
        assert "speculate" in text
        assert "threshold=0.8" in text
        assert "schedule-original" in text

    def test_config_is_hashable_and_picklable(self):
        import pickle

        config = standard_pipeline(unroll=("loop", 2))
        assert hash(config)
        assert pickle.loads(pickle.dumps(config)) == config


class TestCanonicalValue:
    def test_primitives_and_floats(self):
        assert canonical_value(1.5) == "1.5"
        assert canonical_value({"b": 1, "a": 2}) == {"a": 2, "b": 1}
        assert canonical_value(frozenset({3, 1, 2})) == [1, 2, 3]

    def test_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            canonical_value(object())


class TestCompilationFingerprint:
    def test_insensitive_to_operation_id_state(self):
        first = load_benchmark("swim", scale=0.25)
        second = load_benchmark("swim", scale=0.25)
        assert compilation_fingerprint(
            first, PLAYDOH_4W
        ) == compilation_fingerprint(second, PLAYDOH_4W)

    def test_sensitive_to_every_input(self):
        program = load_benchmark("swim", scale=0.25)
        base = compilation_fingerprint(program, PLAYDOH_4W)
        assert base != compilation_fingerprint(program, PLAYDOH_8W)
        assert base != compilation_fingerprint(
            program, PLAYDOH_4W, spec_config=SpeculationConfig(threshold=0.8)
        )
        assert base != compilation_fingerprint(
            program, PLAYDOH_4W, pipeline=standard_pipeline(optimize=True)
        )
