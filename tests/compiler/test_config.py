"""Tests for pipeline configuration: specs, canonical forms, fingerprints."""

import pytest

from repro.compiler.config import (
    PassSpec,
    PipelineConfig,
    STANDARD_CODEGEN,
    canonical_value,
    standard_pipeline,
)
from repro.core.speculation import SpeculationConfig


class TestPassSpec:
    def test_make_sorts_options(self):
        a = PassSpec.make("unroll", label="loop", factor=2)
        b = PassSpec.make("unroll", factor=2, label="loop")
        assert a == b
        assert a.options == (("factor", 2), ("label", "loop"))

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
