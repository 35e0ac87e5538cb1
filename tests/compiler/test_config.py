"""Tests for pipeline configuration: specs, canonical forms, fingerprints."""

import enum

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

    # The expected forms below were produced by the Mapping-first
    # canonical_value that the exact-type fast path replaced; they are
    # what pipeline fingerprints and job keys hash.

    def test_pins_a_speculation_config(self):
        assert canonical_value(
            SpeculationConfig(threshold=0.8, speculate_liveout=True)
        ) == {
            "__dataclass__": "SpeculationConfig",
            "threshold": "0.8",
            "max_predictions": 4,
            "sync_width": 64,
            "min_profile_executions": 4,
            "speculate_liveout": True,
            "predict_alu": False,
        }

    def test_pins_a_pipeline_config(self):
        def spec(name, options=()):
            return {"__dataclass__": "PassSpec", "name": name,
                    "options": [list(o) for o in options]}

        config = standard_pipeline(optimize=True, unroll=("loop", 2))
        assert canonical_value(config) == {
            "__dataclass__": "PipelineConfig",
            "program_passes": [
                spec("optimize"),
                spec("unroll", [("factor", 2), ("label", "loop")]),
            ],
            "codegen_passes": [
                spec("liveness"),
                spec("schedule-original"),
                spec("speculate"),
                spec("schedule-speculative"),
                spec("baseline"),
            ],
        }
        assert config.fingerprint() == (
            "cb534581d6fd1199491ddbfe20fd602201b195a3a32c51f0fb3ab4bf78d6baaf"
        )

    def test_pins_scalars(self):
        from repro.ddg.graph import DepKind

        class Level(enum.IntEnum):
            HIGH = 2

        assert canonical_value(DepKind.MEM) == "DepKind.MEM"
        # An int-valued enum keeps its enum form, not its int value.
        assert canonical_value(Level.HIGH) == "Level.HIGH"
        assert canonical_value(0.1) == "0.1"
        assert canonical_value(-0.0) == "-0.0"
        for value in (True, False, None, 7, "x"):
            result = canonical_value(value)
            assert result == value and type(result) is type(value)

    def test_pins_a_nested_mapping_and_set(self):
        value = {
            "b": {2, 1},
            3: (True, None, 0.5),
            "a": {"x": frozenset({"q", "p"})},
        }
        assert canonical_value(value) == {
            "3": [True, None, "0.5"],
            "a": {"x": ["p", "q"]},
            "b": [1, 2],
        }
