"""Design-space declaration: axes, grids, sampling, point derivation."""

from __future__ import annotations

import pytest

from repro.core.speculation import SpeculationConfig
from repro.explore.space import Axis, DesignPoint, DesignSpace, InvalidPoint, parse_axis_value
from repro.ir.opcodes import FUClass, Opcode
from repro.machine.configs import PLAYDOH_4W_SPEC


def space(*axes: str) -> DesignSpace:
    return DesignSpace(
        base=PLAYDOH_4W_SPEC, axes=tuple(Axis.parse(a) for a in axes)
    )


class TestAxisParsing:
    def test_parse_int_axis(self):
        axis = Axis.parse("issue_width=2,4,8")
        assert axis.name == "issue_width"
        assert axis.values == (2, 4, 8)

    def test_parse_threshold_as_float(self):
        assert Axis.parse("threshold=0.5,0.8").values == (0.5, 0.8)

    def test_parse_predictor_kind_as_string(self):
        assert Axis.parse("predictor.kind=stride,hybrid").values == (
            "stride",
            "hybrid",
        )

    def test_none_aliases(self):
        for alias in ("none", "inf", "unbounded", "NONE"):
            assert parse_axis_value("ccb_capacity", alias) is None

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ValueError, match="name=v1,v2"):
            Axis.parse("issue_width")

    def test_empty_values_is_an_error(self):
        with pytest.raises(ValueError, match="no values"):
            Axis.parse("issue_width=")

    def test_unknown_axis_is_an_error(self):
        with pytest.raises(ValueError, match="unknown axis"):
            Axis.parse("frobnicate=1,2")

    def test_bad_unit_class_is_an_error(self):
        with pytest.raises(ValueError):
            Axis.parse("units.vector=1,2")

    def test_bad_opcode_is_an_error(self):
        with pytest.raises(ValueError):
            Axis.parse("latency.teleport=1")

    def test_bad_predictor_field_is_an_error(self):
        with pytest.raises(ValueError, match="predictor"):
            Axis.parse("predictor.magic=1")


class TestDesignSpace:
    def test_grid_is_full_cross_product_in_declared_order(self):
        s = space("issue_width=2,4", "threshold=0.5,0.8")
        labels = [p.label for p in s.grid()]
        assert labels == [
            "issue_width=2/threshold=0.5",
            "issue_width=2/threshold=0.8",
            "issue_width=4/threshold=0.5",
            "issue_width=4/threshold=0.8",
        ]
        assert s.size == 4

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            space("issue_width=2", "issue_width=4")

    def test_sample_is_seeded_and_a_subset_of_the_grid(self):
        s = space("issue_width=2,4,8", "threshold=0.5,0.65,0.8")
        first = s.sample(4, seed=7)
        again = s.sample(4, seed=7)
        other = s.sample(4, seed=8)
        assert [p.label for p in first] == [p.label for p in again]
        assert [p.label for p in first] != [p.label for p in other]
        grid_labels = [p.label for p in s.grid()]
        assert all(p.label in grid_labels for p in first)

    def test_rejected_values_expand_to_invalid_points(self):
        s = space("issue_width=0,4")
        invalid, valid = s.grid()
        assert isinstance(invalid, InvalidPoint) and isinstance(valid, DesignPoint)
        assert invalid.label == "issue_width=0"
        assert str(invalid.error) == "issue width must be positive"
        assert s.point((("issue_width", 0),)).label == "issue_width=0"

    def test_sample_larger_than_grid_returns_grid(self):
        s = space("issue_width=2,4")
        assert len(s.sample(10)) == 2


class TestPointDerivation:
    def test_machine_axes_change_the_spec(self):
        point = space("issue_width=2,4").point((("issue_width", 2),))
        assert point.spec.issue_width == 2
        assert point.spec_config == SpeculationConfig()

    def test_fu_scale_multiplies_every_unit(self):
        point = space("fu_scale=1,2").point((("fu_scale", 2),))
        for fu, n in PLAYDOH_4W_SPEC.units.items():
            assert point.spec.units[fu] == 2 * n
        assert point.spec.issue_width == PLAYDOH_4W_SPEC.issue_width

    def test_unit_and_latency_axes(self):
        point = space("units.mem=2", "latency.load=5").point(
            (("units.mem", 2), ("latency.load", 5))
        )
        assert point.spec.units[FUClass.MEM] == 2
        assert point.spec.latencies[Opcode.LOAD] == 5

    def test_predictor_axes(self):
        point = space("predictor.kind=stride", "predictor.table_entries=1024").point(
            (("predictor.kind", "stride"), ("predictor.table_entries", 1024))
        )
        assert point.spec.predictor.kind == "stride"
        assert point.spec.predictor.table_entries == 1024

    def test_speculation_axes_leave_the_machine_alone(self):
        s = space("threshold=0.5,0.8", "max_predictions=1,2")
        a = s.point((("threshold", 0.5), ("max_predictions", 1)))
        b = s.point((("threshold", 0.8), ("max_predictions", 2)))
        # Speculation-only sweeps share one machine fingerprint so their
        # compile jobs dedupe; the configs differ.
        assert a.fingerprint() == b.fingerprint()
        assert a.spec.name == PLAYDOH_4W_SPEC.name
        assert a.spec_config.threshold == 0.5
        assert b.spec_config.max_predictions == 2

    def test_machine_axes_rename_the_machine(self):
        s = space("issue_width=2,4", "threshold=0.5,0.8")
        point = s.point((("issue_width", 2), ("threshold", 0.5)))
        assert point.spec.name == "playdoh-4w@issue_width=2"
        assert point.label == "issue_width=2/threshold=0.5"

    def test_unbounded_value_formats_as_inf(self):
        point = space("ccb_capacity=8,none").point((("ccb_capacity", None),))
        assert point.spec.ccb_capacity is None
        assert point.label == "ccb_capacity=inf"

    def test_empty_space_has_one_base_point(self):
        s = DesignSpace(base=PLAYDOH_4W_SPEC, axes=())
        points = s.grid()
        assert len(points) == 1
        assert points[0].label == "base"
        assert points[0].spec == PLAYDOH_4W_SPEC
