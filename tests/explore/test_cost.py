"""The relative hardware-cost model behind the Pareto frontier."""

from __future__ import annotations

from repro.explore.cost import machine_cost, predictor_cost
from repro.machine.configs import PLAYDOH_4W_SPEC, PLAYDOH_8W_SPEC
from repro.machine.predictor import PredictorSpec


class TestMachineCost:
    def test_positive(self):
        assert machine_cost(PLAYDOH_4W_SPEC) > 0

    def test_wider_machine_costs_more(self):
        assert machine_cost(PLAYDOH_8W_SPEC) > machine_cost(PLAYDOH_4W_SPEC)

    def test_bounded_buffers_cost_less_than_unbounded(self):
        bounded = PLAYDOH_4W_SPEC.override(ccb_capacity=8, ovb_capacity=8)
        assert machine_cost(bounded) < machine_cost(PLAYDOH_4W_SPEC)

    def test_monotone_in_each_capacity(self):
        small = PLAYDOH_4W_SPEC.override(ccb_capacity=8)
        large = PLAYDOH_4W_SPEC.override(ccb_capacity=64)
        assert machine_cost(small) < machine_cost(large)

    def test_weight_overrides(self):
        base = machine_cost(PLAYDOH_4W_SPEC)
        heavier = machine_cost(PLAYDOH_4W_SPEC, sync_bit_weight=1.0)
        assert heavier > base


class TestPredictorCost:
    def test_bounded_table_cheaper_than_unbounded(self):
        bounded = PredictorSpec(table_entries=256)
        assert predictor_cost(bounded) < predictor_cost(PredictorSpec())

    def test_stride_cheaper_than_hybrid(self):
        stride = PredictorSpec(kind="stride", table_entries=1024)
        hybrid = PredictorSpec(kind="hybrid", table_entries=1024)
        assert predictor_cost(stride) < predictor_cost(hybrid)

    def test_fcm_pays_for_its_history_table(self):
        small = PredictorSpec(kind="fcm", table_entries=256, table_bits=10)
        large = PredictorSpec(kind="fcm", table_entries=256, table_bits=16)
        assert predictor_cost(small) < predictor_cost(large)
