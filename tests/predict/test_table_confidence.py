"""Unit tests for the value-prediction table."""

import pytest

from repro.predict.stride import StridePredictor
from repro.predict.table import ValuePredictionTable


class TestValuePredictionTable:
    def test_unbounded_table_behaves_like_predictor(self):
        table = ValuePredictionTable(StridePredictor())
        for v in (2, 4, 6, 8):
            table.train("k", v)
        assert table.lookup("k") == 10
        assert table.tag_misses == 0

    def test_observe_combines_lookup_and_train(self):
        table = ValuePredictionTable(StridePredictor())
        assert table.observe("k", 5) is None
        table.observe("k", 10)
        table.observe("k", 15)
        assert table.observe("k", 20) == 20

    def test_capacity_conflicts_cause_tag_misses(self):
        table = ValuePredictionTable(StridePredictor(), capacity=1)
        for v in (1, 2, 3):
            table.train("a", v)
        # 'b' maps to the same (only) slot and evicts 'a'.
        table.train("b", 10)
        assert table.lookup("a") is None
        assert table.tag_misses == 1

    def test_reoccupation_restores_visibility(self):
        table = ValuePredictionTable(StridePredictor(), capacity=1)
        for v in (1, 2, 3):
            table.train("a", v)
        table.train("b", 10)
        table.train("a", 4)  # re-claims the slot
        assert table.lookup("a") is not None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ValuePredictionTable(StridePredictor(), capacity=0)

    def test_reset(self):
        table = ValuePredictionTable(StridePredictor(), capacity=4)
        table.train("a", 1)
        table.lookup("a")
        table.reset()
        assert table.lookups == 0
        assert table.lookup("a") is None
