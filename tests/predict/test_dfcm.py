"""Unit tests for the DFCM predictor."""

import pytest

from tests.predict.reference_predictors import DFCMPredictor, FCMPredictor, StridePredictor


def feed(predictor, values, key="k"):
    for v in values:
        predictor.observe(key, v)


class TestDFCM:
    def test_cold_start(self):
        p = DFCMPredictor()
        assert p.predict("k") is None
        p.update("k", 5)
        assert p.predict("k") is None

    def test_constant_stride(self):
        p = DFCMPredictor(order=2)
        feed(p, [10, 13, 16, 19, 22])
        assert p.predict("k") == 25

    def test_repeating_stride_pattern(self):
        """The DFCM signature case: a matrix walk (+1,+1,+1,+10) whose
        stride sequence repeats; plain stride prediction keeps missing
        at the row boundary, DFCM learns it."""
        values = [0]
        for _ in range(12):
            for stride in (1, 5, 10):  # unambiguous order-2 contexts
                values.append(values[-1] + stride)

        dfcm = DFCMPredictor(order=2)
        stride = StridePredictor()
        feed(dfcm, values)
        feed(stride, values)
        assert dfcm.stats.hit_rate > stride.stats.hit_rate
        assert dfcm.stats.hit_rate > 0.8  # perfect after a 6-step warmup

    def test_survives_rebase(self):
        """After a one-off jump, the stride context re-synchronises."""
        p = DFCMPredictor(order=2)
        feed(p, [0, 1, 2, 3, 1000, 1001, 1002, 1003, 1004])
        assert p.predict("k") == 1005

    def test_beats_fcm_on_non_repeating_values(self):
        """Values never repeat (monotonically increasing), so value-FCM
        has nothing to match contexts against; stride contexts repeat."""
        values = [0]
        for _ in range(15):
            for stride in (2, 5, 2):
                values.append(values[-1] + stride)
        dfcm = DFCMPredictor(order=2)
        fcm = FCMPredictor(order=2)
        feed(dfcm, values)
        feed(fcm, values)
        assert dfcm.stats.hit_rate > fcm.stats.hit_rate + 0.3

    def test_keys_independent(self):
        p = DFCMPredictor()
        feed(p, [1, 2, 3, 4], key="a")
        feed(p, [100, 90, 80, 70], key="b")
        assert p.predict("a") == 5
        assert p.predict("b") == 60

    def test_reset(self):
        p = DFCMPredictor()
        feed(p, [1, 2, 3, 4])
        p.reset()
        assert p.predict("k") is None
        assert p.stats.attempts == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DFCMPredictor(order=0)
        with pytest.raises(ValueError):
            DFCMPredictor(table_bits=40)

    def test_in_hybrid(self):
        from tests.predict.reference_predictors import HybridPredictor

        hybrid = HybridPredictor([StridePredictor(), DFCMPredictor()])
        values = [0]
        for _ in range(12):
            for stride in (1, 1, 7):
                values.append(values[-1] + stride)
        feed(hybrid, values)
        assert hybrid.chosen_component("k").name == "dfcm"
